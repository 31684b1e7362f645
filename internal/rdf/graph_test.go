package rdf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tr(s, p, o string) Triple {
	return Triple{NewIRI(s), NewIRI(p), NewIRI(o)}
}

func TestGraphAddContainsRemove(t *testing.T) {
	g := NewGraph()
	x := tr("s", "p", "o")
	if g.Contains(x) {
		t.Fatal("empty graph contains triple")
	}
	if !g.Add(x) {
		t.Fatal("first Add returned false")
	}
	if g.Add(x) {
		t.Fatal("duplicate Add returned true")
	}
	if !g.Contains(x) {
		t.Fatal("graph missing added triple")
	}
	if g.Size() != 1 {
		t.Fatalf("Size = %d, want 1", g.Size())
	}
	if !g.Remove(x) {
		t.Fatal("Remove returned false")
	}
	if g.Contains(x) || g.Size() != 0 {
		t.Fatal("triple still present after Remove")
	}
	if g.Remove(x) {
		t.Fatal("second Remove returned true")
	}
}

func TestGraphRejectsZeroTerms(t *testing.T) {
	g := NewGraph()
	if g.Add(Triple{Term{}, NewIRI("p"), NewIRI("o")}) {
		t.Error("Add with zero subject should fail")
	}
	if g.Size() != 0 {
		t.Error("graph should stay empty")
	}
}

func TestGraphMatchAllCombinations(t *testing.T) {
	g := NewGraph()
	triples := []Triple{
		tr("s1", "p1", "o1"),
		tr("s1", "p1", "o2"),
		tr("s1", "p2", "o1"),
		tr("s2", "p1", "o1"),
		tr("s2", "p2", "o3"),
	}
	g.AddAll(triples)

	w := Term{} // wildcard
	cases := []struct {
		s, p, o Term
		want    int
	}{
		{w, w, w, 5},
		{NewIRI("s1"), w, w, 3},
		{w, NewIRI("p1"), w, 3},
		{w, w, NewIRI("o1"), 3},
		{NewIRI("s1"), NewIRI("p1"), w, 2},
		{NewIRI("s1"), w, NewIRI("o1"), 2},
		{w, NewIRI("p1"), NewIRI("o1"), 2},
		{NewIRI("s2"), NewIRI("p2"), NewIRI("o3"), 1},
		{NewIRI("nope"), w, w, 0},
		{w, NewIRI("nope"), w, 0},
		{w, w, NewIRI("nope"), 0},
	}
	for _, c := range cases {
		got := g.Match(c.s, c.p, c.o)
		if len(got) != c.want {
			t.Errorf("Match(%v,%v,%v) = %d rows, want %d", c.s, c.p, c.o, len(got), c.want)
		}
		if n := g.CountMatch(c.s, c.p, c.o); n != c.want {
			t.Errorf("CountMatch(%v,%v,%v) = %d, want %d", c.s, c.p, c.o, n, c.want)
		}
	}
}

func TestGraphMatchEarlyStop(t *testing.T) {
	g := NewGraph()
	for _, x := range []string{"a", "b", "c", "d"} {
		g.Add(tr(x, "p", "o"))
	}
	n := 0
	g.MatchIDs(NoTerm, NoTerm, NoTerm, func(_, _, _ TermID) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
}

func TestGraphSubjectsObjectsProperties(t *testing.T) {
	g := NewGraph()
	g.AddAll([]Triple{
		tr("s1", "p", "o1"), tr("s2", "p", "o1"), tr("s1", "q", "o2"),
	})
	if got := g.Match(Term{}, NewIRI("p"), NewIRI("o1")); len(got) != 2 {
		t.Errorf("subjects = %v, want 2 rows", got)
	}
	if got := g.Objects(NewIRI("s1"), Term{}); len(got) != 2 {
		t.Errorf("Objects = %v, want 2 rows", got)
	}
	props := g.Properties()
	if len(props) != 2 {
		t.Errorf("Properties = %v, want 2", props)
	}
}

func TestGraphClone(t *testing.T) {
	g := NewGraph()
	g.Add(tr("s", "p", "o"))
	c := g.Clone()
	c.Add(tr("s2", "p2", "o2"))
	if g.Size() != 1 {
		t.Errorf("clone mutation leaked into original: size %d", g.Size())
	}
	if c.Size() != 2 {
		t.Errorf("clone size = %d, want 2", c.Size())
	}
	if !c.Contains(tr("s", "p", "o")) {
		t.Error("clone missing original triple")
	}
}

func TestGraphTriplesDeterministic(t *testing.T) {
	mk := func(order []int) *Graph {
		base := []Triple{tr("a", "p", "x"), tr("b", "q", "y"), tr("c", "r", "z")}
		g := NewGraph()
		for _, i := range order {
			g.Add(base[i])
		}
		return g
	}
	a := mk([]int{0, 1, 2}).Triples()
	b := mk([]int{2, 0, 1}).Triples()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for a random set of triples, Size equals the number of
// distinct triples added, and every added triple is found by Contains
// and by each index path.
func TestGraphIndexConsistencyProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		distinct := make(map[Triple]struct{})
		names := []string{"a", "b", "c", "d", "e"}
		for i := 0; i < int(n); i++ {
			x := tr(names[rng.Intn(5)], names[rng.Intn(5)], names[rng.Intn(5)])
			g.Add(x)
			distinct[x] = struct{}{}
		}
		if g.Size() != len(distinct) {
			return false
		}
		for x := range distinct {
			if !g.Contains(x) {
				return false
			}
			// Each single-position probe must include x.
			if g.CountMatch(x.S, Term{}, Term{}) == 0 ||
				g.CountMatch(Term{}, x.P, Term{}) == 0 ||
				g.CountMatch(Term{}, Term{}, x.O) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: removing everything that was added leaves an empty graph with
// empty indexes (no dangling entries observable through Match).
func TestGraphRemoveAllProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		var added []Triple
		names := []string{"a", "b", "c"}
		for i := 0; i < int(n); i++ {
			x := tr(names[rng.Intn(3)], names[rng.Intn(3)], names[rng.Intn(3)])
			if g.Add(x) {
				added = append(added, x)
			}
		}
		for _, x := range added {
			if !g.Remove(x) {
				return false
			}
		}
		return g.Size() == 0 && len(g.Match(Term{}, Term{}, Term{})) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGraphConcurrentReaders(t *testing.T) {
	g := NewGraph()
	for _, x := range []string{"a", "b", "c", "d", "e", "f"} {
		g.Add(tr(x, "p", "o"))
	}
	done := make(chan int, 16)
	for i := 0; i < 16; i++ {
		go func() { done <- len(g.Match(Term{}, NewIRI("p"), Term{})) }()
	}
	for i := 0; i < 16; i++ {
		if n := <-done; n != 6 {
			t.Fatalf("concurrent reader saw %d rows, want 6", n)
		}
	}
}
