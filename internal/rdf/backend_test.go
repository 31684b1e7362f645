package rdf

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"tatooine/internal/pager"
	"tatooine/internal/store"
)

// runBothGraphs runs fn against an in-memory graph and a store-backed
// graph, pinning every Graph behavior backend-agnostically.
func runBothGraphs(t *testing.T, fn func(t *testing.T, g *Graph)) {
	t.Helper()
	t.Run("map", func(t *testing.T) {
		fn(t, NewGraph())
	})
	t.Run("store", func(t *testing.T) {
		st, err := store.Open(filepath.Join(t.TempDir(), "g.db"), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		g, err := OpenGraph(st, "g")
		if err != nil {
			t.Fatal(err)
		}
		fn(t, g)
		if err := g.StoreErr(); err != nil {
			t.Fatalf("store error: %v", err)
		}
	})
}

func tri(s, p, o string) Triple {
	return Triple{NewIRI(s), NewIRI(p), NewIRI(o)}
}

func TestBackendsAddRemoveContains(t *testing.T) {
	runBothGraphs(t, func(t *testing.T, g *Graph) {
		a := tri("s1", "p1", "o1")
		if !g.Add(a) {
			t.Fatal("first add not fresh")
		}
		if g.Add(a) {
			t.Fatal("duplicate add reported fresh")
		}
		if !g.Contains(a) || g.Size() != 1 {
			t.Fatalf("contains=%v size=%d", g.Contains(a), g.Size())
		}
		if !g.Remove(a) {
			t.Fatal("remove missed")
		}
		if g.Contains(a) || g.Size() != 0 {
			t.Fatal("triple survived removal")
		}
		if g.Remove(a) {
			t.Fatal("double remove reported hit")
		}
	})
}

// TestBackendsMatchEquivalence drives a random triple workload through
// both backends and checks that every pattern shape, over every term of
// the vocabulary, returns identical triple sets and counts equal to the
// number of matches. A second phase removes every triple of one
// predicate and re-adds some, so per-predicate bookkeeping that drops
// to zero is exercised too. A last phase adds one predicate over
// thousands of subjects and deletes a contiguous run of them, so counts
// and scans cross many B-tree leaves, some of them emptied.
func TestBackendsMatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	term := func(prefix string, n int) Term {
		return NewIRI(fmt.Sprintf("%s%d", prefix, rng.Intn(n)))
	}
	var ops []Triple
	for i := 0; i < 800; i++ {
		ops = append(ops, Triple{term("s", 12), term("p", 5), term("o", 12)})
	}

	mem := NewGraph()
	st, err := store.Open(filepath.Join(t.TempDir(), "g.db"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	disk, err := OpenGraph(st, "g")
	if err != nil {
		t.Fatal(err)
	}

	for i, op := range ops {
		if i%5 == 4 {
			rm, rd := mem.Remove(op), disk.Remove(op)
			if rm != rd {
				t.Fatalf("op %d: remove mem=%v disk=%v", i, rm, rd)
			}
			continue
		}
		am, ad := mem.Add(op), disk.Add(op)
		if am != ad {
			t.Fatalf("op %d: add mem=%v disk=%v", i, am, ad)
		}
	}

	render := func(ts []Triple) []string {
		out := make([]string, len(ts))
		for i, tr := range ts {
			out[i] = tr.String()
		}
		sort.Strings(out)
		return out
	}
	// Each position ranges over the wildcard, its whole vocabulary and
	// one absent term, so all eight wildcard shapes are checked for
	// every constant.
	vocab := func(prefix string, n int) []Term {
		out := []Term{{}, NewIRI("absent")}
		for i := 0; i < n; i++ {
			out = append(out, NewIRI(fmt.Sprintf("%s%d", prefix, i)))
		}
		return out
	}
	subjects, preds, objects := vocab("s", 12), vocab("p", 5), vocab("o", 12)
	check := func(phase string) {
		t.Helper()
		if mem.Size() != disk.Size() {
			t.Fatalf("%s: size mem=%d disk=%d", phase, mem.Size(), disk.Size())
		}
		for _, s := range subjects {
			for _, p := range preds {
				for _, o := range objects {
					gm := render(mem.Match(s, p, o))
					gd := render(disk.Match(s, p, o))
					if fmt.Sprint(gm) != fmt.Sprint(gd) {
						t.Fatalf("%s: pattern (%v %v %v): mem %d triples, disk %d triples\nmem:  %v\ndisk: %v",
							phase, s, p, o, len(gm), len(gd), gm, gd)
					}
					cm, cd := mem.CountMatch(s, p, o), disk.CountMatch(s, p, o)
					if cm != len(gm) || cd != len(gd) {
						t.Fatalf("%s: pattern (%v %v %v): count mem=%d disk=%d, match=%d",
							phase, s, p, o, cm, cd, len(gm))
					}
				}
			}
		}
		pm, pd := render(triplesFromTerms(mem.Properties())), render(triplesFromTerms(disk.Properties()))
		if fmt.Sprint(pm) != fmt.Sprint(pd) {
			t.Fatalf("%s: properties mem=%v disk=%v", phase, pm, pd)
		}
		if err := disk.StoreErr(); err != nil {
			t.Fatalf("%s: store error: %v", phase, err)
		}
	}
	check("random workload")

	p2 := NewIRI("p2")
	gone := mem.Match(Term{}, p2, Term{})
	if len(gone) == 0 {
		t.Fatal("workload left no p2 triples to remove")
	}
	if rm, rd := len(mem.RemoveBatch(gone)), len(disk.RemoveBatch(gone)); rm != len(gone) || rd != len(gone) {
		t.Fatalf("removed mem=%d disk=%d of %d p2 triples", rm, rd, len(gone))
	}
	if n, ok := mem.be.(*mapTriples).perPred[mem.dict.Lookup(p2)]; ok {
		t.Fatalf("p2's per-predicate count survived at %d after its last triple went", n)
	}
	check("predicate removed")
	if am, ad := mem.AddAll(gone[:len(gone)/2]), disk.AddAll(gone[:len(gone)/2]); am != len(gone)/2 || ad != am {
		t.Fatalf("re-added mem=%d disk=%d of %d p2 triples", am, ad, len(gone)/2)
	}
	check("predicate re-added")

	// Multi-leaf phase: one predicate with 3,000 subjects spans dozens
	// of B-tree leaves in all three permutations (the workload above
	// fits in a few). Deleting a contiguous run of them empties whole
	// leaves, which deletes leave in the tree.
	pBig, oBig := NewIRI("pbig"), NewIRI("obig")
	big := make([]Triple, 3000)
	for i := range big {
		big[i] = Triple{NewIRI(fmt.Sprintf("b%d", i)), pBig, oBig}
	}
	if am, ad := mem.AddAll(big), disk.AddAll(big); am != len(big) || ad != am {
		t.Fatalf("added mem=%d disk=%d of %d big-predicate triples", am, ad, len(big))
	}
	preds = append(preds, pBig)
	objects = append(objects, oBig)
	for i := 0; i < len(big); i += 97 {
		subjects = append(subjects, big[i].S)
	}
	check("one predicate over many leaves")
	if rm, rd := len(mem.RemoveBatch(big[500:2500])), len(disk.RemoveBatch(big[500:2500])); rm != 2000 || rd != rm {
		t.Fatalf("removed mem=%d disk=%d of 2000 big-predicate triples", rm, rd)
	}
	check("contiguous delete")
}

func triplesFromTerms(ts []Term) []Triple {
	out := make([]Triple, len(ts))
	for i, tm := range ts {
		out[i] = Triple{tm, tm, tm}
	}
	return out
}

func TestBackendsSubjectsObjectsProperties(t *testing.T) {
	runBothGraphs(t, func(t *testing.T, g *Graph) {
		g.AddAll([]Triple{
			tri("a", "knows", "b"),
			tri("a", "knows", "c"),
			tri("b", "knows", "c"),
			tri("a", "likes", "c"),
		})
		subj := g.Match(Term{}, NewIRI("knows"), NewIRI("c"))
		// Match leaves the order unspecified (map iteration on the map backend).
		sort.Slice(subj, func(i, j int) bool { return subj[i].S.Value < subj[j].S.Value })
		if len(subj) != 2 || subj[0].S.Value != "a" || subj[1].S.Value != "b" {
			t.Fatalf("subjects = %v", subj)
		}
		obj := g.Objects(NewIRI("a"), NewIRI("knows"))
		if len(obj) != 2 || obj[0].Value != "b" || obj[1].Value != "c" {
			t.Fatalf("objects = %v", obj)
		}
		props := g.Properties()
		if len(props) != 2 || props[0].Value != "knows" || props[1].Value != "likes" {
			t.Fatalf("properties = %v", props)
		}
	})
}

func TestBackendsSaturate(t *testing.T) {
	runBothGraphs(t, func(t *testing.T, g *Graph) {
		sub := NewIRI(RDFSSubClassOf)
		typ := NewIRI(RDFType)
		g.AddAll([]Triple{
			{NewIRI("Dog"), sub, NewIRI("Mammal")},
			{NewIRI("Mammal"), sub, NewIRI("Animal")},
			{NewIRI("rex"), typ, NewIRI("Dog")},
		})
		SaturateInPlace(g)
		for _, want := range []Triple{
			{NewIRI("Dog"), sub, NewIRI("Animal")},
			{NewIRI("rex"), typ, NewIRI("Mammal")},
			{NewIRI("rex"), typ, NewIRI("Animal")},
		} {
			if !g.Contains(want) {
				t.Fatalf("saturation missing %v", want)
			}
		}
	})
}

func TestStoreGraphPersistAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.db")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := OpenGraph(st, "g")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 500; i++ {
		tr := tri(fmt.Sprintf("s%d", i%50), fmt.Sprintf("p%d", i%7), fmt.Sprintf("o%d", i))
		g.Add(tr)
		want = append(want, tr.String())
	}
	sort.Strings(want)
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	g2, err := OpenGraph(st2, "g")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Size() != 500 {
		t.Fatalf("reopened size = %d, want 500", g2.Size())
	}
	var got []string
	for _, tr := range g2.Triples() {
		got = append(got, tr.String())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("reopened triple set differs")
	}
	// Pattern probes still work after reopen (dictionary IDs rebuilt).
	if n := g2.CountMatch(NewIRI("s3"), Term{}, Term{}); n == 0 {
		t.Fatal("reopened graph: subject probe found nothing")
	}
}

// TestConcurrentReadFailuresKeepFirstError runs pattern counts and
// matches from several goroutines on a store-backed graph whose page
// reads all fail (a small cache, read after the store closed). Each
// reader records the failure under the graph's shared read lock; under
// -race that must be race-free, and StoreErr reports an error after.
func TestConcurrentReadFailuresKeepFirstError(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "g.db"), store.Options{Pager: pager.Options{CacheSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := OpenGraph(st, "g")
	if err != nil {
		t.Fatal(err)
	}
	preds := []Term{NewIRI("p0"), NewIRI("p1"), NewIRI("p2")}
	for i := 0; i < 3000; i++ {
		g.Add(Triple{NewIRI(fmt.Sprintf("s%d", i)), preds[i%3], NewIRI("o")})
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	// Counting once puts the predicates in the dictionary's hot cache,
	// so the probes below reach the triple backend without a page read.
	for _, p := range preds {
		if n := g.CountMatch(Term{}, p, Term{}); n != 1000 {
			t.Fatalf("count %v = %d before close, want 1000", p, n)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The readers start together and yield after each probe, so a
	// failure is recorded while other readers are between locks: the
	// record is then ordered after no lock they took.
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				p := preds[(w+i)%len(preds)]
				if n := g.CountMatch(Term{}, p, Term{}); n != 0 {
					t.Errorf("count %v = %d on a closed store", p, n)
				}
				runtime.Gosched()
				if ts := g.Match(Term{}, p, Term{}); len(ts) != 0 {
					t.Errorf("match %v = %d triples on a closed store", p, len(ts))
				}
				runtime.Gosched()
			}
		}()
	}
	close(start)
	wg.Wait()
	if err := g.StoreErr(); err == nil {
		t.Fatal("reads of a closed store left no StoreErr")
	}
}
