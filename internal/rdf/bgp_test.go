package rdf

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// mustParseBGP is ParseBGP panicking on error.
func mustParseBGP(input string, prefixes map[string]string) BGP {
	q, err := ParseBGP(input, prefixes)
	if err != nil {
		panic(err)
	}
	return q
}

// sortRows orders s's rows lexically by their term keys, for
// comparisons that must not depend on evaluation order.
func sortRows(s *Solutions) {
	sort.Slice(s.Rows, func(i, j int) bool {
		a, b := s.Rows[i], s.Rows[j]
		for k := range a {
			if ka, kb := a[k].Key(), b[k].Key(); ka != kb {
				return ka < kb
			}
		}
		return false
	})
}

// politicsGraph builds a small custom graph like Figure 1's.
func politicsGraph() *Graph {
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://t.example/> .
@prefix pol: <http://t.example/pol/> .
pol:POL01140 a :politician ;
  :position :headOfState ;
  foaf:name "François Hollande" ;
  :twitterAccount "fhollande" .
pol:POL02 a :politician ;
  :position :deputy ;
  foaf:name "Jean Dupont" ;
  :twitterAccount "jdupont" ;
  :memberOf :PartyA .
pol:POL03 a :politician ;
  :position :senator ;
  foaf:name "Anne Martin" ;
  :twitterAccount "amartin" ;
  :memberOf :PartyB .
:PartyA :currentOf :left .
:PartyB :currentOf :right .
`))
	return g
}

func TestEvaluateSinglePattern(t *testing.T) {
	g := politicsGraph()
	q := mustParseBGP(`q(?x) :- ?x a <http://t.example/politician>`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 3 {
		t.Errorf("got %d politicians, want 3", sols.Len())
	}
}

func TestEvaluateQGFromPaper(t *testing.T) {
	// qG(id) :- ?x position headOfState, ?x twitterAccount ?id  (§2.2)
	g := politicsGraph()
	q := mustParseBGP(
		`q(?id) :- ?x <http://t.example/position> <http://t.example/headOfState> . ?x <http://t.example/twitterAccount> ?id`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 1 || sols.Rows[0][0] != NewLiteral("fhollande") {
		t.Errorf("qG result: %+v", sols.Rows)
	}
}

func TestEvaluateJoinAcrossPatterns(t *testing.T) {
	g := politicsGraph()
	q := mustParseBGP(`q(?name, ?cur) :-
?x <http://t.example/memberOf> ?p .
?p <http://t.example/currentOf> ?cur .
?x foaf:name ?name`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 2 {
		t.Fatalf("got %d rows, want 2: %v", sols.Len(), sols.Rows)
	}
	sortRows(sols)
	if sols.Rows[0][0] != NewLiteral("Anne Martin") || sols.Rows[0][1] != NewIRI("http://t.example/right") {
		t.Errorf("row 0: %v", sols.Rows[0])
	}
	if sols.Rows[1][0] != NewLiteral("Jean Dupont") || sols.Rows[1][1] != NewIRI("http://t.example/left") {
		t.Errorf("row 1: %v", sols.Rows[1])
	}
}

func TestEvaluateNoMatches(t *testing.T) {
	g := politicsGraph()
	q := mustParseBGP(`q(?x) :- ?x <http://t.example/position> <http://t.example/astronaut>`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 0 {
		t.Errorf("expected empty result, got %v", sols.Rows)
	}
}

func TestEvaluateHeadValidation(t *testing.T) {
	q := BGP{
		Head:     []string{"missing"},
		Patterns: []TriplePattern{{Variable("x"), Constant(NewIRI("p")), Variable("y")}},
	}
	if _, err := Evaluate(NewGraph(), q); err == nil {
		t.Error("expected error for head variable not in body")
	}
}

func TestEvaluateEmptyHeadProjectsAll(t *testing.T) {
	g := politicsGraph()
	q := mustParseBGP(`?x <http://t.example/memberOf> ?p`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols.Vars) != 2 || sols.Vars[0] != "x" || sols.Vars[1] != "p" {
		t.Errorf("vars: %v", sols.Vars)
	}
	if sols.Len() != 2 {
		t.Errorf("rows: %d", sols.Len())
	}
}

func TestEvaluateRepeatedVariableInPattern(t *testing.T) {
	g := NewGraph()
	g.AddAll(MustParse(`@prefix : <http://e/> .
:a :p :a .
:a :p :b .
:b :p :b .
:c :p :d .`))
	q := mustParseBGP(`q(?x) :- ?x <http://e/p> ?x`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 2 {
		t.Fatalf("self-loops: got %d, want 2 (%v)", sols.Len(), sols.Rows)
	}
}

func TestEvaluateVariablePredicate(t *testing.T) {
	g := politicsGraph()
	q := mustParseBGP(`q(?p, ?o) :- <http://t.example/pol/POL01140> ?p ?o`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 4 {
		t.Errorf("POL01140 has %d property-values, want 4", sols.Len())
	}
}

func TestEvaluateCartesianProduct(t *testing.T) {
	// Disconnected patterns produce a cross product.
	g := NewGraph()
	g.AddAll(MustParse(`@prefix : <http://e/> .
:a :p :b . :c :p :d .
:x :q :y . :z :q :w .`))
	q := mustParseBGP(`q(?a, ?b) :- ?a <http://e/p> ?u . ?b <http://e/q> ?v`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 4 {
		t.Errorf("cross product size %d, want 4", sols.Len())
	}
}

func TestEvaluateBoundConstantAbsentFromDict(t *testing.T) {
	g := politicsGraph()
	q := mustParseBGP(`q(?x) :- ?x <http://never.seen/prop> ?y`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 0 {
		t.Error("unknown constant should yield empty result")
	}
}

func TestBGPStringRoundTrip(t *testing.T) {
	q := mustParseBGP(`q(?x, ?id) :- ?x <http://t/p> ?id . ?x a <http://t/C>`, nil)
	q2, err := ParseBGP(q.String(), nil)
	if err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("round trip: %q vs %q", q2.String(), q.String())
	}
}

// Property: evaluation order must not affect the result set. We compare
// the default (selectivity-ordered) evaluation against evaluation of the
// patterns in every rotation.
func TestEvaluateOrderIndependenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		names := []string{"a", "b", "c", "d"}
		for i := 0; i < 30; i++ {
			g.Add(Triple{
				NewIRI("http://e/" + names[rng.Intn(4)]),
				NewIRI("http://e/p" + fmt.Sprint(rng.Intn(3))),
				NewIRI("http://e/" + names[rng.Intn(4)]),
			})
		}
		base := mustParseBGP(`q(?x, ?z) :- ?x <http://e/p0> ?y . ?y <http://e/p1> ?z`, nil)
		want, err := Evaluate(g, base)
		if err != nil {
			return false
		}
		sortRows(want)
		rotated := BGP{Head: base.Head, Patterns: []TriplePattern{base.Patterns[1], base.Patterns[0]}}
		got, err := Evaluate(g, rotated)
		if err != nil {
			return false
		}
		sortRows(got)
		if got.Len() != want.Len() {
			return false
		}
		for i := range got.Rows {
			for j := range got.Rows[i] {
				if got.Rows[i][j] != want.Rows[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParseBGPErrors(t *testing.T) {
	cases := []string{
		`q(?x :- ?x <p> ?y`,             // malformed head
		`q(?x) :- ?x <http://e/p>`,      // incomplete pattern
		`q(?zzz) :- ?x <http://e/p> ?y`, // head var not in body
		`q(?x) :- ?x und:p ?y`,          // undeclared prefix
	}
	for _, c := range cases {
		if _, err := ParseBGP(c, nil); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestParseBGPCustomPrefix(t *testing.T) {
	q, err := ParseBGP(`q(?x) :- ?x ex:p ex:o`, map[string]string{"ex": "http://custom/"})
	if err != nil {
		t.Fatal(err)
	}
	if q.Patterns[0].P.Term != NewIRI("http://custom/p") {
		t.Errorf("custom prefix: %v", q.Patterns[0].P)
	}
}
