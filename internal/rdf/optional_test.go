package rdf

import (
	"strings"
	"testing"
)

func optionalGraph() *Graph {
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://e/> .
:p1 :name "Hollande" ; :twitter "fh" ; :facebook "fb.h" .
:p2 :name "Dupont" ; :twitter "jd" .
:p3 :name "Martin" .
`))
	return g
}

func TestOptionalBasic(t *testing.T) {
	g := optionalGraph()
	q := mustParseBGP(`q(?n, ?tw) :- ?x <http://e/name> ?n . OPTIONAL { ?x <http://e/twitter> ?tw }`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 3 {
		t.Fatalf("rows: %+v", sols.Rows)
	}
	sortRows(sols)
	// Martin has no twitter → unbound (zero Term).
	byName := map[string]Term{}
	for _, row := range sols.Rows {
		byName[row[0].Value] = row[1]
	}
	if byName["Hollande"] != NewLiteral("fh") || byName["Dupont"] != NewLiteral("jd") {
		t.Errorf("bound optional: %+v", byName)
	}
	if !byName["Martin"].IsZero() {
		t.Errorf("Martin's twitter should be unbound: %v", byName["Martin"])
	}
}

func TestOptionalMultipleGroups(t *testing.T) {
	g := optionalGraph()
	q := mustParseBGP(`q(?n, ?tw, ?fb) :- ?x <http://e/name> ?n .
		OPTIONAL { ?x <http://e/twitter> ?tw } .
		OPTIONAL { ?x <http://e/facebook> ?fb }`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 3 {
		t.Fatalf("rows: %+v", sols.Rows)
	}
	for _, row := range sols.Rows {
		switch row[0].Value {
		case "Hollande":
			if row[1].IsZero() || row[2].IsZero() {
				t.Errorf("Hollande row: %+v", row)
			}
		case "Dupont":
			if row[1].IsZero() || !row[2].IsZero() {
				t.Errorf("Dupont row: %+v", row)
			}
		case "Martin":
			if !row[1].IsZero() || !row[2].IsZero() {
				t.Errorf("Martin row: %+v", row)
			}
		}
	}
}

func TestOptionalJoinsOnSharedVar(t *testing.T) {
	// The optional group shares ?x with the required part — it must
	// constrain per solution, not globally.
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://e/> .
:a :p :b . :a :q :c .
:d :p :e .
`))
	q := mustParseBGP(`q(?x, ?o) :- ?x <http://e/p> ?y . OPTIONAL { ?x <http://e/q> ?o }`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 2 {
		t.Fatalf("rows: %+v", sols.Rows)
	}
	for _, row := range sols.Rows {
		if row[0] == NewIRI("http://e/a") && row[1] != NewIRI("http://e/c") {
			t.Errorf("a's optional should bind c: %+v", row)
		}
		if row[0] == NewIRI("http://e/d") && !row[1].IsZero() {
			t.Errorf("d's optional should be unbound: %+v", row)
		}
	}
}

func TestOptionalMultiplicity(t *testing.T) {
	// Matching optional with several embeddings multiplies rows.
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://e/> .
:a :p :x . :a :q :o1 . :a :q :o2 .
`))
	q := mustParseBGP(`q(?x, ?o) :- ?x <http://e/p> ?y . OPTIONAL { ?x <http://e/q> ?o }`, nil)
	sols, _ := Evaluate(g, q)
	if sols.Len() != 2 {
		t.Errorf("multiplicity: %+v", sols.Rows)
	}
}

func TestOptionalStringRoundTrip(t *testing.T) {
	q := mustParseBGP(`q(?n, ?tw) :- ?x <http://e/name> ?n . OPTIONAL { ?x <http://e/twitter> ?tw }`, nil)
	s := q.String()
	if !strings.Contains(s, "OPTIONAL { ") {
		t.Fatalf("render: %s", s)
	}
	q2, err := ParseBGP(s, nil)
	if err != nil {
		t.Fatalf("reparse %q: %v", s, err)
	}
	if len(q2.Optionals) != 1 || len(q2.Optionals[0]) != 1 {
		t.Errorf("round trip optionals: %+v", q2.Optionals)
	}
}

func TestOptionalParseErrors(t *testing.T) {
	cases := []string{
		`q(?n) :- ?x <http://e/name> ?n . OPTIONAL ?x <http://e/t> ?tw`,   // missing {
		`q(?n) :- ?x <http://e/name> ?n . OPTIONAL { ?x <http://e/t> ?tw`, // unterminated
		`q(?n) :- ?x <http://e/name> ?n . OPTIONAL { }`,                   // empty
	}
	for _, c := range cases {
		if _, err := ParseBGP(c, nil); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestOptionalHeadOnlyVariable(t *testing.T) {
	// A head variable appearing only in an OPTIONAL group is valid.
	g := optionalGraph()
	q, err := ParseBGP(`q(?tw) :- ?x <http://e/name> ?n . OPTIONAL { ?x <http://e/twitter> ?tw }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 3 {
		t.Errorf("rows: %+v", sols.Rows)
	}
}

func TestOptionalWordNotConfusedWithIRI(t *testing.T) {
	// A subject whose local name contains "optional" must not trigger
	// OPTIONAL parsing.
	g := NewGraph()
	g.AddAll(MustParse(`@prefix : <http://e/> . :optionalThing :p :o .`))
	q, err := ParseBGP(`q(?s) :- ?s <http://e/p> <http://e/o>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	sols, _ := Evaluate(g, q)
	if sols.Len() != 1 {
		t.Errorf("rows: %+v", sols.Rows)
	}
}
