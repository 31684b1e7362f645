package rdf

import (
	"strings"
	"testing"
)

func filterGraph() *Graph {
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://e/> .
:p1 :followers 1500000 .
:p1 foaf:name "François Hollande" .
:p2 :followers 12000 .
:p2 foaf:name "Jean Dupont" .
:p3 :followers 88000 .
:p3 foaf:name "Anne Martin" .
`))
	return g
}

func TestFilterNumericComparison(t *testing.T) {
	g := filterGraph()
	q := mustParseBGP(`q(?x, ?n) :- ?x <http://e/followers> ?n . FILTER(?n > 50000)`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 2 {
		t.Errorf("followers > 50000: %+v", sols.Rows)
	}
	qle := mustParseBGP(`q(?x) :- ?x <http://e/followers> ?n . FILTER(?n <= 12000)`, nil)
	sols, _ = Evaluate(g, qle)
	if sols.Len() != 1 {
		t.Errorf("followers <= 12000: %+v", sols.Rows)
	}
}

func TestFilterEqNe(t *testing.T) {
	g := filterGraph()
	q := mustParseBGP(`q(?x) :- ?x foaf:name ?n . FILTER(?n = "Jean Dupont")`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 1 || sols.Rows[0][0] != NewIRI("http://e/p2") {
		t.Errorf("name =: %+v", sols.Rows)
	}
	qne := mustParseBGP(`q(?x) :- ?x foaf:name ?n . FILTER(?n != "Jean Dupont")`, nil)
	sols, _ = Evaluate(g, qne)
	if sols.Len() != 2 {
		t.Errorf("name !=: %+v", sols.Rows)
	}
}

func TestFilterContains(t *testing.T) {
	g := filterGraph()
	q := mustParseBGP(`q(?x) :- ?x foaf:name ?n . FILTER(?n CONTAINS "hollande")`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 1 {
		t.Errorf("contains (case-insensitive): %+v", sols.Rows)
	}
}

func TestFilterMultiple(t *testing.T) {
	g := filterGraph()
	q := mustParseBGP(`q(?x) :- ?x <http://e/followers> ?n . ?x foaf:name ?name .
		FILTER(?n > 10000) . FILTER(?name CONTAINS "an")`, nil)
	sols, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	// Hollande (François: no "an"? "François Hollande" contains "an"? —
	// "Holl-an-de" yes), Dupont ("Je-an" yes), Martin ("Anne M-art-in":
	// "Anne" contains "an" case-insensitively). All three have n>10000.
	if sols.Len() != 3 {
		t.Errorf("multi filter: %+v", sols.Rows)
	}
	q2 := mustParseBGP(`q(?x) :- ?x <http://e/followers> ?n . ?x foaf:name ?name .
		FILTER(?n > 100000) . FILTER(?name CONTAINS "martin")`, nil)
	sols, _ = Evaluate(g, q2)
	if sols.Len() != 0 {
		t.Errorf("conjoined filters: %+v", sols.Rows)
	}
}

func TestFilterValidation(t *testing.T) {
	if _, err := ParseBGP(`q(?x) :- ?x <http://e/p> ?y . FILTER(?zz > 3)`, nil); err == nil {
		t.Error("filter on unbound variable accepted")
	}
}

func TestFilterParseErrors(t *testing.T) {
	cases := []string{
		`q(?x) :- ?x <http://e/p> ?y . FILTER ?y > 3)`,    // missing (
		`q(?x) :- ?x <http://e/p> ?y . FILTER(?y >< 3)`,   // bad operator
		`q(?x) :- ?x <http://e/p> ?y . FILTER(?y > 3`,     // unclosed
		`q(?x) :- ?x <http://e/p> ?y . FILTER(y > 3)`,     // missing ?
		`q(?x) :- ?x <http://e/p> ?y . FILTER(?y LIKE 3)`, // unknown op
	}
	for _, c := range cases {
		if _, err := ParseBGP(c, nil); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	q := mustParseBGP(`q(?x) :- ?x <http://e/followers> ?n . FILTER(?n >= 100)`, nil)
	if !strings.Contains(q.String(), "FILTER(?n >= ") {
		t.Fatalf("render: %s", q.String())
	}
	q2, err := ParseBGP(q.String(), nil)
	if err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
	if len(q2.Filters) != 1 || q2.Filters[0].Op != FilterGe {
		t.Errorf("round trip: %+v", q2.Filters)
	}
}

func TestFilterWithEvaluateBound(t *testing.T) {
	g := filterGraph()
	q := mustParseBGP(`q(?x, ?n) :- ?x <http://e/followers> ?n . FILTER(?n > 50000)`, nil)
	sols, err := EvaluateBound(g, q, Bindings{"x": NewIRI("http://e/p2")})
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 0 { // p2 has 12000 followers
		t.Errorf("bound + filter: %+v", sols.Rows)
	}
}

func TestFilterKeywordNotMistakenForPattern(t *testing.T) {
	// A subject named "FILTERx" must not be parsed as a FILTER clause.
	g := NewGraph()
	g.AddAll(MustParse(`@prefix : <http://e/> . :FILTERx :p :o .`))
	q, err := ParseBGP(`q(?s) :- ?s <http://e/p> <http://e/o>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	sols, _ := Evaluate(g, q)
	if sols.Len() != 1 {
		t.Errorf("rows: %+v", sols.Rows)
	}
}
