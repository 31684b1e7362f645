package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// sameSolutions reports how got and want differ as solutions (same
// columns, same row multiset), or "" when they agree.
func sameSolutions(got, want *Solutions) string {
	if fmt.Sprint(got.Vars) != fmt.Sprint(want.Vars) {
		return fmt.Sprintf("vars %v, reference %v", got.Vars, want.Vars)
	}
	render := func(s *Solutions) []string {
		out := make([]string, len(s.Rows))
		for i, row := range s.Rows {
			keys := make([]string, len(row))
			for j, t := range row {
				keys[j] = t.Key()
			}
			out[i] = strings.Join(keys, " | ")
		}
		sort.Strings(out)
		return out
	}
	g, w := render(got), render(want)
	if fmt.Sprint(g) != fmt.Sprint(w) {
		return fmt.Sprintf("%d rows, reference %d\ngot:       %q\nreference: %q", len(g), len(w), g, w)
	}
	return ""
}

// diffEvaluators runs EvaluateBound and the map reference on the same
// input and reports any difference in errors or solutions.
func diffEvaluators(g *Graph, q BGP, init Bindings) string {
	got, gerr := EvaluateBound(g, q, init)
	want, werr := referenceEvaluate(g, q, init)
	if (gerr == nil) != (werr == nil) {
		return fmt.Sprintf("error %v, reference error %v", gerr, werr)
	}
	if gerr != nil {
		return ""
	}
	return sameSolutions(got, want)
}

// randomBGPCase draws a BGP over the vocabulary of randomEvalGraph:
// repeated variables, variable predicates, constants the dictionary
// lacks, FILTERs, OPTIONAL groups, and init bindings that include
// missing terms and a head-only variable.
func randomBGPCase(rng *rand.Rand) (BGP, Bindings) {
	vars := []string{"a", "b", "c", "d"}
	node := func() Term {
		switch rng.Intn(10) {
		case 0:
			return NewIRI("http://e/missing")
		case 1, 2:
			return NewLiteral(fmt.Sprint(rng.Intn(4)))
		default:
			return NewIRI(fmt.Sprintf("http://e/n%d", rng.Intn(6)))
		}
	}
	pred := func() Term {
		if rng.Intn(12) == 0 {
			return NewIRI("http://e/nopred")
		}
		return NewIRI(fmt.Sprintf("http://e/p%d", rng.Intn(3)))
	}
	pos := func(varProb int, pool []string, constant func() Term) PatternTerm {
		if rng.Intn(10) < varProb {
			return Variable(pool[rng.Intn(len(pool))])
		}
		return Constant(constant())
	}
	pattern := func(pool []string) TriplePattern {
		return TriplePattern{S: pos(7, pool, node), P: pos(2, pool, pred), O: pos(6, pool, node)}
	}
	var q BGP
	for i := 1 + rng.Intn(4); i > 0; i-- {
		q.Patterns = append(q.Patterns, pattern(vars))
	}
	for i := rng.Intn(3); i > 0; i-- {
		var group []TriplePattern
		for j := 1 + rng.Intn(2); j > 0; j-- {
			group = append(group, pattern(append(vars, "e", "f")))
		}
		q.Optionals = append(q.Optionals, group)
	}
	body := q.AllVars()
	var init Bindings
	if rng.Intn(2) == 0 {
		init = Bindings{}
		for _, v := range append(body, "h") {
			if rng.Intn(3) == 0 {
				init[v] = node()
			}
		}
	}
	bindable := append([]string(nil), body...)
	for v := range init {
		if !slices.Contains(body, v) {
			bindable = append(bindable, v)
		}
	}
	if len(bindable) == 0 {
		return q, init
	}
	ops := []FilterOp{FilterEq, FilterNe, FilterLt, FilterLe, FilterGt, FilterGe, FilterContains}
	for i := rng.Intn(3); i > 0; i-- {
		q.Filters = append(q.Filters, Filter{
			Var:  bindable[rng.Intn(len(bindable))],
			Op:   ops[rng.Intn(len(ops))],
			Term: node(),
		})
	}
	if rng.Intn(3) > 0 {
		for i := 1 + rng.Intn(3); i > 0; i-- {
			q.Head = append(q.Head, bindable[rng.Intn(len(bindable))])
		}
	}
	return q, init
}

// randomEvalGraph fills g with a small random graph over six nodes,
// three predicates and four numeric literals.
func randomEvalGraph(rng *rand.Rand, g *Graph) {
	var ts []Triple
	for i := 20 + rng.Intn(40); i > 0; i-- {
		o := NewIRI(fmt.Sprintf("http://e/n%d", rng.Intn(6)))
		if rng.Intn(3) == 0 {
			o = NewLiteral(fmt.Sprint(rng.Intn(4)))
		}
		ts = append(ts, Triple{
			NewIRI(fmt.Sprintf("http://e/n%d", rng.Intn(6))),
			NewIRI(fmt.Sprintf("http://e/p%d", rng.Intn(3))),
			o,
		})
	}
	g.AddAll(ts)
}

// TestEvaluateMatchesMapReference checks the term-ID evaluator against
// the map-binding reference on random graphs and random BGPs, on both
// backends: same columns and the same row multiset for every query.
func TestEvaluateMatchesMapReference(t *testing.T) {
	runBothGraphs(t, func(t *testing.T, g *Graph) {
		rng := rand.New(rand.NewSource(7))
		randomEvalGraph(rng, g)
		const cases = 1500
		answered := 0
		for i := 0; i < cases; i++ {
			if i%300 == 299 {
				randomEvalGraph(rng, g) // grow the graph between rounds
			}
			q, init := randomBGPCase(rng)
			if d := diffEvaluators(g, q, init); d != "" {
				t.Fatalf("case %d: %v init=%v: %s", i, q, init, d)
			}
			if sols, err := EvaluateBound(g, q, init); err == nil && sols.Len() > 0 {
				answered++
			}
		}
		t.Logf("%d of %d cases have rows", answered, cases)
		if answered < cases/5 {
			t.Fatalf("only %d of %d cases have rows: the generator tests little", answered, cases)
		}
	})
}

// fuzzPrefixes are the prefixes FuzzParseBGP parses with.
var fuzzPrefixes = map[string]string{"": "http://t.example/", "pol": "http://t.example/pol/"}

// FuzzParseBGP parses arbitrary text as a BGP. When the parse succeeds
// and the query is small enough to enumerate, both evaluators run it
// on a small fixed graph, with and without init bindings, and must
// agree without panicking.
func FuzzParseBGP(f *testing.F) {
	for _, seed := range []string{
		`?x :position :headOfState . ?x :twitterAccount ?id`,
		`?x :position :headOfState . ?x :twitterAccount ?id . ?x :electedIn ?dept`,
		`?x :position :headOfState . ?x foaf:name ?name`,
		`?x :memberOf ?p . ?p :currentOf ?cur . ?x :twitterAccount ?id`,
		`pol:POL02 a :politician . pol:POL02 foaf:name ?name . pol:POL02 :memberOf ?party`,
		`q(?id, ?n) :- ?x :twitterAccount ?id . OPTIONAL { ?x :memberOf ?p . ?p :currentOf ?n }`,
		`q(?n) :- ?x foaf:name ?n . FILTER(?n CONTAINS "an") . FILTER(?n != "Anne Martin")`,
		`?x foaf:name "François \"le\" Hollande" . ?x ?p ?x`,
		`?x ?p ?x . ?y ?p ?y`,
		`q(?x) :- ?x ?p ?o . OPTIONAL { ?o :currentOf ?x } . FILTER(?o >= "b")`,
		`q(?x, ?missing) :- ?x :position :nowhere`,
		`q(?id) :- ?x :position :deputy . OPTIONAL { ?x :twitterAccount ?id } . FILTER(?id = "jdupont")`,
	} {
		f.Add(seed)
	}
	g := politicsGraph()
	f.Fuzz(func(t *testing.T, input string) {
		q, err := ParseBGP(input, fuzzPrefixes)
		if err != nil {
			return
		}
		n := len(q.Patterns)
		for _, grp := range q.Optionals {
			n += len(grp)
		}
		if n > 3 {
			return // cross products of more patterns take too long to enumerate
		}
		for _, init := range []Bindings{nil, {"id": NewLiteral("jdupont"), "z": NewIRI("http://t.example/nowhere")}} {
			if d := diffEvaluators(g, q, init); d != "" {
				t.Fatalf("%q init=%v: %s", input, init, d)
			}
		}
	})
}

// TestEvaluateInitTermOutsideDictionary pins the init rules the slot
// evaluator must keep: a term the dictionary lacks matches nothing in
// a pattern, yet a head-only init variable still projects its term.
func TestEvaluateInitTermOutsideDictionary(t *testing.T) {
	g := politicsGraph()
	q := mustParseBGP(`?x <http://t.example/twitterAccount> ?id`, nil)
	q.Head = []string{"id", "tag"}
	tag := NewLiteral("never interned")
	sols, err := EvaluateBound(g, q, Bindings{"tag": tag})
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 3 {
		t.Fatalf("rows = %v, want 3", sols.Rows)
	}
	for _, row := range sols.Rows {
		if row[1] != tag {
			t.Fatalf("head-only init column = %v, want %v", row[1], tag)
		}
	}
	sols, err = EvaluateBound(g, q, Bindings{"id": NewLiteral("nobody"), "tag": tag})
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 0 {
		t.Fatalf("an init term outside the dictionary matched: %v", sols.Rows)
	}
}
