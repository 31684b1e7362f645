package rdf

import (
	"fmt"
	"math/rand"
	"testing"
)

// graphFromPaper builds the running example of §2.1: journalists are
// employees, worksFor ⊑ paidBy, foundedIn has domain Organization,
// worksFor has range Organization.
func graphFromPaper() *Graph {
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://tatooine.example/> .
:LeMonde :foundedIn "1944" .
:Samuel :worksFor :LeMonde .
:Samuel a :Journalist .
:Journalist rdfs:subClassOf :Employee .
:worksFor rdfs:subPropertyOf :paidBy .
:foundedIn rdfs:domain :Organization .
:worksFor rdfs:range :Organization .
`))
	return g
}

func iri(s string) Term { return NewIRI("http://tatooine.example/" + s) }

func TestSaturatePaperExample(t *testing.T) {
	g := graphFromPaper()
	got := Saturate(g)

	// The paper lists exactly these implicit triples (§2.1).
	wantImplicit := []Triple{
		{iri("Samuel"), iri("paidBy"), iri("LeMonde")},
		{iri("Samuel"), NewIRI(RDFType), iri("Employee")},
		{iri("LeMonde"), NewIRI(RDFType), iri("Organization")},
	}
	for _, tri := range wantImplicit {
		if !got.Contains(tri) {
			t.Errorf("saturation missing implicit triple %v", tri)
		}
	}
	// Original graph must be untouched.
	for _, tri := range wantImplicit {
		if g.Contains(tri) {
			t.Errorf("Saturate mutated its input: found %v", tri)
		}
	}
	if derived := got.Size() - g.Size(); derived < len(wantImplicit) {
		t.Errorf("Derived = %d, want at least %d", derived, len(wantImplicit))
	}
}

func TestSaturateSubClassTransitivity(t *testing.T) {
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://e/> .
:A rdfs:subClassOf :B .
:B rdfs:subClassOf :C .
:C rdfs:subClassOf :D .
:x a :A .
`))
	got := Saturate(g)
	for _, c := range []string{"B", "C", "D"} {
		if !got.Contains(Triple{NewIRI("http://e/x"), NewIRI(RDFType), NewIRI("http://e/" + c)}) {
			t.Errorf("x should be typed %s", c)
		}
	}
	// rdfs11: A subClassOf D must be derived.
	if !got.Contains(Triple{NewIRI("http://e/A"), NewIRI(RDFSSubClassOf), NewIRI("http://e/D")}) {
		t.Error("missing transitive subClassOf A->D")
	}
}

func TestSaturateSubClassCycle(t *testing.T) {
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://e/> .
:A rdfs:subClassOf :B .
:B rdfs:subClassOf :A .
:x a :A .
`))
	got := Saturate(g) // must terminate
	if !got.Contains(Triple{NewIRI("http://e/x"), NewIRI(RDFType), NewIRI("http://e/B")}) {
		t.Error("cycle member typing missing")
	}
}

// TestSaturateSubClassCycleReflexive: transitivity around a cycle
// entails the reflexive edges (A ⊑ B, B ⊑ A ⟹ A ⊑ A), which the
// incremental delta rules derive — the full fixpoint must agree.
func TestSaturateSubClassCycleReflexive(t *testing.T) {
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://e/> .
:A rdfs:subClassOf :B .
:B rdfs:subClassOf :C .
:C rdfs:subClassOf :A .
:x a :A .
`))
	got := Saturate(g)
	for _, c := range []string{"A", "B", "C"} {
		if !got.Contains(Triple{NewIRI("http://e/" + c), NewIRI(RDFSSubClassOf), NewIRI("http://e/" + c)}) {
			t.Errorf("cycle member %s should be its own subclass in the closure", c)
		}
		if !got.Contains(Triple{NewIRI("http://e/x"), NewIRI(RDFType), NewIRI("http://e/" + c)}) {
			t.Errorf("x should be typed %s through the cycle", c)
		}
	}
}

// TestSaturateSubPropertyCycle: a subPropertyOf cycle must terminate
// and propagate data triples to every property on the cycle.
func TestSaturateSubPropertyCycle(t *testing.T) {
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://e/> .
:p rdfs:subPropertyOf :q .
:q rdfs:subPropertyOf :p .
:s :p :o .
`))
	got := Saturate(g) // must terminate
	if !got.Contains(Triple{NewIRI("http://e/s"), NewIRI("http://e/q"), NewIRI("http://e/o")}) {
		t.Error("data triple not propagated around the subPropertyOf cycle")
	}
	if !got.Contains(Triple{NewIRI("http://e/p"), NewIRI(RDFSSubPropertyOf), NewIRI("http://e/p")}) {
		t.Error("reflexive subPropertyOf edge missing from the cycle closure")
	}
}

// TestSaturateSelfSubProperty: a property that is its own sub-property
// must not send the fixpoint into an infinite loop, and must derive
// nothing beyond what is already there.
func TestSaturateSelfSubProperty(t *testing.T) {
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://e/> .
:p rdfs:subPropertyOf :p .
:s :p :o .
`))
	sat := Saturate(g) // must terminate
	if sat.Size() != g.Size() {
		t.Errorf("saturation size %d != input size %d", sat.Size(), g.Size())
	}
}

func TestSaturateSubPropertyChainFeedsDomain(t *testing.T) {
	// rdfs7 output must feed rdfs2: p ⊑ q, q has domain C, s p o ⟹ s type C.
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://e/> .
:p rdfs:subPropertyOf :q .
:q rdfs:domain :C .
:s :p :o .
`))
	got := Saturate(g)
	if !got.Contains(Triple{NewIRI("http://e/s"), NewIRI(RDFType), NewIRI("http://e/C")}) {
		t.Error("rdfs7 ∘ rdfs2 composition missing")
	}
}

func TestSaturateRangeSkipsLiterals(t *testing.T) {
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://e/> .
:name rdfs:range :Label .
:s :name "plain string" .
:s :name :uriValue .
`))
	got := Saturate(g)
	if got.Contains(Triple{NewLiteral("plain string"), NewIRI(RDFType), NewIRI("http://e/Label")}) {
		t.Error("literal must not be typed by rdfs3")
	}
	if !got.Contains(Triple{NewIRI("http://e/uriValue"), NewIRI(RDFType), NewIRI("http://e/Label")}) {
		t.Error("IRI object should be typed by rdfs3")
	}
}

func TestSaturateIdempotent(t *testing.T) {
	g := graphFromPaper()
	once := Saturate(g)
	twice := Saturate(once)
	if twice.Size() != once.Size() {
		t.Errorf("sizes differ: %d vs %d", twice.Size(), once.Size())
	}
}

func TestSaturateInPlace(t *testing.T) {
	g := graphFromPaper()
	before := g.Size()
	n := SaturateInPlace(g)
	if n <= 0 {
		t.Fatal("expected derivations")
	}
	if g.Size() != before+n {
		t.Errorf("size %d != before %d + derived %d", g.Size(), before, n)
	}
}

func TestSaturateNoSchemaNoop(t *testing.T) {
	g := NewGraph()
	g.AddAll(MustParse(`@prefix : <http://e/> . :a :p :b . :b :q :c .`))
	sat := Saturate(g)
	if derived := sat.Size() - g.Size(); derived != 0 {
		t.Errorf("derived %d from schema-free graph", derived)
	}
}

func TestAnswerUsesSaturation(t *testing.T) {
	g := graphFromPaper()
	q := mustParseBGP(`q(?who) :- ?who <http://tatooine.example/paidBy> <http://tatooine.example/LeMonde>`, nil)
	sols, err := Evaluate(Saturate(g), q)
	if err != nil {
		t.Fatal(err)
	}
	if sols.Len() != 1 || sols.Rows[0][0] != iri("Samuel") {
		t.Errorf("Evaluate over G∞: %+v", sols.Rows)
	}
	// Plain Evaluate must not see the implicit triple.
	plain, err := Evaluate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != 0 {
		t.Errorf("Evaluate without saturation returned %d rows", plain.Len())
	}
}

// randomRuleGraph draws a small-vocabulary graph in which the rules
// fire often: schema properties are as likely as data ones, subjects
// and objects include properties and the vocabulary itself (meta-schema
// triples such as p rdfs:subPropertyOf rdfs:subClassOf), objects
// include literals, and the small pool makes cycles and self-loops
// common.
func randomRuleGraph(rng *rand.Rand) []Triple {
	vocab := []Term{NewIRI(RDFType), NewIRI(RDFSSubClassOf), NewIRI(RDFSSubPropertyOf), NewIRI(RDFSDomain), NewIRI(RDFSRange)}
	props := append([]Term{iri("p0"), iri("p1"), iri("p2")}, vocab...)
	nodes := append([]Term{iri("n0"), iri("n1"), iri("n2"), iri("n3")}, props...)
	objects := append([]Term{NewLiteral("l0"), NewLiteral("l1")}, nodes...)
	ts := make([]Triple, 2+rng.Intn(14))
	for i := range ts {
		ts[i] = Triple{nodes[rng.Intn(len(nodes))], props[rng.Intn(len(props))], objects[rng.Intn(len(objects))]}
	}
	return ts
}

func sameTriples(a, b *Graph) bool {
	return fmt.Sprint(a.Triples()) == fmt.Sprint(b.Triples())
}

// TestRulesMatchReference checks the rule table against the
// hand-written fixpoint it replaced, on random graphs: whole-graph
// saturation, delta propagation into a saturated part, and the
// backward evaluator (a derived triple has a support other than
// itself, and a supported triple is entailed by the rest).
func TestRulesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		ts := randomRuleGraph(rng)
		g := NewGraph()
		g.AddAll(ts)
		want := referenceSaturate(g)
		got := Saturate(g)
		if !sameTriples(got, want) {
			t.Fatalf("graph %d %v:\nSaturate  %v\nreference %v", i, ts, got.Triples(), want.Triples())
		}

		cut := rng.Intn(len(ts) + 1)
		a := NewGraph()
		a.AddAll(ts[:cut])
		inc := Saturate(a)
		Propagate(inc, ts[cut:])
		if !sameTriples(inc, want) {
			t.Fatalf("graph %d: Propagate(Saturate(%v), %v):\ngot  %v\nwant %v", i, ts[:cut], ts[cut:], inc.Triples(), want.Triples())
		}

		for _, u := range got.Triples() {
			dead := map[Triple]struct{}{u: {}}
			supported := DerivableExcept(got, u, dead)
			if !g.Contains(u) && !supported {
				t.Fatalf("graph %d: derived %v has no support but itself", i, u)
			}
			if supported {
				rest := got.Clone()
				rest.Remove(u)
				if !referenceSaturate(rest).Contains(u) {
					t.Fatalf("graph %d: %v supported but not entailed by the rest", i, u)
				}
			}
		}
	}
}
