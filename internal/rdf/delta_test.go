package rdf

import (
	"testing"
)

func tripleSet(ts []Triple) map[Triple]struct{} {
	out := make(map[Triple]struct{}, len(ts))
	for _, t := range ts {
		out[t] = struct{}{}
	}
	return out
}

func TestSchemaTriple(t *testing.T) {
	x, y := iri("x"), iri("y")
	for _, tc := range []struct {
		p    Term
		want bool
	}{
		{NewIRI(RDFSSubClassOf), true},
		{NewIRI(RDFSSubPropertyOf), true},
		{NewIRI(RDFSDomain), true},
		{NewIRI(RDFSRange), true},
		{NewIRI(RDFType), false},
		{iri("worksFor"), false},
	} {
		if got := SchemaTriple(Triple{x, tc.p, y}); got != tc.want {
			t.Errorf("SchemaTriple(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestDeltaConsequencesDataTriple: a new data triple joined against the
// saturated schema fires rdfs7, rdfs2 and rdfs3 in one step.
func TestDeltaConsequencesDataTriple(t *testing.T) {
	sat := Saturate(graphFromPaper())
	delta := Triple{iri("Marie"), iri("worksFor"), iri("Figaro")}

	var got []Triple
	DeltaConsequences(sat, delta, func(c Triple) { got = append(got, c) })
	set := tripleSet(got)

	for _, want := range []Triple{
		{iri("Marie"), iri("paidBy"), iri("Figaro")},          // rdfs7
		{iri("Figaro"), NewIRI(RDFType), iri("Organization")}, // rdfs3
	} {
		if _, ok := set[want]; !ok {
			t.Errorf("consequences of %v missing %v (got %v)", delta, want, got)
		}
	}
}

// TestDeltaConsequencesSchemaTriple: a new subClassOf edge re-types
// existing instances (rdfs9 with the delta as the schema premise) and
// splices into the existing hierarchy (rdfs11, both positions).
func TestDeltaConsequencesSchemaTriple(t *testing.T) {
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://tatooine.example/> .
:Employee rdfs:subClassOf :Person .
:Samuel a :Journalist .
`))
	sat := Saturate(g)
	delta := Triple{iri("Journalist"), NewIRI(RDFSSubClassOf), iri("Employee")}

	var got []Triple
	DeltaConsequences(sat, delta, func(c Triple) { got = append(got, c) })
	set := tripleSet(got)

	for _, want := range []Triple{
		{iri("Samuel"), NewIRI(RDFType), iri("Employee")},          // rdfs9
		{iri("Journalist"), NewIRI(RDFSSubClassOf), iri("Person")}, // rdfs11
	} {
		if _, ok := set[want]; !ok {
			t.Errorf("consequences of %v missing %v (got %v)", delta, want, got)
		}
	}
}

// TestDeltaConsequencesLiteralRange: rdfs3 must not type literal objects.
func TestDeltaConsequencesLiteralRange(t *testing.T) {
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://tatooine.example/> .
:name rdfs:range :Label .
`))
	sat := Saturate(g)
	delta := Triple{iri("s"), iri("name"), NewLiteral("plain")}

	DeltaConsequences(sat, delta, func(c Triple) {
		if c.S.Kind == Literal {
			t.Errorf("rdfs3 typed a literal: %v", c)
		}
	})
}

// TestDerivable: after removing a derived triple from the saturation,
// DerivableExcept reports whether remaining premises still support it.
func TestDerivable(t *testing.T) {
	sat := Saturate(graphFromPaper())

	// (Samuel paidBy LeMonde) is supported by (Samuel worksFor LeMonde)
	// and worksFor ⊑ paidBy.
	paid := Triple{iri("Samuel"), iri("paidBy"), iri("LeMonde")}
	sat.Remove(paid)
	if !DerivableExcept(sat, paid, nil) {
		t.Error("rdfs7 support present but Derivable = false")
	}
	// Drop the data premise: no longer derivable.
	sat.Remove(Triple{iri("Samuel"), iri("worksFor"), iri("LeMonde")})
	if DerivableExcept(sat, paid, nil) {
		t.Error("rdfs7 premise gone but Derivable = true")
	}

	// (LeMonde type Organization) is doubly supported: rdfs2 via
	// foundedIn's domain and rdfs3 via worksFor's range — but worksFor
	// data is gone now, so only the domain support remains.
	org := Triple{iri("LeMonde"), NewIRI(RDFType), iri("Organization")}
	sat.Remove(org)
	if !DerivableExcept(sat, org, nil) {
		t.Error("rdfs2 support present but Derivable = false")
	}
	sat.Remove(Triple{iri("LeMonde"), iri("foundedIn"), NewLiteral("1944")})
	if DerivableExcept(sat, org, nil) {
		t.Error("all supports gone but Derivable = true")
	}

	// rdfs9: (Samuel type Employee) from (Samuel type Journalist) and
	// the subclass edge.
	emp := Triple{iri("Samuel"), NewIRI(RDFType), iri("Employee")}
	sat.Remove(emp)
	if !DerivableExcept(sat, emp, nil) {
		t.Error("rdfs9 support present but Derivable = false")
	}

	// rdfs11: a transitive subclass edge is derivable from its two hops.
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://tatooine.example/> .
:A rdfs:subClassOf :B .
:B rdfs:subClassOf :C .
`))
	sat2 := Saturate(g)
	ac := Triple{iri("A"), NewIRI(RDFSSubClassOf), iri("C")}
	sat2.Remove(ac)
	if !DerivableExcept(sat2, ac, nil) {
		t.Error("rdfs11 support present but Derivable = false")
	}
}

func TestAddBatchRemoveBatchReturnDelta(t *testing.T) {
	g := NewGraph()
	a := Triple{iri("a"), iri("p"), iri("b")}
	b := Triple{iri("b"), iri("p"), iri("c")}
	if got := g.AddBatch([]Triple{a, b, a}); len(got) != 2 {
		t.Fatalf("AddBatch delta = %v, want [a b]", got)
	}
	// Re-adding is a no-op delta.
	if got := g.AddBatch([]Triple{a}); len(got) != 0 {
		t.Errorf("duplicate AddBatch delta = %v, want empty", got)
	}
	// Invalid (zero-term) triples are skipped.
	if got := g.AddBatch([]Triple{{S: iri("x")}}); len(got) != 0 {
		t.Errorf("zero-term AddBatch delta = %v, want empty", got)
	}
	if g.Size() != 2 {
		t.Fatalf("size = %d, want 2", g.Size())
	}
	if got := g.RemoveBatch([]Triple{a, {S: iri("n"), P: iri("p"), O: iri("n")}}); len(got) != 1 || got[0] != a {
		t.Errorf("RemoveBatch delta = %v, want [a]", got)
	}
	if g.Size() != 1 || !g.Contains(b) {
		t.Errorf("graph after RemoveBatch: size %d", g.Size())
	}
}
