package reason

import (
	"fmt"
	"testing"

	"tatooine/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }

func typ() rdf.Term { return rdf.NewIRI(rdf.RDFType) }

func parse(t *testing.T, text string) []rdf.Triple {
	t.Helper()
	ts, err := rdf.ParseString("@prefix : <http://e/> .\n" + text)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// requireEquivalent asserts the engine's maintained G∞ is
// triple-identical to a from-scratch saturation of the base graph.
func requireEquivalent(t *testing.T, e *Engine, base *rdf.Graph, context string) {
	t.Helper()
	want := rdf.Saturate(base)
	got := e.Graph()
	wantTs, gotTs := want.Triples(), got.Triples()
	if len(wantTs) != len(gotTs) {
		t.Fatalf("%s: maintained G∞ has %d triples, from-scratch %d\nmaintained: %v\nscratch: %v",
			context, len(gotTs), len(wantTs), gotTs, wantTs)
	}
	for i := range wantTs {
		if wantTs[i] != gotTs[i] {
			t.Fatalf("%s: triple %d differs: maintained %v, scratch %v", context, i, gotTs[i], wantTs[i])
		}
	}
}

func TestInsertDataTriple(t *testing.T) {
	base := rdf.NewGraph()
	base.AddAll(parse(t, `
:Journalist rdfs:subClassOf :Employee .
:worksFor rdfs:subPropertyOf :paidBy .
:worksFor rdfs:range :Organization .
`))
	e := New(base, Config{})

	delta := parse(t, ":Samuel :worksFor :LeMonde .\n:Samuel a :Journalist .")
	base.AddBatch(delta)
	e.ApplyInsert(delta)

	for _, want := range []rdf.Triple{
		{S: iri("Samuel"), P: iri("paidBy"), O: iri("LeMonde")},
		{S: iri("Samuel"), P: typ(), O: iri("Employee")},
		{S: iri("LeMonde"), P: typ(), O: iri("Organization")},
	} {
		if !e.Graph().Contains(want) {
			t.Errorf("maintained G∞ missing %v", want)
		}
	}
	requireEquivalent(t, e, base, "after data insert")
	st := e.Stats()
	if st.Mode != "delta" || st.DeltaApplies != 1 || st.FullRecomputes != 1 {
		t.Errorf("stats = %+v, want delta mode, 1 delta apply, 1 full recompute (initial build)", st)
	}
	if st.Derived != e.Graph().Size()-base.Size() {
		t.Errorf("Derived = %d, want %d", st.Derived, e.Graph().Size()-base.Size())
	}
}

// TestInsertSchemaTriple: a new subClassOf edge must re-type existing
// instances and close transitively through the existing hierarchy —
// the targeted re-closure path.
func TestInsertSchemaTriple(t *testing.T) {
	base := rdf.NewGraph()
	base.AddAll(parse(t, `
:B rdfs:subClassOf :C .
:x a :A .
:y a :B .
`))
	e := New(base, Config{})

	// Splice A under B: x must become a B and (transitively) a C, and
	// A ⊑ C must materialize.
	delta := parse(t, ":A rdfs:subClassOf :B .")
	base.AddBatch(delta)
	e.ApplyInsert(delta)

	for _, want := range []rdf.Triple{
		{S: iri("x"), P: typ(), O: iri("B")},
		{S: iri("x"), P: typ(), O: iri("C")},
		{S: iri("A"), P: rdf.NewIRI(rdf.RDFSSubClassOf), O: iri("C")},
	} {
		if !e.Graph().Contains(want) {
			t.Errorf("maintained G∞ missing %v", want)
		}
	}
	requireEquivalent(t, e, base, "after schema insert")
	if st := e.Stats(); st.FullRecomputes != 1 {
		t.Errorf("schema insert triggered a full recompute: %+v", st)
	}
}

// TestDeleteRetractsCone: deleting the only support of a derivation
// retracts it, while conclusions with independent support survive.
func TestDeleteRetractsCone(t *testing.T) {
	base := rdf.NewGraph()
	base.AddAll(parse(t, `
:Journalist rdfs:subClassOf :Employee .
:Photographer rdfs:subClassOf :Employee .
:Samuel a :Journalist .
:Samuel a :Photographer .
`))
	e := New(base, Config{})

	// Remove one of the two classes: Employee membership must survive
	// via the other (re-derivation), Journalist membership must go.
	delta := parse(t, ":Samuel a :Journalist .")
	base.RemoveBatch(delta)
	e.ApplyDelete(delta)

	if e.Graph().Contains(rdf.Triple{S: iri("Samuel"), P: typ(), O: iri("Journalist")}) {
		t.Error("deleted triple still in maintained G∞")
	}
	if !e.Graph().Contains(rdf.Triple{S: iri("Samuel"), P: typ(), O: iri("Employee")}) {
		t.Error("independently supported conclusion was over-deleted and not re-derived")
	}
	requireEquivalent(t, e, base, "after delete")
	st := e.Stats()
	if st.DeltaApplies != 1 || st.FullRecomputes != 1 {
		t.Errorf("delete should run as DRed, not fall back: %+v", st)
	}

	// Now remove the last support: Employee membership must go too.
	delta = parse(t, ":Samuel a :Photographer .")
	base.RemoveBatch(delta)
	e.ApplyDelete(delta)
	if e.Graph().Contains(rdf.Triple{S: iri("Samuel"), P: typ(), O: iri("Employee")}) {
		t.Error("unsupported derivation survived its last premise")
	}
	requireEquivalent(t, e, base, "after second delete")
}

// TestDeleteExplicitFactSurvivesAsDerived: removing a base triple that
// is also derivable keeps it in G∞.
func TestDeleteExplicitFactSurvivesAsDerived(t *testing.T) {
	base := rdf.NewGraph()
	base.AddAll(parse(t, `
:A rdfs:subClassOf :B .
:x a :A .
:x a :B .
`))
	e := New(base, Config{})

	delta := parse(t, ":x a :B .")
	base.RemoveBatch(delta)
	e.ApplyDelete(delta)

	if !e.Graph().Contains(rdf.Triple{S: iri("x"), P: typ(), O: iri("B")}) {
		t.Error("(x type B) is still derivable from (x type A) and must survive its explicit deletion")
	}
	requireEquivalent(t, e, base, "after deleting a derivable explicit fact")
}

// TestDeleteSchemaFallsBack: deleting a schema triple cannot be
// maintained incrementally and must recompute.
func TestDeleteSchemaFallsBack(t *testing.T) {
	base := rdf.NewGraph()
	base.AddAll(parse(t, `
:A rdfs:subClassOf :B .
:x a :A .
`))
	e := New(base, Config{})

	delta := parse(t, ":A rdfs:subClassOf :B .")
	base.RemoveBatch(delta)
	e.ApplyDelete(delta)

	if e.Graph().Contains(rdf.Triple{S: iri("x"), P: typ(), O: iri("B")}) {
		t.Error("derivation survived the deletion of its schema premise")
	}
	requireEquivalent(t, e, base, "after schema delete")
	st := e.Stats()
	if st.FullRecomputes != 2 || st.DeltaApplies != 0 {
		t.Errorf("schema delete must fall back to a full recompute: %+v", st)
	}
}

// TestDeleteConeFallback: an over-deletion cone larger than the
// configured fraction of the graph abandons DRed.
func TestDeleteConeFallback(t *testing.T) {
	base := rdf.NewGraph()
	// One data triple whose deletion cones over a long class chain:
	// (s p o) types s as C0 via the domain, and C0 ⊑ C1 ⊑ … ⊑ C120
	// cascades that into 121 derived typings — past the absolute cone
	// floor, so a tiny MaxDeleteFraction must abandon DRed.
	ts := parse(t, ":p rdfs:domain :C0 .\n:s :p :o .")
	for i := 0; i < 120; i++ {
		ts = append(ts, parse(t, fmt.Sprintf(":C%d rdfs:subClassOf :C%d .", i, i+1))...)
	}
	base.AddAll(ts)
	e := New(base, Config{MaxDeleteFraction: 0.0001})

	delta := parse(t, ":s :p :o .")
	base.RemoveBatch(delta)
	e.ApplyDelete(delta)

	requireEquivalent(t, e, base, "after cone fallback")
	if st := e.Stats(); st.FullRecomputes != 2 || st.DeltaApplies != 0 {
		t.Errorf("oversized cone must force a full recompute: %+v", st)
	}
}

func TestRebuildPicksUpOutOfBandWrites(t *testing.T) {
	base := rdf.NewGraph()
	base.AddAll(parse(t, ":A rdfs:subClassOf :B ."))
	e := New(base, Config{})

	// Out-of-band write, invisible to the engine until Rebuild.
	base.AddAll(parse(t, ":x a :A ."))
	if e.Graph().Contains(rdf.Triple{S: iri("x"), P: typ(), O: iri("B")}) {
		t.Fatal("engine saw an out-of-band write without Rebuild")
	}
	e.Rebuild()
	if !e.Graph().Contains(rdf.Triple{S: iri("x"), P: typ(), O: iri("B")}) {
		t.Error("Rebuild did not re-saturate the out-of-band write")
	}
	requireEquivalent(t, e, base, "after rebuild")
}

// TestRebuildRetractsOutOfBandDeletes: a rebuild after out-of-band
// writes that both remove and add base triples diffs them into the
// same graph, retracting consequences whose support is gone.
func TestRebuildRetractsOutOfBandDeletes(t *testing.T) {
	base := rdf.NewGraph()
	base.AddAll(parse(t, ":A rdfs:subClassOf :B .\n:x a :A ."))
	e := New(base, Config{})
	g := e.Graph()

	base.RemoveBatch(parse(t, ":x a :A ."))
	base.AddAll(parse(t, ":B rdfs:subClassOf :C ."))
	e.Rebuild()
	if e.Graph() != g {
		t.Error("Rebuild replaced the maintained graph instead of editing it in place")
	}
	if e.Graph().Contains(rdf.Triple{S: iri("x"), P: typ(), O: iri("C")}) {
		t.Error("G∞ derives :x a :C from a deleted :x a :A")
	}
	if !e.Graph().Contains(rdf.Triple{S: iri("A"), P: rdf.NewIRI(rdf.RDFSSubClassOf), O: iri("C")}) {
		t.Error("G∞ misses :A rdfs:subClassOf :C from the added schema triple")
	}
	requireEquivalent(t, e, base, "after out-of-band delete and insert")
}

func TestApplyNoopDelta(t *testing.T) {
	base := rdf.NewGraph()
	base.AddAll(parse(t, ":A rdfs:subClassOf :B .\n:x a :A ."))
	e := New(base, Config{})
	before := e.Stats()
	e.ApplyInsert(nil)
	e.ApplyDelete(nil)
	after := e.Stats()
	if after.DeltaApplies != before.DeltaApplies || after.FullRecomputes != before.FullRecomputes {
		t.Errorf("empty deltas moved counters: %+v -> %+v", before, after)
	}
}
