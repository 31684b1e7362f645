package core

import (
	"testing"

	"tatooine/internal/rdf"
)

func persistentInstance(t *testing.T, dir string, opts ...InstanceOption) *Instance {
	t.Helper()
	opts = append([]InstanceOption{WithPrefixes(map[string]string{"": "http://t.example/"})}, opts...)
	in, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPersistentInstanceBasics(t *testing.T) {
	dir := t.TempDir()
	in := persistentInstance(t, dir)
	if !in.Persistent() {
		t.Fatal("Open returned non-persistent instance")
	}
	if in.Epoch() != 0 || in.Graph().Size() != 0 {
		t.Fatalf("fresh persistent instance: epoch=%d size=%d", in.Epoch(), in.Graph().Size())
	}
	added := in.AddTriples(rdf.MustParse(`
@prefix : <http://t.example/> .
:p1 a :politician .
:p2 a :politician .
`))
	if added != 2 || in.Epoch() != 1 {
		t.Fatalf("AddTriples: added=%d epoch=%d", added, in.Epoch())
	}
	if err := in.StoreErr(); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	in2 := persistentInstance(t, dir)
	defer in2.Close()
	if in2.Epoch() != 1 {
		t.Fatalf("reopened epoch = %d, want 1", in2.Epoch())
	}
	if in2.Graph().Size() != 2 {
		t.Fatalf("reopened graph size = %d, want 2", in2.Graph().Size())
	}
	if !in2.Graph().Contains(rdf.MustParse("@prefix : <http://t.example/> .\n:p1 a :politician .")[0]) {
		t.Fatal("reopened graph missing persisted triple")
	}
	// Mutations continue the epoch sequence.
	if in2.RemoveTriples(rdf.MustParse("@prefix : <http://t.example/> .\n:p2 a :politician .")) != 1 {
		t.Fatal("reopened remove missed")
	}
	if in2.Epoch() != 2 || in2.Graph().Size() != 1 {
		t.Fatalf("after reopened remove: epoch=%d size=%d", in2.Epoch(), in2.Graph().Size())
	}
}

func TestPersistentSaturationWarmRestart(t *testing.T) {
	dir := t.TempDir()
	in := persistentInstance(t, dir, WithSaturation())
	in.AddTriples(rdf.MustParse(`
@prefix : <http://t.example/> .
:politician rdfs:subClassOf :person .
:p1 a :politician .
`))
	const q = "QUERY q(?x)\nGRAPH { ?x a :person }"
	res, err := in.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("cold query rows = %d, want 1", len(res.Rows))
	}
	st := in.SaturationStats()
	if st.FullRecomputes != 1 || st.Derived < 1 {
		t.Fatalf("cold stats = %+v", st)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	in2 := persistentInstance(t, dir, WithSaturation())
	defer in2.Close()
	// Warm restart: the stored G∞ is adopted, not recomputed.
	st = in2.SaturationStats()
	if st.Mode != "delta" || st.FullRecomputes != 0 {
		t.Fatalf("warm stats = %+v (expected adopted saturation, 0 recomputes)", st)
	}
	if st.Derived < 1 {
		t.Fatalf("warm Derived = %d, want >= 1", st.Derived)
	}
	res, err = in2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("warm query rows = %d, want 1", len(res.Rows))
	}
	if in2.SaturationStats().FullRecomputes != 0 {
		t.Fatal("warm query triggered a recompute")
	}
	// Incremental maintenance continues against the adopted G∞.
	in2.AddTriples(rdf.MustParse("@prefix : <http://t.example/> .\n:p2 a :politician ."))
	res, err = in2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("post-mutation rows = %d, want 2", len(res.Rows))
	}
	st = in2.SaturationStats()
	if st.DeltaApplies != 1 || st.FullRecomputes != 0 {
		t.Fatalf("post-mutation stats = %+v", st)
	}
}
