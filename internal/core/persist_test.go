package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tatooine/internal/rdf"
	"tatooine/internal/store"
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

// TestPersistentSaturationRebuiltAfterUnsaturatedRun: a run without
// saturation mutates G and leaves the stored G∞ behind, so the next
// saturated boot must not adopt it: the first query rebuilds it in
// place, and the boot after that is warm again.
func TestPersistentSaturationRebuiltAfterUnsaturatedRun(t *testing.T) {
	dir := t.TempDir()
	const q = "QUERY q(?x)\nGRAPH { ?x a :person }"
	in := persistentInstance(t, dir, WithSaturation())
	in.AddTriples(rdf.MustParse(`
@prefix : <http://t.example/> .
:politician rdfs:subClassOf :person .
:p1 a :politician .
`))
	if _, err := in.Query(q); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	plain := persistentInstance(t, dir)
	plain.RemoveTriples(rdf.MustParse("@prefix : <http://t.example/> .\n:p1 a :politician ."))
	plain.AddTriples(rdf.MustParse("@prefix : <http://t.example/> .\n:p2 a :politician ."))
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	for boot, wantRecomputes := range []int64{1, 0} {
		in := persistentInstance(t, dir, WithSaturation())
		res, err := in.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "http://t.example/p2" {
			t.Fatalf("boot %d: rows = %v, want only :p2", boot, res.Rows)
		}
		if st := in.SaturationStats(); st.FullRecomputes != wantRecomputes || st.Derived != 1 {
			t.Fatalf("boot %d: stats = %+v, want %d recomputes and 1 derived triple", boot, st, wantRecomputes)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRefusesOlderLayout: a store written before the catalog
// carried a format key (epoch and saturation generation only) is
// refused with an error naming the file and the remedy, and the refusal
// leaves the file byte-for-byte unchanged.
func TestOpenRefusesOlderLayout(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, DataFileName)
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := st.Keyspace("cat")
	if err != nil {
		t.Fatal(err)
	}
	for key, v := range map[string]uint64{"epoch": 3, "satgen": 1} {
		if _, err := cat.Put([]byte(key), binary.BigEndian.AppendUint64(nil, v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	in, err := Open(dir)
	if err == nil {
		in.Close()
		t.Fatal("Open accepted a store without a format key")
	}
	if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "delete the data directory") {
		t.Fatalf("refusal %q does not name %s and the remedy", msg, path)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a refused Open modified the store file")
	}
}
