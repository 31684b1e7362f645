package rdf_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"tatooine/internal/datagen"
	"tatooine/internal/rdf"
	"tatooine/internal/store"
)

func politicsGraph(n int) *rdf.Graph {
	return datagen.BuildGraph(datagen.GenPoliticians(rand.New(rand.NewSource(42)), n))
}

// storeCopy returns a store-backed copy of g in a fresh store under dir.
func storeCopy(tb testing.TB, g *rdf.Graph, dir string) (*rdf.Graph, *store.Store) {
	st, err := store.Open(filepath.Join(dir, "g.db"), store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sg, err := rdf.OpenGraph(st, "g")
	if err != nil {
		st.Close()
		tb.Fatal(err)
	}
	g.CopyTo(sg)
	return sg, st
}

// TestSaturateStoreBackedMatchesMemory: saturating a store-backed copy
// of a datagen graph in place gives exactly the in-memory saturation.
func TestSaturateStoreBackedMatchesMemory(t *testing.T) {
	g := politicsGraph(300)
	sg, st := storeCopy(t, g, t.TempDir())
	defer st.Close()
	rdf.SaturateInPlace(sg)
	if err := sg.StoreErr(); err != nil {
		t.Fatal(err)
	}
	want := rdf.Saturate(g)
	if want.Size() == g.Size() {
		t.Fatal("datagen graph derived nothing")
	}
	if got, exp := fmt.Sprint(sg.Triples()), fmt.Sprint(want.Triples()); got != exp {
		t.Fatalf("store-backed saturation has %d triples, in-memory %d", sg.Size(), want.Size())
	}
}

// BenchmarkSaturateInPlace saturates a 6,000-politician datagen graph
// (the durable_mutate size) in place: mem on an in-memory clone, store
// on a store-backed copy, the persistent instance's cold boot. Only
// the saturation is timed.
func BenchmarkSaturateInPlace(b *testing.B) {
	g := politicsGraph(6000)
	b.Run("mem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := g.Clone()
			b.StartTimer()
			rdf.SaturateInPlace(c)
		}
	})
	b.Run("store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sg, st := storeCopy(b, g, b.TempDir())
			b.StartTimer()
			rdf.SaturateInPlace(sg)
			b.StopTimer()
			st.Close()
			b.StartTimer()
		}
	})
}
