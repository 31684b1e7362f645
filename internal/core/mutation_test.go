package core

import (
	"testing"

	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

func mutableInstance(t *testing.T, opts ...InstanceOption) *Instance {
	t.Helper()
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:p1 a :politician ; :position :headOfState .
:politician rdfs:subClassOf :person .
`))
	opts = append([]InstanceOption{WithPrefixes(map[string]string{"": "http://t.example/"})}, opts...)
	return NewInstance(g, opts...)
}

func TestMutationBumpsEpoch(t *testing.T) {
	in := mutableInstance(t)
	if in.Epoch() != 0 {
		t.Fatalf("fresh instance epoch = %d", in.Epoch())
	}
	added := in.AddTriples(rdf.MustParse(`
@prefix : <http://t.example/> .
:p2 a :politician .
`))
	if added != 1 || in.Epoch() != 1 {
		t.Fatalf("AddTriples: added=%d epoch=%d", added, in.Epoch())
	}
	// Re-inserting the same triple changes nothing: the epoch must not
	// move, so caches are not flushed for a no-op.
	if in.AddTriples(rdf.MustParse("@prefix : <http://t.example/> .\n:p2 a :politician .")) != 0 {
		t.Error("duplicate insert reported new triples")
	}
	if in.Epoch() != 1 {
		t.Errorf("no-op insert bumped epoch to %d", in.Epoch())
	}
	removed := in.RemoveTriples(rdf.MustParse("@prefix : <http://t.example/> .\n:p2 a :politician ."))
	if removed != 1 || in.Epoch() != 2 {
		t.Fatalf("RemoveTriples: removed=%d epoch=%d", removed, in.Epoch())
	}
	if in.RemoveTriples(rdf.MustParse("@prefix : <http://t.example/> .\n:p2 a :politician .")) != 0 || in.Epoch() != 2 {
		t.Error("removing an absent triple bumped the epoch")
	}

	db := relstore.NewDatabase("insee")
	loadTable(t, db, relstore.Schema{Name: "chomage", Columns: []relstore.Column{
		{Name: "dept", Type: value.String}, {Name: "taux", Type: value.Float}}})
	if err := in.AddSource(source.NewRelSource("sql://insee", db)); err != nil {
		t.Fatal(err)
	}
	if in.Epoch() != 3 {
		t.Errorf("AddSource epoch = %d, want 3", in.Epoch())
	}
	// A failed registration (duplicate URI) must not bump.
	if err := in.AddSource(source.NewRelSource("sql://insee", db)); err == nil {
		t.Fatal("duplicate AddSource succeeded")
	}
	if in.Epoch() != 3 {
		t.Errorf("failed AddSource bumped epoch to %d", in.Epoch())
	}
	if !in.DropSource("sql://insee") || in.Epoch() != 4 {
		t.Errorf("DropSource: epoch = %d, want 4", in.Epoch())
	}
	if in.DropSource("sql://insee") || in.Epoch() != 4 {
		t.Error("dropping an absent source bumped the epoch")
	}
	if _, err := in.ResolveSource("sql://insee"); err == nil {
		t.Error("dropped source still resolves")
	}
	if epoch, _ := in.Invalidate(); epoch != 5 {
		t.Errorf("Invalidate epoch = %d, want 5", epoch)
	}
}

// TestSaturationRecomputesAfterMutation is the regression test for the
// satOnce bug: the saturation of G was computed exactly once per
// instance lifetime, so a graph insert after the first query was
// silently invisible to G∞ queries forever.
func TestSaturationRecomputesAfterMutation(t *testing.T) {
	in := mutableInstance(t, WithSaturation())
	const q = "QUERY q(?x)\nGRAPH { ?x a :person }"

	res, err := in.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("pre-mutation G∞ rows: %+v", res.Rows)
	}

	// :p9 is a politician, hence (via rdfs9) a person — but only in a
	// saturation computed AFTER this insert.
	if in.AddTriples(rdf.MustParse("@prefix : <http://t.example/> .\n:p9 a :politician .")) != 1 {
		t.Fatal("insert did not apply")
	}
	res, err = in.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("post-mutation G∞ rows = %d, want 2 (stale saturation served)", len(res.Rows))
	}

	// Removal re-saturates too.
	if in.RemoveTriples(rdf.MustParse("@prefix : <http://t.example/> .\n:p9 a :politician .")) != 1 {
		t.Fatal("remove did not apply")
	}
	res, err = in.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("post-removal G∞ rows = %d, want 1", len(res.Rows))
	}
}

// TestDeltaSaturationMaintainsAnswers: under the default delta mode,
// mutations are absorbed incrementally — answers stay correct and the
// stats prove no full recompute ran beyond the initial build.
func TestDeltaSaturationMaintainsAnswers(t *testing.T) {
	in := mutableInstance(t, WithSaturation())
	const q = "QUERY q(?x)\nGRAPH { ?x a :person }"

	res, err := in.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("initial G∞ rows = %d, want 1", len(res.Rows))
	}

	if in.AddTriples(rdf.MustParse("@prefix : <http://t.example/> .\n:p9 a :politician .")) != 1 {
		t.Fatal("insert did not apply")
	}
	if res, err = in.Query(q); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("post-insert G∞ rows = %d, want 2", len(res.Rows))
	}

	if in.RemoveTriples(rdf.MustParse("@prefix : <http://t.example/> .\n:p9 a :politician .")) != 1 {
		t.Fatal("remove did not apply")
	}
	if res, err = in.Query(q); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("post-remove G∞ rows = %d, want 1", len(res.Rows))
	}

	st := in.SaturationStats()
	if st.Mode != "delta" {
		t.Errorf("mode = %q, want delta", st.Mode)
	}
	if st.FullRecomputes != 1 {
		t.Errorf("fullRecomputes = %d, want 1 (the initial build only)", st.FullRecomputes)
	}
	if st.DeltaApplies != 2 {
		t.Errorf("deltaApplies = %d, want 2 (one insert, one delete)", st.DeltaApplies)
	}

	// Invalidate forces a rebuild (the escape hatch for out-of-band
	// Graph() writes).
	in.Graph().AddAll(rdf.MustParse("@prefix : <http://t.example/> .\n:oob a :politician ."))
	if res, _ = in.Query(q); len(res.Rows) != 1 {
		t.Fatalf("out-of-band write visible without Invalidate: %d rows", len(res.Rows))
	}
	in.Invalidate()
	if res, err = in.Query(q); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("post-Invalidate G∞ rows = %d, want 2", len(res.Rows))
	}
	if st := in.SaturationStats(); st.FullRecomputes != 2 {
		t.Errorf("Invalidate should force one rebuild: %+v", st)
	}
}

// TestSaturationStatsOff: an unsaturated instance reports mode "off".
func TestSaturationStatsOff(t *testing.T) {
	in := mutableInstance(t)
	if st := in.SaturationStats(); st.Mode != "off" || st.Derived != 0 {
		t.Errorf("stats = %+v, want mode off", st)
	}
}

// TestInvalidateFlushesProbeCaches: Instance.Invalidate reaches the
// interposed per-source probe caches through the registry.
func TestInvalidateFlushesProbeCaches(t *testing.T) {
	in := mutableInstance(t)
	db := relstore.NewDatabase("insee")
	loadTable(t, db, relstore.Schema{Name: "chomage", Columns: []relstore.Column{
		{Name: "dept", Type: value.String}, {Name: "taux", Type: value.Float}}},
		[]any{"75", 8.4})
	if err := in.AddSource(source.NewRelSource("sql://insee", db)); err != nil {
		t.Fatal(err)
	}
	in.Sources().Interpose(func(s source.DataSource) source.DataSource {
		return source.NewCached(s, 16)
	})
	s, err := in.ResolveSource("sql://insee")
	if err != nil {
		t.Fatal(err)
	}
	cached := s.(*source.Cached)
	if _, err := cached.Execute(source.SubQuery{Language: source.LangSQL, Text: "SELECT dept FROM chomage"}, nil); err != nil {
		t.Fatal(err)
	}
	if cached.Stats().Entries != 1 {
		t.Fatalf("probe cache entries: %+v", cached.Stats())
	}
	epochBefore := in.Epoch()
	epoch, dropped := in.Invalidate()
	if epoch != epochBefore+1 {
		t.Errorf("Invalidate epoch %d, want %d", epoch, epochBefore+1)
	}
	if dropped != 1 {
		t.Errorf("Invalidate dropped %d probe entries, want 1", dropped)
	}
	if st := cached.Stats(); st.Entries != 0 || st.Invalidated != 1 {
		t.Errorf("probe cache after Invalidate: %+v", st)
	}
}
