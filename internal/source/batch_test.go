package source_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

func relFixture(t *testing.T) *source.RelSource {
	t.Helper()
	db := relstore.NewDatabase("d")
	tbl, err := db.CreateTable(relstore.Schema{Name: "t", Columns: []relstore.Column{
		{Name: "k", Type: value.String}, {Name: "v", Type: value.Int}, {Name: "grp", Type: value.String}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []value.Row{
		{value.NewString("a"), value.NewInt(1), value.NewString("g1")},
		{value.NewString("a"), value.NewInt(2), value.NewString("g2")},
		{value.NewString("b"), value.NewInt(1), value.NewString("g1")},
		{value.NewString("b"), value.NewInt(3), value.NewString("g2")},
		{value.NewString("c"), value.NewInt(5), value.NewString("g1")},
	} {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return source.NewRelSource("sql://d", db)
}

// assertBatchMatchesSerial runs q through ExecuteBatch and through
// per-tuple Execute and requires identical per-tuple results
// (including row order).
func assertBatchMatchesSerial(t *testing.T, s source.BatchProber, q source.SubQuery, sets []value.Row) {
	t.Helper()
	batched, err := s.ExecuteBatch(q, sets)
	if err != nil {
		t.Fatalf("ExecuteBatch: %v", err)
	}
	serial, err := source.ExecuteSerially(context.Background(), s, q, sets)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if len(batched) != len(sets) {
		t.Fatalf("batched returned %d results for %d tuples", len(batched), len(sets))
	}
	for i := range sets {
		b, ref := batched[i], serial[i]
		if fmt.Sprint(b.Cols) != fmt.Sprint(ref.Cols) {
			t.Fatalf("tuple %d cols: %v vs %v", i, b.Cols, ref.Cols)
		}
		if len(b.Rows) != len(ref.Rows) {
			t.Fatalf("tuple %d (%v): %d rows batched, %d serial", i, sets[i], len(b.Rows), len(ref.Rows))
		}
		for j := range b.Rows {
			if b.Rows[j].Key() != ref.Rows[j].Key() {
				t.Errorf("tuple %d row %d: %v vs %v", i, j, b.Rows[j], ref.Rows[j])
			}
		}
	}
}

func TestRDFSourceExecuteBatch(t *testing.T) {
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:p1 :account "alice" ; :party :left .
:p2 :account "bob" ; :party :right .
`))
	s := source.NewRDFSource("rdf://g", g).WithPrefixes(map[string]string{"": "http://t.example/"})
	q := source.SubQuery{
		Language: source.LangBGP,
		Text:     `q(?x, ?p) :- ?x :account ?acct . ?x :party ?p`,
		InVars:   []string{"acct"},
	}
	sets := []value.Row{
		{value.NewString("alice")},
		{value.NewString("bob")},
		{value.NewString("nobody")},
	}
	assertBatchMatchesSerial(t, s, q, sets)
}

func TestDocSourceExecuteBatch(t *testing.T) {
	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"text": fulltext.TextField,
		"user": fulltext.KeywordField,
	})
	for i, txt := range []string{"economie en hausse", "economie en baisse", "culture et sport"} {
		if err := ix.Add(&doc.Document{ID: fmt.Sprintf("d%d", i), Fields: map[string]any{"user": fmt.Sprintf("u%d", i%2), "text": txt}}); err != nil {
			t.Fatal(err)
		}
	}
	s := source.NewDocSource("solr://tweets", ix)
	q := source.SubQuery{
		Language: source.LangSearch,
		Text:     "SEARCH tweets WHERE user = ? AND text CONTAINS 'economie' RETURN _id, user",
		InVars:   []string{"user"},
	}
	sets := []value.Row{
		{value.NewString("u0")},
		{value.NewString("u1")},
		{value.NewString("u9")},
	}
	assertBatchMatchesSerial(t, s, q, sets)
}

// recordingBatchSource counts per-tuple and batched calls reaching the
// inner layer, for Cached decoration tests.
type recordingBatchSource struct {
	uri string

	mu         sync.Mutex
	execCalls  int
	batchCalls int
	batchSizes []int
}

func (s *recordingBatchSource) URI() string         { return s.uri }
func (s *recordingBatchSource) Model() source.Model { return source.RelationalModel }
func (s *recordingBatchSource) Languages() []source.Language {
	return []source.Language{source.LangSQL}
}

func (s *recordingBatchSource) result(p value.Value) *source.Result {
	return &source.Result{Cols: []string{"v"}, Rows: []value.Row{{p}}}
}

func (s *recordingBatchSource) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	s.mu.Lock()
	s.execCalls++
	s.mu.Unlock()
	return s.result(params[0]), nil
}

func (s *recordingBatchSource) ExecuteBatch(q source.SubQuery, paramSets []value.Row) ([]*source.Result, error) {
	s.mu.Lock()
	s.batchCalls++
	s.batchSizes = append(s.batchSizes, len(paramSets))
	s.mu.Unlock()
	out := make([]*source.Result, len(paramSets))
	for i, ps := range paramSets {
		out[i] = s.result(ps[0])
	}
	return out, nil
}

var batchTestQuery = source.SubQuery{
	Language: source.LangSQL,
	Text:     "SELECT v FROM t WHERE v = ?",
	InVars:   []string{"v"},
}

func tuple(s string) value.Row { return value.Row{value.NewString(s)} }

func TestCachedExecuteBatchForwardsOnlyMisses(t *testing.T) {
	inner := &recordingBatchSource{uri: "sql://r"}
	c := source.NewCached(inner, 16)

	// Prime one tuple with a lone probe: a batch of one.
	if _, err := c.Execute(batchTestQuery, tuple("a")); err != nil {
		t.Fatal(err)
	}
	// Batch of three: "a" answered from cache, only b+c travel.
	res, err := c.ExecuteBatch(batchTestQuery, []value.Row{tuple("a"), tuple("b"), tuple("c")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results: %d", len(res))
	}
	for i, want := range []string{"a", "b", "c"} {
		if res[i].Rows[0][0].Str() != want {
			t.Errorf("tuple %d: got %v", i, res[i].Rows[0])
		}
	}
	if inner.batchCalls != 2 || inner.batchSizes[1] != 2 {
		t.Errorf("inner batches: calls=%d sizes=%v, want the probe, then one batch of 2", inner.batchCalls, inner.batchSizes)
	}
	// The batch result filled the cache per tuple: no further inner calls.
	if _, err := c.Execute(batchTestQuery, tuple("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecuteBatch(batchTestQuery, []value.Row{tuple("b"), tuple("c")}); err != nil {
		t.Fatal(err)
	}
	if inner.execCalls != 0 || inner.batchCalls != 2 {
		t.Errorf("inner calls after warm cache: exec=%d batch=%d", inner.execCalls, inner.batchCalls)
	}
	st := c.Stats()
	if st.Hits != 4 || st.Misses != 3 {
		t.Errorf("stats: %+v", st)
	}
}

// plainSource hides any batch capability.
type plainSource struct{ source.DataSource }

// TestCachedExecuteBatchUnsupportedInner: over a source that does not
// batch, Cached answers a batch's misses one Execute each and fills the
// cache per tuple.
func TestCachedExecuteBatchUnsupportedInner(t *testing.T) {
	inner := &recordingBatchSource{uri: "sql://r"}
	c := source.NewCached(plainSource{inner}, 16)
	res, err := c.ExecuteBatch(batchTestQuery, []value.Row{tuple("a"), tuple("b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Rows[0][0].Str() != "a" || res[1].Rows[0][0].Str() != "b" {
		t.Fatalf("results: %+v", res)
	}
	if inner.execCalls != 2 || inner.batchCalls != 0 {
		t.Errorf("inner calls: exec=%d batch=%d, want 2/0", inner.execCalls, inner.batchCalls)
	}
	if _, err := c.ExecuteBatch(batchTestQuery, []value.Row{tuple("a"), tuple("b")}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); inner.execCalls != 2 || st.Entries != 2 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("cache not filled: exec=%d stats %+v", inner.execCalls, st)
	}
}

func TestCachedTTLExpiry(t *testing.T) {
	inner := &recordingBatchSource{uri: "sql://r"}
	c := source.NewCached(inner, 16).WithTTL(time.Minute)
	now := time.Unix(1000, 0)
	source.SetCachedClock(c, func() time.Time { return now })

	if _, err := c.Execute(batchTestQuery, tuple("a")); err != nil {
		t.Fatal(err)
	}
	// Within the TTL: served from cache.
	now = now.Add(30 * time.Second)
	if _, err := c.Execute(batchTestQuery, tuple("a")); err != nil {
		t.Fatal(err)
	}
	if inner.batchCalls != 1 {
		t.Fatalf("exec calls within TTL: %d", inner.batchCalls)
	}
	// Past the TTL: the entry expires, the inner source re-executes, and
	// the refreshed entry serves again.
	now = now.Add(time.Minute)
	if _, err := c.Execute(batchTestQuery, tuple("a")); err != nil {
		t.Fatal(err)
	}
	if inner.batchCalls != 2 {
		t.Fatalf("exec calls after expiry: %d", inner.batchCalls)
	}
	if _, err := c.Execute(batchTestQuery, tuple("a")); err != nil {
		t.Fatal(err)
	}
	if inner.batchCalls != 2 {
		t.Fatalf("refreshed entry not served: %d", inner.batchCalls)
	}
	st := c.Stats()
	if st.Expired != 1 {
		t.Errorf("expired count: %+v", st)
	}
	// Zero TTL (the default) never expires.
	c2 := source.NewCached(&recordingBatchSource{uri: "sql://r2"}, 16)
	source.SetCachedClock(c2, func() time.Time { return now })
	c2.Execute(batchTestQuery, tuple("a"))
	now = now.Add(1000 * time.Hour)
	c2.Execute(batchTestQuery, tuple("a"))
	if st2 := c2.Stats(); st2.Hits != 1 || st2.Expired != 0 {
		t.Errorf("no-TTL stats: %+v", st2)
	}
}
