package source_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

func relFixture(t *testing.T) *source.RelSource {
	t.Helper()
	db := relstore.NewDatabase("d")
	for _, q := range []string{
		"CREATE TABLE t (k TEXT, v INT, grp TEXT)",
		"INSERT INTO t VALUES ('a', 1, 'g1'), ('a', 2, 'g2'), ('b', 1, 'g1'), ('b', 3, 'g2'), ('c', 5, 'g1')",
	} {
		if _, err := db.Exec(q); err != nil {
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
	serial, err := source.ExecuteSerially(s, q, sets)
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

func TestRelSourceExecuteBatchINListPushdown(t *testing.T) {
	s := relFixture(t)
	q := source.SubQuery{
		Language: source.LangSQL,
		Text:     "SELECT k, v FROM t WHERE k = ? AND v >= 1",
		InVars:   []string{"k"},
	}
	sets := []value.Row{
		{value.NewString("a")},
		{value.NewString("b")},
		{value.NewString("nope")}, // no matching rows
		{value.NewString("a")},    // duplicate tuple
	}
	assertBatchMatchesSerial(t, s, q, sets)
}

func TestRelSourceExecuteBatchMultiParamCrossProduct(t *testing.T) {
	// Two parameters batch into two IN lists whose cross product is a
	// strict superset of the requested tuples; the per-tuple split must
	// keep only each tuple's own rows.
	s := relFixture(t)
	q := source.SubQuery{
		Language: source.LangSQL,
		Text:     "SELECT grp FROM t WHERE k = ? AND v = ?",
		InVars:   []string{"k", "v"},
	}
	sets := []value.Row{
		{value.NewString("a"), value.NewInt(1)},
		{value.NewString("b"), value.NewInt(3)}, // (a,3) and (b,1) exist but were not asked for
	}
	assertBatchMatchesSerial(t, s, q, sets)
}

func TestRelSourceExecuteBatchOrderByPreserved(t *testing.T) {
	s := relFixture(t)
	q := source.SubQuery{
		Language: source.LangSQL,
		Text:     "SELECT k, v FROM t WHERE k = ? ORDER BY v DESC",
		InVars:   []string{"k"},
	}
	sets := []value.Row{{value.NewString("a")}, {value.NewString("b")}}
	assertBatchMatchesSerial(t, s, q, sets)
}

func TestRelSourceExecuteBatchUnsupportedShapes(t *testing.T) {
	s := relFixture(t)
	sets := []value.Row{{value.NewString("a")}, {value.NewString("b")}}
	for _, text := range []string{
		"SELECT k FROM t WHERE k = ? LIMIT 1",       // per-probe LIMIT ≠ global LIMIT
		"SELECT DISTINCT k FROM t WHERE k = ?",      // per-probe DISTINCT ≠ global DISTINCT
		"SELECT k FROM t WHERE v >= ?",              // '?' outside col = ?
		"SELECT k, COUNT(*) FROM t WHERE k = ?",     // aggregation over the union differs
		"SELECT k FROM t WHERE k = ? OR grp = 'g1'", // param under OR
	} {
		q := source.SubQuery{Language: source.LangSQL, Text: text, InVars: []string{"p"}}
		_, err := s.ExecuteBatch(q, sets)
		if !errors.Is(err, source.ErrBatchUnsupported) {
			t.Errorf("%q: err = %v, want ErrBatchUnsupported", text, err)
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
	s := source.NewRDFSource("rdf://g", g, false).WithPrefixes(map[string]string{"": "http://t.example/"})
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
		if err := ix.AddJSON(fmt.Sprintf("d%d", i), []byte(fmt.Sprintf(`{"user": "u%d", "text": %q}`, i%2, txt))); err != nil {
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

	// Prime one tuple through the per-tuple path.
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
	if inner.batchCalls != 1 || inner.batchSizes[0] != 2 {
		t.Errorf("inner batches: calls=%d sizes=%v, want one batch of 2", inner.batchCalls, inner.batchSizes)
	}
	// The batch result filled the cache per tuple: no further inner calls.
	if _, err := c.Execute(batchTestQuery, tuple("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecuteBatch(batchTestQuery, []value.Row{tuple("b"), tuple("c")}); err != nil {
		t.Fatal(err)
	}
	if inner.execCalls != 1 || inner.batchCalls != 1 {
		t.Errorf("inner calls after warm cache: exec=%d batch=%d", inner.execCalls, inner.batchCalls)
	}
	st := c.Stats()
	if st.Hits != 4 || st.Misses != 3 {
		t.Errorf("stats: %+v", st)
	}
}

// plainSource hides any batch capability.
type plainSource struct{ source.DataSource }

func TestCachedExecuteBatchUnsupportedInner(t *testing.T) {
	inner := &recordingBatchSource{uri: "sql://r"}
	c := source.NewCached(plainSource{inner}, 16)
	_, err := c.ExecuteBatch(batchTestQuery, []value.Row{tuple("a")})
	if !errors.Is(err, source.ErrBatchUnsupported) {
		t.Errorf("err = %v, want ErrBatchUnsupported", err)
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
	if inner.execCalls != 1 {
		t.Fatalf("exec calls within TTL: %d", inner.execCalls)
	}
	// Past the TTL: the entry expires, the inner source re-executes, and
	// the refreshed entry serves again.
	now = now.Add(time.Minute)
	if _, err := c.Execute(batchTestQuery, tuple("a")); err != nil {
		t.Fatal(err)
	}
	if inner.execCalls != 2 {
		t.Fatalf("exec calls after expiry: %d", inner.execCalls)
	}
	if _, err := c.Execute(batchTestQuery, tuple("a")); err != nil {
		t.Fatal(err)
	}
	if inner.execCalls != 2 {
		t.Fatalf("refreshed entry not served: %d", inner.execCalls)
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
