package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/obs"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/server"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// loadTable creates s in db and inserts rows; a cell is a Go string,
// int, float64 or bool, or nil for NULL.
func loadTable(t testing.TB, db *relstore.Database, s relstore.Schema, rows ...[]any) *relstore.Table {
	t.Helper()
	tbl, err := db.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, cells := range rows {
		row := make(value.Row, len(cells))
		for i, c := range cells {
			switch c := c.(type) {
			case string:
				row[i] = value.NewString(c)
			case int:
				row[i] = value.NewInt(int64(c))
			case float64:
				row[i] = value.NewFloat(c)
			case bool:
				row[i] = value.NewBool(c)
			}
		}
		if err := tbl.Insert(row); err != nil {
			t.Fatalf("insert into %s: %v", s.Name, err)
		}
	}
	return tbl
}

// countingSource wraps a DataSource and counts Execute invocations that
// actually reach it (i.e. probe-cache misses once decorated).
type countingSource struct {
	source.DataSource
	executes atomic.Int64
	block    chan struct{} // when non-nil, Execute signals started and waits
	started  chan struct{}
}

func (c *countingSource) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	c.executes.Add(1)
	if c.block != nil {
		c.started <- struct{}{}
		<-c.block
	}
	return c.DataSource.Execute(q, params)
}

// fixture builds a small mixed instance (graph + relational source)
// whose second atom runs as a bind join, and returns the counting
// wrapper around the relational source.
func fixture(t testing.TB) (*core.Instance, *countingSource) {
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:p1 a :politician ; :position :headOfState ; :electedIn "75" .
:p2 a :politician ; :position :deputy ; :electedIn "92" .
`))
	in := core.NewInstance(g, core.WithPrefixes(map[string]string{"": "http://t.example/"}))

	db := relstore.NewDatabase("insee")
	loadTable(t, db, relstore.Schema{Name: "chomage", Columns: []relstore.Column{
		{Name: "dept", Type: value.String}, {Name: "taux", Type: value.Float}}},
		[]any{"75", 8.4}, []any{"92", 7.2})
	cs := &countingSource{DataSource: source.NewRelSource("sql://insee", db)}
	if err := in.AddSource(cs); err != nil {
		t.Fatal(err)
	}
	return in, cs
}

const testQuery = `
QUERY q(?dept, ?taux)
GRAPH { ?x :position :headOfState . ?x :electedIn ?dept }
FROM <sql://insee> IN(?dept) OUT(?dept, ?taux)
  { SELECT dept, taux FROM chomage WHERE dept = ? }
`

// cmqReply is a /cmq JSON reply as a client reads it. JSON values are
// write-only, so each row stays raw and is compared with
// value.AppendRowJSON of the row expected, as bench/ checks replies.
type cmqReply struct {
	Cols    []string          `json:"cols"`
	Rows    []json.RawMessage `json:"rows"`
	Stats   core.ExecStats    `json:"stats"`
	Cached  bool              `json:"cached"`
	Explain *core.ExplainInfo `json:"explain"`
	Trace   *obs.SpanData     `json:"trace"`
	Error   string            `json:"error"`
}

// streamRecord is one record of a streamed /cmq reply, its row raw.
type streamRecord struct {
	Cols   []string        `json:"cols"`
	Row    json.RawMessage `json:"row"`
	Stats  *core.ExecStats `json:"stats"`
	Cached *bool           `json:"cached"`
	Trace  *obs.SpanData   `json:"trace"`
	Error  string          `json:"error"`
}

// rowJSON is the JSON text of the reply row of vals.
func rowJSON(vals ...value.Value) string { return string(value.AppendRowJSON(nil, vals)) }

// The fixture's chomage rows as a reply carries them.
var (
	row75 = rowJSON(value.NewString("75"), value.NewFloat(8.4))
	row92 = rowJSON(value.NewString("92"), value.NewFloat(7.2))
)

func postCMQ(t testing.TB, url, query string) (int, cmqReply) {
	t.Helper()
	body, err := json.Marshal(server.QueryRequest{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/cmq", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr cmqReply
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, qr
}

// TestCMQRefusesSQLWrites: a CMQ atom's SQL reaches its source only to
// be read. An atom holding INSERT or CREATE TABLE fails the query, and
// the source keeps its tables and row counts.
func TestCMQRefusesSQLWrites(t *testing.T) {
	in, cs := fixture(t)
	db := cs.DataSource.(*source.RelSource).DB()
	counts := func() map[string]int {
		out := map[string]int{}
		for _, t := range db.Tables() {
			out[t.Name()] = t.RowCount()
		}
		return out
	}
	want := counts()
	ts := httptest.NewServer(server.New(in, server.Options{}).Handler())
	defer ts.Close()
	for _, sql := range []string{
		"INSERT INTO chomage VALUES ('zz', 99.0)",
		"CREATE TABLE pwned (x INT)",
	} {
		status, resp := postCMQ(t, ts.URL, "QUERY q(?n)\nFROM <sql://insee> LANG sql OUT(?n) { "+sql+" }")
		if status == http.StatusOK || resp.Error == "" {
			t.Errorf("%s: status %d, error %q, rows %v; want the query refused", sql, status, resp.Error, resp.Rows)
		}
	}
	if got := counts(); !maps.Equal(got, want) {
		t.Errorf("tables after the refused writes: %v, want %v", got, want)
	}
}

func TestServeCacheHitZeroesSubQueries(t *testing.T) {
	in, _ := fixture(t)
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, first := postCMQ(t, ts.URL, testQuery)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d, %+v", status, first)
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	if first.Stats.SubQueries == 0 {
		t.Errorf("first request shipped no sub-queries: %+v", first.Stats)
	}
	if len(first.Rows) != 1 || string(first.Rows[0]) != row75 {
		t.Fatalf("rows: %s", first.Rows)
	}

	// Identical up to clause-level whitespace and comments (sub-query
	// block bytes unchanged): must hit the result cache with zeroed
	// stats (nothing executed).
	variant := "# same query, different surface syntax\nQUERY  q(?dept,  ?taux)\n\n" +
		"GRAPH  { ?x :position :headOfState . ?x :electedIn ?dept }\n" +
		"FROM  <sql://insee>  IN(?dept)  OUT(?dept, ?taux)\n" +
		"  { SELECT dept, taux FROM chomage WHERE dept = ? }\n"
	status, second := postCMQ(t, ts.URL, variant)
	if status != http.StatusOK {
		t.Fatalf("second request: status %d", status)
	}
	if !second.Cached {
		t.Error("second request missed the result cache")
	}
	if second.Stats.SubQueries != 0 {
		t.Errorf("cached request reported %d sub-queries", second.Stats.SubQueries)
	}
	if len(second.Rows) != 1 || string(second.Rows[0]) != row75 {
		t.Fatalf("cached rows: %s", second.Rows)
	}

	st := srv.Stats()
	if st.Requests != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("server stats: %+v", st)
	}
}

func TestServeProbeCacheAcrossQueries(t *testing.T) {
	in, cs := fixture(t)
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := postCMQ(t, ts.URL, testQuery); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	after1 := cs.executes.Load()
	if after1 == 0 {
		t.Fatal("no probe reached the source")
	}

	// A textually different query (result-cache miss) issuing the same
	// bind-join probes: the probe cache must answer them from memory.
	status, qr := postCMQ(t, ts.URL, testQuery+"LIMIT 1\n")
	if status != http.StatusOK || qr.Cached {
		t.Fatalf("status %d cached=%v", status, qr.Cached)
	}
	if qr.Stats.SubQueries == 0 {
		t.Errorf("limit query executed nothing: %+v", qr.Stats)
	}
	if got := cs.executes.Load(); got != after1 {
		t.Errorf("probe cache missed: %d source executions after second query (was %d)", got, after1)
	}
}

func TestServeMalformedQuery(t *testing.T) {
	in, _ := fixture(t)
	srv := server.New(in, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"bad json":    `{"query": `,
		"empty query": `{"query": ""}`,
		"parse error": `{"query": "QUERY oops("}`,
	} {
		resp, err := http.Post(ts.URL+"/cmq", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var qr cmqReply
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Errorf("%s: non-JSON error response: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if qr.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
	}

	// Unknown source is an execution error, not a client error.
	status, qr := postCMQ(t, ts.URL, `
QUERY q(?a)
FROM <sql://nope> OUT(?a) { SELECT dept FROM chomage }
`)
	if status != http.StatusUnprocessableEntity || qr.Error == "" {
		t.Errorf("unknown source: status %d error %q", status, qr.Error)
	}
}

func TestServeRawTextBody(t *testing.T) {
	in, _ := fixture(t)
	srv := server.New(in, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/cmq", "text/plain", strings.NewReader(testQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw body: status %d", resp.StatusCode)
	}
	var qr cmqReply
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 {
		t.Errorf("raw body rows: %+v", qr.Rows)
	}
}

func TestServeHealthzAndStats(t *testing.T) {
	in, _ := fixture(t)
	srv := server.New(in, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}

	postCMQ(t, ts.URL, testQuery)
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.SubQueries == 0 || st.CacheEntries != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestServeConcurrentRequests(t *testing.T) {
	in, _ := fixture(t)
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := []string{
		testQuery,
		testQuery + "LIMIT 1\n",
		strings.Replace(testQuery, ":headOfState", ":deputy", 1),
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i%len(queries)]
			status, qr := postCMQ(t, ts.URL, q)
			if status != http.StatusOK {
				errs <- fmt.Sprintf("request %d: status %d (%s)", i, status, qr.Error)
				return
			}
			if len(qr.Rows) != 1 {
				errs <- fmt.Sprintf("request %d: rows %+v", i, qr.Rows)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if st := srv.Stats(); st.Requests != 16 || st.Errors != 0 {
		t.Errorf("stats after concurrent load: %+v", st)
	}
}

func TestServeSingleFlightCoalesces(t *testing.T) {
	in, cs := fixture(t)
	cs.block = make(chan struct{})
	cs.started = make(chan struct{}, 1)
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	results := make(chan cmqReply, 2)
	go func() {
		_, qr := postCMQ(t, ts.URL, testQuery)
		results <- qr
	}()
	<-cs.started // leader is mid-execution

	go func() {
		_, qr := postCMQ(t, ts.URL, testQuery)
		results <- qr
	}()
	// Wait until the follower has joined the in-flight call, then
	// release the leader.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cs.block <- struct{}{}
	close(cs.block)

	for i := 0; i < 2; i++ {
		qr := <-results
		if len(qr.Rows) != 1 {
			t.Fatalf("result %d: %+v", i, qr)
		}
	}
	if got := cs.executes.Load(); got != 1 {
		t.Errorf("source executed %d times, want 1 (single-flight)", got)
	}
	if st := srv.Stats(); st.Coalesced != 1 {
		t.Errorf("coalesced count: %+v", st)
	}
}

// TestServeCountsEachRequestOnce: rounds of identical concurrent
// requests, each round a fresh key. Every request counts once, as a
// hit or a miss; every miss executed the query or joined an execution;
// and only those carry a trace, since a cache hit executed nothing.
func TestServeCountsEachRequestOnce(t *testing.T) {
	in, cs := fixture(t)
	srv := server.New(in, server.Options{ProbeCacheSize: -1, Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const rounds, clients = 20, 12
	var traced atomic.Int64
	for r := 0; r < rounds; r++ {
		body, err := json.Marshal(server.QueryRequest{Query: testQuery + fmt.Sprintf("LIMIT %d\n", r+1), Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/cmq", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var qr cmqReply
				if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil || len(qr.Rows) != 1 {
					t.Errorf("reply %+v, %v", qr, err)
				}
				if qr.Trace != nil {
					traced.Add(1)
				}
			}()
		}
		wg.Wait()
	}
	st := srv.Stats()
	if st.Requests != rounds*clients || st.CacheHits+st.CacheMisses != st.Requests {
		t.Errorf("%d requests, %d hits + %d misses", st.Requests, st.CacheHits, st.CacheMisses)
	}
	if executed := cs.executes.Load(); st.CacheMisses != executed+st.Coalesced {
		t.Errorf("%d misses, but %d executions + %d coalesced", st.CacheMisses, executed, st.Coalesced)
	}
	if traced.Load() != st.CacheMisses {
		t.Errorf("%d replies carry a trace, %d misses", traced.Load(), st.CacheMisses)
	}
}

// TestServeLiteralWhitespaceNotConflated is the regression test for the
// normalization bug: two queries differing only inside a quoted literal
// must not share a result-cache entry.
func TestServeLiteralWhitespaceNotConflated(t *testing.T) {
	in, _ := fixture(t)
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	one := `
QUERY q(?dept, ?taux)
FROM <sql://insee> OUT(?dept, ?taux) { SELECT dept, taux FROM chomage WHERE dept = '75' }
`
	two := strings.Replace(one, "'75'", "' 75'", 1)
	status, r1 := postCMQ(t, ts.URL, one)
	if status != http.StatusOK || len(r1.Rows) != 1 {
		t.Fatalf("first: status %d rows %+v", status, r1.Rows)
	}
	status, r2 := postCMQ(t, ts.URL, two)
	if status != http.StatusOK {
		t.Fatalf("second: status %d", status)
	}
	if r2.Cached {
		t.Fatal("literal-distinct query hit the other query's cache entry")
	}
	if len(r2.Rows) != 0 {
		t.Errorf("' 75' should match nothing, got %+v", r2.Rows)
	}
}

// TestServeNoResultCacheDisablesCoalescing: with ResultCacheSize < 0
// every request executes for itself — no cache, no single-flight.
func TestServeNoResultCacheDisablesCoalescing(t *testing.T) {
	in, cs := fixture(t)
	srv := server.New(in, server.Options{
		ResultCacheSize: -1,
		ProbeCacheSize:  -1,
		Exec:            core.ExecOptions{Parallel: true},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		status, qr := postCMQ(t, ts.URL, testQuery)
		if status != http.StatusOK || qr.Cached {
			t.Fatalf("request %d: status %d cached=%v", i, status, qr.Cached)
		}
		if qr.Stats.SubQueries == 0 {
			t.Errorf("request %d executed nothing", i)
		}
	}
	if got := cs.executes.Load(); got != 3 {
		t.Errorf("source executed %d times, want 3 (no caching anywhere)", got)
	}
	if st := srv.Stats(); st.CacheHits != 0 || st.Coalesced != 0 || st.CacheEntries != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestServeOversizedBodyRejected: a body over the 1 MB cap must be
// rejected outright, never truncated to a still-parseable prefix.
func TestServeOversizedBodyRejected(t *testing.T) {
	in, cs := fixture(t)
	srv := server.New(in, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := testQuery + "# " + strings.Repeat("x", 1<<20) + "\n"
	resp, err := http.Post(ts.URL+"/cmq", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", resp.StatusCode)
	}
	if got := cs.executes.Load(); got != 0 {
		t.Errorf("oversized body reached execution: %d source calls", got)
	}
}

// TestCanonicalKeySurfaceVariants: the cache key comes from the parsed
// query, so surface-syntax variants share a key and any semantic
// difference — including bytes inside sub-query blocks and
// hash-namespace IRIs — splits it.
func TestCanonicalKeySurfaceVariants(t *testing.T) {
	key := func(text string) string {
		q, _, err := core.ParseCMQ(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		return q.CanonicalKey()
	}
	base := "QUERY q(?dept)\nFROM <sql://insee> OUT(?dept) { SELECT dept FROM chomage WHERE dept = '75' }"
	cases := []struct {
		name, a, b string
		same       bool
	}{
		{"whitespace between clauses",
			base,
			"QUERY   q(?dept)\n\n\tFROM  <sql://insee>  OUT(?dept)  { SELECT dept FROM chomage WHERE dept = '75' }",
			true},
		{"comment outside blocks",
			base,
			"# lead comment\n" + base,
			true},
		{"whitespace inside a quoted literal",
			base,
			strings.Replace(base, "'75'", "' 75'", 1),
			false},
		{"hash-namespace IRI difference",
			"PREFIX ex: <http://ex/ns#A>\n" + base,
			"PREFIX ex: <http://ex/ns#B>\n" + base,
			false},
		{"newline inside block is preserved verbatim",
			strings.Replace(base, "WHERE dept = '75'", "WHERE\ndept = '75'", 1),
			strings.Replace(base, "WHERE dept = '75'", "WHERE dept = '75'", 1),
			false},
		{"limit difference",
			base,
			base + "\nLIMIT 1",
			false},
		{"distinct difference",
			base,
			base + "\nDISTINCT",
			false},
	}
	for _, c := range cases {
		if got := key(c.a) == key(c.b); got != c.same {
			t.Errorf("%s: key equality %v, want %v", c.name, got, c.same)
		}
	}
}

// TestServerReuseDoesNotStackWrappers: a second Server over the same
// instance must not wrap sources in a second Cached layer.
func TestServerReuseDoesNotStackWrappers(t *testing.T) {
	in, _ := fixture(t)
	server.New(in, server.Options{})
	server.New(in, server.Options{})
	s, err := in.ResolveSource("sql://insee")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := s.(*source.Cached)
	if !ok {
		t.Fatalf("source not wrapped: %T", s)
	}
	if _, double := c.Unwrap().(*source.Cached); double {
		t.Error("second server.New stacked a Cached inside a Cached")
	}
}
