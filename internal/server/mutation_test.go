package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/federation"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/server"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// saturatedFixture builds a mutable mixed instance whose graph atom
// only answers through G∞ (heads of state are politicians via
// rdfs:subClassOf), so a stale saturation is observable end to end.
func saturatedFixture(t testing.TB) (*core.Instance, *countingSource) {
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:headOfState rdfs:subClassOf :politician .
:p1 a :headOfState ; :electedIn "75" .
`))
	in := core.NewInstance(g, core.WithSaturation(),
		core.WithPrefixes(map[string]string{"": "http://t.example/"}))

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

const saturatedQuery = `
QUERY q(?dept, ?taux)
GRAPH { ?x a :politician . ?x :electedIn ?dept }
FROM <sql://insee> IN(?dept) OUT(?dept, ?taux)
  { SELECT dept, taux FROM chomage WHERE dept = ? }
`

func getStats(t testing.TB, url string) server.Stats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func postJSON(t testing.TB, url string, body any) (int, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestMutationInvalidationEndToEnd is the acceptance test of the
// epoch-based invalidation subsystem: the instance is mutated through
// the server (graph insert, then source drop) and the VERY NEXT
// POST /cmq must reflect each mutation — no stale result-cache,
// probe-cache, or saturation hit — while /stats reports the advancing
// epoch and the invalidation counters.
func TestMutationInvalidationEndToEnd(t *testing.T) {
	in, cs := saturatedFixture(t)
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// AddSource in the fixture already bumped the epoch once.
	baseEpoch := in.Epoch()

	status, first := postCMQ(t, ts.URL, saturatedQuery)
	if status != http.StatusOK || first.Cached {
		t.Fatalf("first query: status %d cached=%v", status, first.Cached)
	}
	if len(first.Rows) != 1 || first.Rows[0][0].Str() != "75" {
		t.Fatalf("pre-mutation rows: %+v", first.Rows)
	}
	execsBefore := cs.executes.Load()

	// Mutate G through the server: :p9 is a head of state, hence a
	// politician only in a saturation computed AFTER this insert.
	status, gr := postJSON(t, ts.URL+"/graph", server.GraphRequest{Triples: `
@prefix : <http://t.example/> .
:p9 a :headOfState ; :electedIn "92" .
`})
	if status != http.StatusOK {
		t.Fatalf("graph insert: status %d %v", status, gr)
	}
	if gr["changed"].(float64) != 2 {
		t.Fatalf("graph insert changed %v triples, want 2", gr["changed"])
	}
	if uint64(gr["epoch"].(float64)) != baseEpoch+1 {
		t.Fatalf("graph insert epoch %v, want %d", gr["epoch"], baseEpoch+1)
	}

	// The very next query must see the new politician: the result cache
	// may not serve the pre-mutation entry, the saturation must
	// recompute, and the new dept probe must reach the source.
	status, second := postCMQ(t, ts.URL, saturatedQuery)
	if status != http.StatusOK {
		t.Fatalf("post-insert query: status %d (%s)", status, second.Error)
	}
	if second.Cached {
		t.Fatal("post-insert query served from the pre-mutation result cache")
	}
	if len(second.Rows) != 2 {
		t.Fatalf("post-insert rows = %d, want 2: %+v", len(second.Rows), second.Rows)
	}
	depts := map[string]bool{}
	for _, r := range second.Rows {
		depts[r[0].Str()] = true
	}
	if !depts["75"] || !depts["92"] {
		t.Fatalf("post-insert depts: %+v", second.Rows)
	}
	if got := cs.executes.Load(); got <= execsBefore {
		t.Error("new dept probe never reached the source (stale probe answer)")
	}

	// Drop the relational source through the server; the very next
	// identical query must fail to resolve it — not serve cached rows.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/sources?uri="+url.QueryEscape("sql://insee"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("source drop: status %d", resp.StatusCode)
	}

	status, third := postCMQ(t, ts.URL, saturatedQuery)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("post-drop query: status %d rows %+v (stale cache served a dropped source)", status, third.Rows)
	}
	if !strings.Contains(third.Error, "sql://insee") {
		t.Errorf("post-drop error: %q", third.Error)
	}

	st := getStats(t, ts.URL)
	if st.Epoch != baseEpoch+2 {
		t.Errorf("stats epoch = %d, want %d", st.Epoch, baseEpoch+2)
	}
	if st.Mutations != 2 {
		t.Errorf("stats mutations = %d, want 2", st.Mutations)
	}
	if st.Invalidations != 2 {
		t.Errorf("stats invalidations = %d, want 2 (one generation flush per mutation)", st.Invalidations)
	}
	if st.CacheHits != 0 {
		t.Errorf("a post-mutation query hit the result cache: %+v", st)
	}
}

// TestGraphRemoveOverHTTP: DELETE /graph removes triples (raw Turtle
// body form) and the next query stops seeing them.
func TestGraphRemoveOverHTTP(t *testing.T) {
	in, _ := saturatedFixture(t)
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, qr := postCMQ(t, ts.URL, saturatedQuery); status != http.StatusOK || len(qr.Rows) != 1 {
		t.Fatalf("seed query: status %d rows %+v", status, qr.Rows)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/graph",
		strings.NewReader("@prefix : <http://t.example/> .\n:p1 :electedIn \"75\" ."))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var gr server.GraphResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || gr.Changed != 1 {
		t.Fatalf("graph remove: status %d %+v", resp.StatusCode, gr)
	}

	status, qr := postCMQ(t, ts.URL, saturatedQuery)
	if status != http.StatusOK || qr.Cached {
		t.Fatalf("post-remove query: status %d cached=%v", status, qr.Cached)
	}
	if len(qr.Rows) != 0 {
		t.Errorf("removed triple still answers: %+v", qr.Rows)
	}
}

// TestGraphInsertRejectsBadBodies: malformed Turtle and empty bodies
// are client errors and must not bump the epoch.
func TestGraphInsertRejectsBadBodies(t *testing.T) {
	in, _ := saturatedFixture(t)
	srv := server.New(in, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	epoch := in.Epoch()

	for name, body := range map[string]string{
		"empty":      "",
		"bad turtle": ":p10 :electedIn",
	} {
		resp, err := http.Post(ts.URL+"/graph", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if in.Epoch() != epoch {
		t.Errorf("rejected mutations bumped the epoch to %d", in.Epoch())
	}
}

// TestAddSourceOverHTTP: POST /sources dials a federation endpoint,
// registers it (probe-cache wrapped like any seed source), and the
// next query can use it without a server restart.
func TestAddSourceOverHTTP(t *testing.T) {
	in, _ := saturatedFixture(t)
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	db := relstore.NewDatabase("remote")
	loadTable(t, db, relstore.Schema{Name: "pop", Columns: []relstore.Column{
		{Name: "dept", Type: value.String}, {Name: "habitants", Type: value.Int}}},
		[]any{"75", 2148000})
	endpoint := httptest.NewServer(federation.Handler(source.NewRelSource("sql://pop", db)))
	defer endpoint.Close()

	status, sr := postJSON(t, ts.URL+"/sources", server.SourceRequest{URL: endpoint.URL})
	if status != http.StatusOK || sr["uri"] != "sql://pop" {
		t.Fatalf("source add: status %d %v", status, sr)
	}

	// The registered remote is decorated with the probe cache.
	s, err := in.ResolveSource("sql://pop")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*source.Cached); !ok {
		t.Errorf("HTTP-registered source not probe-cache wrapped: %T", s)
	}

	status, qr := postCMQ(t, ts.URL, `
QUERY q(?dept, ?habitants)
FROM <sql://pop> OUT(?dept, ?habitants) { SELECT dept, habitants FROM pop }
`)
	if status != http.StatusOK || len(qr.Rows) != 1 {
		t.Fatalf("query over added source: status %d rows %+v (%s)", status, qr.Rows, qr.Error)
	}

	// Registering the same endpoint twice is a conflict.
	if status, _ := postJSON(t, ts.URL+"/sources", server.SourceRequest{URL: endpoint.URL}); status != http.StatusConflict {
		t.Errorf("duplicate source add: status %d, want 409", status)
	}
	// An undialable URL is a bad gateway.
	if status, _ := postJSON(t, ts.URL+"/sources", server.SourceRequest{URL: "http://127.0.0.1:1"}); status != http.StatusBadGateway {
		t.Errorf("undialable source add: status %d, want 502", status)
	}
}

// TestDropSourceEscapedPath: the path-escaped DELETE /sources/{uri}
// form resolves the same as the query-parameter form.
func TestDropSourceEscapedPath(t *testing.T) {
	in, _ := saturatedFixture(t)
	srv := server.New(in, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/sources/"+url.PathEscape("sql://insee"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr server.SourceResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sr.URI != "sql://insee" {
		t.Fatalf("escaped-path drop: status %d %+v", resp.StatusCode, sr)
	}
	// Dropping it again is a 404.
	resp, err = http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("second drop: status %d, want 404", resp.StatusCode)
	}
}

// TestAdminInvalidateFlushesProbeCache: POST /admin/invalidate drops
// memoized probe rows so the next identical query re-executes against
// the (externally mutated) source, and /stats counts the drop.
func TestAdminInvalidateFlushesProbeCache(t *testing.T) {
	in, cs := saturatedFixture(t)
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := postCMQ(t, ts.URL, saturatedQuery); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	execs := cs.executes.Load()
	if execs == 0 {
		t.Fatal("no probe reached the source")
	}

	status, ir := postJSON(t, ts.URL+"/admin/invalidate", server.InvalidateRequest{})
	if status != http.StatusOK {
		t.Fatalf("invalidate: status %d %v", status, ir)
	}
	if ir["probeEntries"].(float64) == 0 {
		t.Fatalf("invalidate dropped no probe entries: %v", ir)
	}

	// Epoch bumped → result cache rotated; probe cache flushed → the
	// same probes travel to the source again.
	status, qr := postCMQ(t, ts.URL, saturatedQuery)
	if status != http.StatusOK || qr.Cached {
		t.Fatalf("post-invalidate query: status %d cached=%v", status, qr.Cached)
	}
	if got := cs.executes.Load(); got <= execs {
		t.Errorf("post-invalidate probes served from flushed cache: %d executions (was %d)", got, execs)
	}

	st := getStats(t, ts.URL)
	if st.ProbeInvalidations == 0 {
		t.Errorf("stats probeInvalidations = 0: %+v", st)
	}

	// Scoped form: an unknown source is a 404.
	status, _ = postJSON(t, ts.URL+"/admin/invalidate", server.InvalidateRequest{Source: "sql://nope"})
	if status != http.StatusNotFound {
		t.Errorf("scoped invalidate of unknown source: status %d, want 404", status)
	}
	// Scoped form against the real source succeeds.
	status, ir = postJSON(t, ts.URL+"/admin/invalidate", server.InvalidateRequest{Source: "sql://insee"})
	if status != http.StatusOK {
		t.Errorf("scoped invalidate: status %d %v", status, ir)
	}
}

// TestAdminInvalidateResponseShape pins the JSON contract of POST
// /admin/invalidate: a successful invalidation ALWAYS carries epoch
// and probeEntries — probeEntries is an explicit 0 when nothing was
// cached, never absent — while an error response carries only error
// (no meaningless zero epoch or probeEntries).
func TestAdminInvalidateResponseShape(t *testing.T) {
	in, _ := saturatedFixture(t)
	// Probe caching disabled: nothing is ever cached, so the flush
	// drops 0 entries — which must still serialize as an explicit 0.
	srv := server.New(in, server.Options{ProbeCacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	epochBefore := in.Epoch()
	status, ir := postJSON(t, ts.URL+"/admin/invalidate", server.InvalidateRequest{})
	if status != http.StatusOK {
		t.Fatalf("invalidate: status %d %v", status, ir)
	}
	pe, ok := ir["probeEntries"]
	if !ok {
		t.Fatalf("success response must carry probeEntries even when 0: %v", ir)
	}
	if pe.(float64) != 0 {
		t.Errorf("probeEntries = %v, want 0 with probe caching disabled", pe)
	}
	if ep, ok := ir["epoch"]; !ok || ep.(float64) != float64(epochBefore+1) {
		t.Errorf("epoch = %v, want %d (the bump happens even when nothing was cached)", ir["epoch"], epochBefore+1)
	}
	if _, ok := ir["error"]; ok {
		t.Errorf("success response must not carry error: %v", ir)
	}

	// Error response: only error, no zero-valued epoch/probeEntries.
	status, ir = postJSON(t, ts.URL+"/admin/invalidate", server.InvalidateRequest{Source: "sql://nope"})
	if status != http.StatusNotFound {
		t.Fatalf("unknown source: status %d, want 404", status)
	}
	if _, ok := ir["error"]; !ok {
		t.Errorf("error response must carry error: %v", ir)
	}
	for _, k := range []string{"epoch", "probeEntries"} {
		if _, ok := ir[k]; ok {
			t.Errorf("error response must omit %s: %v", k, ir)
		}
	}
}

// TestStatsSaturationBlock: /stats surfaces how G∞ is maintained —
// delta mode absorbs a mutation without a second full recompute.
func TestStatsSaturationBlock(t *testing.T) {
	in, _ := saturatedFixture(t)
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := postCMQ(t, ts.URL, saturatedQuery); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	st := getStats(t, ts.URL)
	if st.Saturation.Mode != "delta" {
		t.Fatalf("saturation mode = %q, want delta", st.Saturation.Mode)
	}
	if st.Saturation.FullRecomputes != 1 || st.Saturation.Derived == 0 {
		t.Errorf("after first query: %+v, want 1 full recompute and derived > 0", st.Saturation)
	}

	status, gr := postJSON(t, ts.URL+"/graph", server.GraphRequest{Triples: `
@prefix : <http://t.example/> .
:p7 a :headOfState ; :electedIn "92" .
`})
	if status != http.StatusOK {
		t.Fatalf("graph insert: status %d %v", status, gr)
	}
	st = getStats(t, ts.URL)
	if st.Saturation.DeltaApplies != 1 || st.Saturation.FullRecomputes != 1 {
		t.Errorf("after mutation: %+v, want the insert absorbed as a delta apply", st.Saturation)
	}
}

// TestAdminInvalidateRejectsNonJSONBody: a non-empty body that is not
// JSON must be a 400 — silently ignoring it would turn an intended
// source-scoped invalidation into a full flush.
func TestAdminInvalidateRejectsNonJSONBody(t *testing.T) {
	in, _ := saturatedFixture(t)
	srv := server.New(in, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	epoch := in.Epoch()

	// curl -d defaults to application/x-www-form-urlencoded.
	resp, err := http.Post(ts.URL+"/admin/invalidate", "application/x-www-form-urlencoded",
		strings.NewReader(`{"source":"sql://insee"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-JSON body: status %d, want 400", resp.StatusCode)
	}
	if in.Epoch() != epoch {
		t.Errorf("rejected invalidation bumped the epoch to %d", in.Epoch())
	}

	// An empty body remains the documented full-flush form.
	resp, err = http.Post(ts.URL+"/admin/invalidate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("empty body: status %d, want 200", resp.StatusCode)
	}
}
