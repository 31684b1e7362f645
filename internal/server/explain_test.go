package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/server"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// batchFixture is like fixture but keeps the relational source's
// native BatchProber capability (no counting wrapper) and binds two
// distinct departments so the bind join actually batches.
func batchFixture(t testing.TB) *core.Instance {
	t.Helper()
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:p1 a :politician ; :position :headOfState ; :electedIn "75" .
:p2 a :politician ; :position :headOfState ; :electedIn "92" .
`))
	in := core.NewInstance(g, core.WithPrefixes(map[string]string{"": "http://t.example/"}))
	db := relstore.NewDatabase("insee")
	loadTable(t, db, relstore.Schema{Name: "chomage", Columns: []relstore.Column{
		{Name: "dept", Type: value.String}, {Name: "taux", Type: value.Float}}},
		[]any{"75", 8.4}, []any{"92", 7.2})
	if err := in.AddSource(source.NewRelSource("sql://insee", db)); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestServeBatchedBindJoinCountsBatchProbes checks the whole stack:
// a bind join with two distinct bindings against a batch-capable
// source (RelSource under the interposed probe cache) ships ONE
// batched probe, and the server surfaces it on /stats.
func TestServeBatchedBindJoinCountsBatchProbes(t *testing.T) {
	srv := server.New(batchFixture(t), server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, qr := postCMQ(t, ts.URL, testQuery)
	if code != http.StatusOK || qr.Error != "" {
		t.Fatalf("status %d, err %q", code, qr.Error)
	}
	if len(qr.Rows) != 2 {
		t.Fatalf("rows: %+v", qr.Rows)
	}
	// Graph scan + one batched probe covering both bindings.
	if qr.Stats.SubQueries != 2 || qr.Stats.BatchProbes != 1 || qr.Stats.BindJoins != 1 {
		t.Errorf("exec stats: %+v", qr.Stats)
	}
	st := srv.Stats()
	if st.BatchProbes != 1 || st.SubQueries != 2 {
		t.Errorf("server stats: %+v", st)
	}
}

// TestServeExplainPlansWithoutExecuting checks POST /cmq with
// {"explain": true}: the response carries the plan and per-atom batch
// decisions, nothing executes, and nothing is cached.
func TestServeExplainPlansWithoutExecuting(t *testing.T) {
	in, cs := fixture(t) // counting wrapper hides BatchProber
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(server.QueryRequest{Query: testQuery, Explain: true})
	resp, err := http.Post(ts.URL+"/cmq", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || qr.Error != "" {
		t.Fatalf("status %d, err %q", resp.StatusCode, qr.Error)
	}
	if qr.Explain == nil || !strings.Contains(qr.Explain.Plan, "bind-join") {
		t.Fatalf("explain payload: %+v", qr.Explain)
	}
	if len(qr.Explain.Atoms) != 2 {
		t.Fatalf("atoms: %+v", qr.Explain.Atoms)
	}
	var bindAtom *core.AtomExplain
	for i := range qr.Explain.Atoms {
		if strings.HasPrefix(qr.Explain.Atoms[i].Mode, "bind-join") {
			bindAtom = &qr.Explain.Atoms[i]
		}
	}
	if bindAtom == nil {
		t.Fatalf("no bind-join atom in %+v", qr.Explain.Atoms)
	}
	// The counting wrapper hides the BatchProber capability, so the
	// decision must be per-probe with a capability reason.
	if bindAtom.Batched || !strings.Contains(bindAtom.Reason, "BatchProber") {
		t.Errorf("bind atom decision: %+v", bindAtom)
	}
	if len(qr.Rows) != 0 {
		t.Errorf("explain returned rows: %+v", qr.Rows)
	}
	if got := cs.executes.Load(); got != 0 {
		t.Errorf("explain executed %d probes", got)
	}
	if st := srv.Stats(); st.SubQueries != 0 || st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 {
		t.Errorf("explain touched execution/caches: %+v", st)
	}
}

// TestServeExplainBatchCapable checks the positive decision: a
// batch-capable source reports Batched=true with the effective batch
// size.
func TestServeExplainBatchCapable(t *testing.T) {
	srv := server.New(batchFixture(t), server.Options{Exec: core.ExecOptions{Parallel: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(server.QueryRequest{Query: testQuery, Explain: true})
	resp, err := http.Post(ts.URL+"/cmq", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range qr.Explain.Atoms {
		if strings.HasPrefix(a.Mode, "bind-join") {
			found = true
			if !a.Batched || a.BatchSize != core.DefaultProbeBatch {
				t.Errorf("batch decision: %+v", a)
			}
		}
	}
	if !found {
		t.Fatalf("no bind-join atom: %+v", qr.Explain)
	}
}
