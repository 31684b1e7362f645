package federation

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"tatooine/internal/source"
	"tatooine/internal/value"
)

var batchQuery = source.SubQuery{
	Language: source.LangSQL,
	Text:     "SELECT name, population FROM departements WHERE code = ?",
	InVars:   []string{"code"},
}

func codes(ss ...string) []value.Row {
	out := make([]value.Row, len(ss))
	for i, s := range ss {
		out[i] = value.Row{value.NewString(s)}
	}
	return out
}

// TestRemoteBatchRoundTrip ships a whole batch as one HTTP request and
// checks the per-tuple results match per-tuple remote execution.
func TestRemoteBatchRoundTrip(t *testing.T) {
	srv, _ := servedRelSource(t)
	var requests atomic.Int64
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		srv.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(counting.Close)

	c, err := Dial(counting.URL)
	if err != nil {
		t.Fatal(err)
	}
	requests.Store(0) // forget the /meta dial

	sets := codes("75", "92", "00")
	results, err := c.ExecuteBatch(batchQuery, sets)
	if err != nil {
		t.Fatal(err)
	}
	if got := requests.Load(); got != 1 {
		t.Errorf("batch used %d HTTP requests, want 1", got)
	}
	serial, err := source.ExecuteSerially(c, batchQuery, sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(sets) {
		t.Fatalf("results: %d", len(results))
	}
	for i := range sets {
		if len(results[i].Rows) != len(serial[i].Rows) {
			t.Fatalf("tuple %d: %d rows batched, %d per-probe", i, len(results[i].Rows), len(serial[i].Rows))
		}
		for j := range results[i].Rows {
			if results[i].Rows[j].Key() != serial[i].Rows[j].Key() {
				t.Errorf("tuple %d row %d: %v vs %v", i, j, results[i].Rows[j], serial[i].Rows[j])
			}
		}
	}
}

// unbatchableSource hides RelSource's BatchProber so the endpoint must
// take its serial server-side path.
type unbatchableSource struct{ source.DataSource }

func TestBatchEndpointServerSideLoopForPlainSources(t *testing.T) {
	_, db := servedRelSource(t)
	srv := httptest.NewServer(Handler(unbatchableSource{source.NewRelSource("sql://insee", db)}))
	t.Cleanup(srv.Close)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.ExecuteBatch(batchQuery, codes("75", "92"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Len() != 1 || results[0].Rows[0][0].Str() != "Paris" {
		t.Errorf("server-side loop results: %+v", results)
	}
}

// TestBatchEndpointError surfaces a remote execution error.
func TestBatchEndpointError(t *testing.T) {
	srv, _ := servedRelSource(t)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	bad := source.SubQuery{Language: source.LangSQL, Text: "SELECT x FROM missing WHERE x = ?", InVars: []string{"x"}}
	if _, err := c.ExecuteBatch(bad, codes("1")); err == nil {
		t.Error("expected remote error for unknown table")
	}
}
