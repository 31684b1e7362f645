package federation

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"

	"tatooine/internal/relstore"
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

// FuzzBatchHandler drives arbitrary bodies through the one data route
// over a small RelSource. The reply is 200, 400 (undecodable body) or
// 422 (the sub-query failed), and a 200 carries one result per
// parameter set, each the multiset Execute returns for that tuple.
func FuzzBatchHandler(f *testing.F) {
	db := relstore.NewDatabase("insee")
	for _, q := range []string{
		"CREATE TABLE departements (code TEXT PRIMARY KEY, name TEXT, population INT)",
		"INSERT INTO departements VALUES ('75','Paris',2187526), ('92','Hauts-de-Seine',1609306), ('13','Bouches-du-Rhone',2043110)",
	} {
		if _, err := db.Exec(q); err != nil {
			f.Fatal(err)
		}
	}
	src := source.NewRelSource("sql://insee", db)
	h := handlerMux(src)
	for _, body := range []string{
		`{"language":"sql","text":"SELECT name, population FROM departements WHERE code = ?","inVars":["code"],` +
			`"paramSets":[[{"k":"string","v":"75"}],[{"k":"string","v":"00"}],[{"k":"string","v":"75"}]]}`,
		`{"language":"sql","text":"SELECT code FROM departements WHERE code = ? AND population > ?","inVars":["c","p"],` +
			`"paramSets":[[{"k":"string","v":"92"},{"k":"int","v":"5"}],[{"k":"string","v":"13"},{"k":"float","v":"3e6"}]]}`,
		`{"language":"sql","text":"SELECT code FROM departements WHERE code = ? ORDER BY population LIMIT 1","inVars":["c"],` +
			`"paramSets":[[{"k":"string","v":"92"}],[{"k":"null"}]]}`,
		`{"language":"sql","text":"SELECT DISTINCT name FROM departements","paramSets":[null]}`,
		`{"language":"sql","text":"SELECT name FROM departements WHERE code = ?","paramSets":[[{"k":"string","v":"75"}],[]]}`,
		`{"language":"bgp","text":"q(?x) :- ?x ?p ?o","paramSets":[[]]}`,
		`{"language":"sql","text":"SELECT","paramSets":[[]]}`,
		`{"paramSets":[[{"k":"time","v":"2016-01-02T03:04:05Z"}]]}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}
		var req BatchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body the route cannot decode: %v", err)
		}
		var resp BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with an undecodable reply: %v", err)
		}
		if len(resp.Results) != len(req.ParamSets) {
			t.Fatalf("%d results for %d parameter sets", len(resp.Results), len(req.ParamSets))
		}
		q := source.SubQuery{Language: source.Language(req.Language), Text: req.Text, InVars: req.InVars}
		for i, ps := range req.ParamSets {
			want, err := src.Execute(q, ps)
			if err != nil {
				t.Fatalf("tuple %d answered over the wire, but Execute fails: %v", i, err)
			}
			if got := resp.Results[i]; !slices.Equal(multiset(got.Rows), multiset(want.Rows)) {
				t.Fatalf("tuple %d %v: wire rows %v, Execute rows %v", i, ps, got.Rows, want.Rows)
			}
		}
	})
}

// multiset is rows as a sorted list of keys.
func multiset(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Key()
	}
	slices.Sort(out)
	return out
}
