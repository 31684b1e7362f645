package federation

import (
	"bytes"
	"encoding/json"
	"maps"
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

// tableCounts maps each table of db to its row count.
func tableCounts(db *relstore.Database) map[string]int {
	out := map[string]int{}
	for _, t := range db.Tables() {
		out[t.Name()] = t.RowCount()
	}
	return out
}

// TestBatchRefusesWrites: POST /batch reads its source and never writes
// it. INSERT and CREATE TABLE text is refused with 422, and the source
// keeps its tables and row counts.
func TestBatchRefusesWrites(t *testing.T) {
	srv, db := servedRelSource(t)
	want := tableCounts(db)
	for _, text := range []string{
		"INSERT INTO departements VALUES ('99','Evil',1)",
		"CREATE TABLE pwned (x INT)",
	} {
		body, err := json.Marshal(BatchRequest{Language: "sql", Text: text, ParamSets: []value.Row{{}}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", text, resp.StatusCode)
		}
	}
	if got := tableCounts(db); !maps.Equal(got, want) {
		t.Errorf("tables after the refused writes: %v, want %v", got, want)
	}
}

// FuzzBatchHandler drives arbitrary bodies through the one data route
// over a small RelSource. The reply is 200, 400 (undecodable body) or
// 422 (the sub-query failed), and a 200 carries one result per
// parameter set, each the multiset Execute returns for that tuple.
// Whatever the body, the source keeps its tables and row counts: the
// route reads and never writes.
func FuzzBatchHandler(f *testing.F) {
	db := relstore.NewDatabase("insee")
	loadTable(f, db, relstore.Schema{Name: "departements", PrimaryKey: []string{"code"}, Columns: []relstore.Column{
		{Name: "code", Type: value.String}, {Name: "name", Type: value.String},
		{Name: "population", Type: value.Int}}},
		[]any{"75", "Paris", 2187526}, []any{"92", "Hauts-de-Seine", 1609306},
		[]any{"13", "Bouches-du-Rhone", 2043110})
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
		`{"language":"sql","text":"INSERT INTO departements VALUES ('99','Evil',1)","paramSets":[[]]}`,
		`{"language":"sql","text":"CREATE TABLE pwned (x INT)","paramSets":[[]]}`,
	} {
		f.Add([]byte(body))
	}
	want := tableCounts(db)
	f.Fuzz(func(t *testing.T, body []byte) {
		defer func() {
			if got := tableCounts(db); !maps.Equal(got, want) {
				t.Errorf("%q changed the source: tables %v, want %v", body, got, want)
			}
		}()
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

// TestBatchReplyMatchesEncodingJSON: writeBatch writes exactly the
// bytes json.NewEncoder wrote for the same BatchResponse, including
// the results whose empty columns or rows the omitempty tags drop and
// the reply to an empty batch.
func TestBatchReplyMatchesEncodingJSON(t *testing.T) {
	awkward := value.Row{value.NewString("<a&b>\x00\xff"), value.NewNull(), value.NewInt(-7), value.NewFloat(2.5)}
	cases := [][]*source.Result{
		{{Cols: []string{"name", "<pop>"}, Rows: []value.Row{awkward, {}, nil}}},
		{{Cols: []string{"x"}}, {Rows: []value.Row{awkward}}, {}, {Cols: []string{}, Rows: []value.Row{}}},
		{},
	}
	for i, results := range cases {
		want := BatchResponse{}
		for _, res := range results {
			want.Results = append(want.Results, QueryResponse{Cols: res.Cols, Rows: res.Rows})
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeBatch(rec, results)
		if rec.Body.String() != buf.String() {
			t.Fatalf("case %d:\n got %s\nwant %s", i, rec.Body, buf.String())
		}
	}
}

// BenchmarkBatchReplyDecode decodes a /batch reply of 64 results of 10
// rows of a string and an int, as ExecuteBatchContext decodes one.
func BenchmarkBatchReplyDecode(b *testing.B) {
	var resp BatchResponse
	for i := 0; i < 64; i++ {
		qr := QueryResponse{Cols: []string{"name", "population"}}
		for j := 0; j < 10; j++ {
			qr.Rows = append(qr.Rows, value.Row{value.NewString("Département " + string(rune('A'+j))), value.NewInt(int64(1000*i + j))})
		}
		resp.Results = append(resp.Results, qr)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var br BatchResponse
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&br); err != nil {
			b.Fatal(err)
		}
	}
}
