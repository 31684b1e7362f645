package federation

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
	"tatooine/internal/xmlstore"
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

// postBatch posts body to url's /batch route in the frame media type.
func postBatch(t testing.TB, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/batch", batchMediaType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
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
		resp := postBatch(t, srv.URL, appendBatchRequest(nil, source.SubQuery{Language: source.LangSQL, Text: text}, []value.Row{{}}))
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", text, resp.StatusCode)
		}
	}
	if got := tableCounts(db); !maps.Equal(got, want) {
		t.Errorf("tables after the refused writes: %v, want %v", got, want)
	}
}

// fuzzSource is a source the batch fuzz target serves, with a
// description of its contents that no read may change.
type fuzzSource struct {
	src   source.DataSource
	state func() string
}

// fuzzSources are a relational, a document (keyword, numeric and time
// fields), an XML and an RDF source, in the order FuzzBatchHandler's
// first argument picks them.
func fuzzSources(t testing.TB) []fuzzSource {
	db := relstore.NewDatabase("insee")
	loadTable(t, db, relstore.Schema{Name: "departements", PrimaryKey: []string{"code"}, Columns: []relstore.Column{
		{Name: "code", Type: value.String}, {Name: "name", Type: value.String},
		{Name: "population", Type: value.Int}}},
		[]any{"75", "Paris", 2187526}, []any{"92", "Hauts-de-Seine", 1609306},
		[]any{"13", "Bouches-du-Rhone", 2043110})

	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"text": fulltext.TextField, "user": fulltext.KeywordField,
		"retweets": fulltext.NumericField, "at": fulltext.TimeField,
	})
	for i, user := range []string{"alice", "bob", "alice", "bad\xff"} {
		d := &doc.Document{ID: fmt.Sprintf("t%d", i)}
		d.Set("text", []string{"economie en hausse", "culture et sport", "economie et sport", "é"}[i])
		d.Set("user", user)
		d.Set("retweets", i*7)
		d.Set("at", time.Date(2016, 3, i+1, 12, 0, 0, 0, time.UTC).Format(time.RFC3339))
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}

	store := xmlstore.NewStore("speeches")
	if err := store.Add("d1", []byte(`<speeches>
<speech speaker="A"><topic>agriculture</topic></speech>
<speech speaker="B"><topic>economie</topic></speech>
<speech speaker="B"><topic>culture</topic></speech>
</speeches>`)); err != nil {
		t.Fatal(err)
	}

	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:p1 :account "alice" ; :party :left .
:p2 :account "bob" ; :party :right .
:p3 :account "carol" ; :party :left .
`))
	return []fuzzSource{
		{source.NewRelSource("sql://insee", db), func() string { return fmt.Sprint(tableCounts(db)) }},
		{source.NewDocSource("solr://tweets", ix), func() string { return fmt.Sprint(ix.Count()) }},
		{source.NewXMLSource("xml://speeches", store), func() string { return fmt.Sprint(store.Count()) }},
		{source.NewRDFSource("rdf://politics", g), func() string { return fmt.Sprint(g.Size()) }},
	}
}

// batchSeed is one FuzzBatchHandler seed: a source, a sub-query and
// its parameter tuples.
type batchSeed struct {
	src  uint8
	q    source.SubQuery
	sets []value.Row
}

func sqlSeed(text string, inVars []string, sets ...value.Row) batchSeed {
	return batchSeed{0, source.SubQuery{Language: source.LangSQL, Text: text, InVars: inVars}, sets}
}

// FuzzBatchHandler drives arbitrary bodies through the one data route
// over a relational, a document, an XML and an RDF source. The reply
// is 200, 400 (undecodable body) or 422 (the sub-query failed), and a
// 200 carries one result per parameter tuple, each the multiset
// Execute returns for that tuple. Whatever the body, each source keeps
// its contents: the route reads and never writes.
func FuzzBatchHandler(f *testing.F) {
	srcs := fuzzSources(f)
	str, vi := value.NewString, value.NewInt
	seeds := []batchSeed{
		sqlSeed("SELECT name, population FROM departements WHERE code = ?", []string{"code"},
			value.Row{str("75")}, value.Row{str("00")}, value.Row{str("75")}),
		sqlSeed("SELECT code FROM departements WHERE code = ? AND population > ?", []string{"c", "p"},
			value.Row{str("92"), vi(5)}, value.Row{str("13"), value.NewFloat(3e6)}),
		sqlSeed("SELECT code FROM departements WHERE code = ? ORDER BY population LIMIT 1", []string{"c"},
			value.Row{str("92")}, value.Row{value.NewNull()}),
		sqlSeed("SELECT DISTINCT name FROM departements", nil, nil),
		sqlSeed("SELECT name FROM departements WHERE code = ?", nil, value.Row{str("75")}, value.Row{}),
		{0, source.SubQuery{Language: source.LangBGP, Text: "q(?x) :- ?x ?p ?o"}, []value.Row{{}}},
		sqlSeed("SELECT", nil, value.Row{}),
		{0, source.SubQuery{}, []value.Row{{value.NewTime(time.Date(2016, 1, 2, 3, 4, 5, 0, time.UTC))}}},
		{}, // garbage, below
		sqlSeed("INSERT INTO departements VALUES ('99','Evil',1)", nil, value.Row{}),
		sqlSeed("CREATE TABLE pwned (x INT)", nil, value.Row{}),
		{1, source.SubQuery{Language: source.LangSearch, Text: "SEARCH tweets WHERE user = ? RETURN _id, retweets, at", InVars: []string{"u"}},
			[]value.Row{{str("alice")}, {str("bad\xff")}, {str("nobody")}}},
		{1, source.SubQuery{Language: source.LangSearch, Text: "SEARCH tweets WHERE retweets BETWEEN ? AND ? AND text CONTAINS 'sport' RETURN _id, text"},
			[]value.Row{{vi(0), vi(10)}, {value.NewFloat(-1), value.NewFloat(1e9)}}},
		{1, source.SubQuery{Language: source.LangSearch, Text: "SEARCH tweets WHERE at >= ? RETURN _id, user ORDER BY at LIMIT 2"},
			[]value.Row{{str("2016-03-02T00:00:00Z")}, {value.NewTime(time.Date(2016, 3, 3, 0, 0, 0, 0, time.UTC))}}},
		{2, source.SubQuery{Language: source.LangXPath, Text: "XPATH /speeches/speech[@speaker=?] RETURN _id, topic", InVars: []string{"n"}},
			[]value.Row{{str("A")}, {str("B")}, {str("C")}}},
		{2, source.SubQuery{Language: source.LangXPath, Text: "XPATH //topic RETURN _id"}, []value.Row{nil}},
		{3, source.SubQuery{Language: source.LangBGP, Text: "q(?x, ?p) :- ?x <http://t.example/account> ?a . ?x <http://t.example/party> ?p", InVars: []string{"a"}},
			[]value.Row{{str("alice")}, {str("bob")}, {str("dave")}}},
		{3, source.SubQuery{Language: source.LangBGP, Text: `q() :- <http://t.example/p1> <http://t.example/account> "alice"`}, []value.Row{{}}},
	}
	for _, s := range seeds {
		body := appendBatchRequest(nil, s.q, s.sets)
		if s.sets == nil {
			body = []byte("not a frame")
		}
		f.Add(s.src, body)
	}
	want := make([]string, len(srcs))
	handlers := make([]http.Handler, len(srcs))
	for i, s := range srcs {
		want[i], handlers[i] = s.state(), handlerMux(s.src)
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		i := int(which) % len(srcs)
		s := srcs[i]
		defer func() {
			if got := s.state(); got != want[i] {
				t.Errorf("%q changed %s: %s, want %s", body, s.src.URI(), got, want[i])
			}
		}()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", batchMediaType)
		handlers[i].ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			return
		case http.StatusOK:
			if ct := rec.Header().Get("Content-Type"); ct != batchMediaType {
				t.Fatalf("200 in media type %q", ct)
			}
		default:
			t.Fatalf("status %d for %q", rec.Code, body)
		}
		q, sets, err := readBatchRequest(bufio.NewReader(bytes.NewReader(body)))
		if err != nil {
			t.Fatalf("200 for a body the route cannot decode: %v", err)
		}
		results, err := readBatchReply(bufio.NewReader(rec.Body), len(sets))
		if err != nil {
			t.Fatalf("200 with an undecodable reply: %v", err)
		}
		for i, ps := range sets {
			want, err := s.src.Execute(q, ps)
			if err != nil {
				t.Fatalf("tuple %d answered over the wire, but Execute fails: %v", i, err)
			}
			if got := results[i]; !slices.Equal(multiset(got.Rows), multiset(want.Rows)) {
				t.Fatalf("tuple %d %v: wire rows %v, Execute rows %v", i, ps, got.Rows, want.Rows)
			}
		}
	})
}

// multiset is rows as a sorted list of keys, each value's kind in
// front of its key (an int and an integral float share a key).
func multiset(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b []byte
		for _, v := range r {
			b = value.AppendKeyFrame(append(b, byte(v.Kind())), v)
		}
		out[i] = string(b)
	}
	slices.Sort(out)
	return out
}

// TestBatchReplyFrames: a 200 reply is the frame layout, byte for byte,
// and it reads back to the results written:
// columns, and every row's values by kind and key, for empty and nil
// columns and rows and the empty batch.
func TestBatchReplyFrames(t *testing.T) {
	reply := appendBatchReply(nil, []*source.Result{{Cols: []string{"a"}, Rows: []value.Row{{value.NewInt(7)}}}, {}})
	const want = "02" + // two results
		"08" + "0001" + "01" + "00000001" + "61" + // columns frame: ["a"]
		"01" + // one row
		"0b" + "0001" + "02" + "0000000000000007" + // row frame: [7]
		"02" + "0000" + "00" // no columns, no rows
	if got := hex.EncodeToString(reply); got != want {
		t.Fatalf("reply bytes\n got %s\nwant %s", got, want)
	}

	awkward := value.Row{value.NewString("<a&b>\x00\xff"), value.NewNull(), value.NewInt(-7), value.NewFloat(2.5)}
	long := make([]value.Row, 3000)
	for i := range long {
		long[i] = value.Row{value.NewString(fmt.Sprintf("row %d", i)), value.NewBool(i%2 == 0)}
	}
	for i, results := range [][]*source.Result{
		{{Cols: []string{"name", "<pop>"}, Rows: []value.Row{awkward, {}, nil}}},
		{{Cols: []string{"x"}}, {Rows: []value.Row{awkward}}, {}, {Cols: []string{}, Rows: []value.Row{}}},
		{{Cols: []string{"s", "b"}, Rows: long}},
		{},
	} {
		got, err := readBatchReply(bufio.NewReader(bytes.NewReader(appendBatchReply(nil, results))), len(results))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for j, res := range results {
			if !slices.Equal(got[j].Cols, res.Cols) || !slices.Equal(multiset(got[j].Rows), multiset(res.Rows)) {
				t.Fatalf("case %d result %d: read %+v, wrote %+v", i, j, got[j], res)
			}
		}
	}
}

// BenchmarkBatchReplyDecode decodes a /batch reply of 64 results of 10
// rows of a string and an int, as ExecuteBatchContext decodes one.
func BenchmarkBatchReplyDecode(b *testing.B) {
	results := make([]*source.Result, 64)
	for i := range results {
		res := &source.Result{Cols: []string{"name", "population"}}
		for j := 0; j < 10; j++ {
			res.Rows = append(res.Rows, value.Row{value.NewString("Département " + string(rune('A'+j))), value.NewInt(int64(1000*i + j))})
		}
		results[i] = res
	}
	body := appendBatchReply(nil, results)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := readBatchReply(bufio.NewReader(bytes.NewReader(body)), len(results)); err != nil {
			b.Fatal(err)
		}
	}
}
