package federation

import (
	"net/http/httptest"
	"testing"

	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
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

func servedRelSource(t *testing.T) (*httptest.Server, *relstore.Database) {
	t.Helper()
	db := relstore.NewDatabase("insee")
	loadTable(t, db, relstore.Schema{Name: "departements", PrimaryKey: []string{"code"}, Columns: []relstore.Column{
		{Name: "code", Type: value.String}, {Name: "name", Type: value.String},
		{Name: "population", Type: value.Int}}},
		[]any{"75", "Paris", 2187526}, []any{"92", "Hauts-de-Seine", 1609306})
	src := source.NewRelSource("sql://insee", db)
	srv := httptest.NewServer(Handler(src))
	t.Cleanup(srv.Close)
	return srv, db
}

func TestDialMeta(t *testing.T) {
	srv, _ := servedRelSource(t)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if c.URI() != "sql://insee" {
		t.Errorf("uri: %s", c.URI())
	}
	if c.Model() != source.RelationalModel {
		t.Errorf("model: %v", c.Model())
	}
	if len(c.Languages()) != 1 || c.Languages()[0] != source.LangSQL {
		t.Errorf("langs: %v", c.Languages())
	}
}

func TestRemoteQueryRoundTrip(t *testing.T) {
	srv, _ := servedRelSource(t)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(source.SubQuery{
		Language: source.LangSQL,
		Text:     "SELECT name, population FROM departements WHERE code = ?",
	}, []value.Value{value.NewString("92")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Str() != "Hauts-de-Seine" {
		t.Errorf("rows: %+v", res.Rows)
	}
	// Value kinds must survive the wire.
	if res.Rows[0][1].Kind() != value.Int || res.Rows[0][1].Int() != 1609306 {
		t.Errorf("population kind/value: %v %v", res.Rows[0][1].Kind(), res.Rows[0][1])
	}
}

func TestRemoteQueryError(t *testing.T) {
	srv, _ := servedRelSource(t)
	c, _ := Dial(srv.URL)
	_, err := c.Execute(source.SubQuery{
		Language: source.LangSQL,
		Text:     "SELECT nope FROM missing",
	}, nil)
	if err == nil {
		t.Error("remote error not propagated")
	}
}

func TestRemoteEstimate(t *testing.T) {
	srv, _ := servedRelSource(t)
	c, _ := Dial(srv.URL)
	rows, _ := c.Estimate(source.SubQuery{
		Language: source.LangSQL,
		Text:     "SELECT * FROM departements",
	}, 0)
	if rows != 2 {
		t.Errorf("remote estimate: %d", rows)
	}
}

func TestRemoteRDFSource(t *testing.T) {
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:POL1 :twitterAccount "fhollande" .
:POL2 :twitterAccount "jdupont" .
`))
	src := source.NewRDFSource("rdf://politics", g)
	srv := httptest.NewServer(Handler(src))
	defer srv.Close()

	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(source.SubQuery{
		Language: source.LangBGP,
		Text:     `q(?x, ?id) :- ?x <http://t.example/twitterAccount> ?id`,
		InVars:   []string{"id"},
	}, []value.Value{value.NewString("fhollande")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Str() != "http://t.example/POL1" {
		t.Errorf("remote bgp: %+v", res.Rows)
	}
}

func TestDialBadEndpoint(t *testing.T) {
	if _, err := Dial("http://127.0.0.1:1/nope"); err == nil {
		t.Error("dial to closed port should fail")
	}
}

func TestResolverDynamicDiscovery(t *testing.T) {
	srv, _ := servedRelSource(t)
	reg := source.NewRegistry()
	reg.SetFallback(Resolver())
	// The URI is "discovered" at runtime (it is the test server's URL,
	// as if read from an INSEE table) and resolved through the fallback.
	src, err := reg.Resolve(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := src.Execute(source.SubQuery{
		Language: source.LangSQL,
		Text:     "SELECT code FROM departements",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("dynamic discovery query: %+v", res.Rows)
	}
}
