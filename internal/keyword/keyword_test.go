package keyword

import (
	"strings"
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/digest"
	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
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

// fixture builds the paper's running mixed instance: politics graph,
// tweets, and an INSEE-like table.
func fixture(t testing.TB) *core.Instance {
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
@prefix pol: <http://t.example/pol/> .
pol:POL01140 a :politician ;
  :position :headOfState ;
  :twitterAccount "fhollande" .
pol:POL02 a :politician ;
  :position :deputy ;
  :twitterAccount "jdupont" .
`))
	in := core.NewInstance(g, core.WithPrefixes(map[string]string{"": "http://t.example/"}))

	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"text":              fulltext.TextField,
		"user.screen_name":  fulltext.KeywordField,
		"entities.hashtags": fulltext.KeywordField,
	})
	add := func(id, author, text string, tags []string) {
		d := &doc.Document{ID: id}
		d.Set("text", text)
		d.Set("user.screen_name", author)
		anyTags := make([]any, len(tags))
		for i, h := range tags {
			anyTags[i] = h
		}
		d.Set("entities.hashtags", anyTags)
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	add("t1", "fhollande", "solidarité au salon #SIA2016", []string{"SIA2016"})
	add("t2", "jdupont", "les agriculteurs #SIA2016", []string{"SIA2016"})
	add("t3", "fhollande", "état d'urgence", []string{"EtatDurgence"})
	if err := in.AddSource(source.NewDocSource("solr://tweets", ix)); err != nil {
		t.Fatal(err)
	}

	db := relstore.NewDatabase("insee")
	loadTable(t, db, relstore.Schema{Name: "departements", PrimaryKey: []string{"code"}, Columns: []relstore.Column{
		{Name: "code", Type: value.String}, {Name: "name", Type: value.String},
		{Name: "population", Type: value.Int}}},
		[]any{"75", "Paris", 2187526}, []any{"92", "Hauts-de-Seine", 1609306})
	if err := in.AddSource(source.NewRelSource("sql://insee", db)); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCatalogDigestsAndOverlaps(t *testing.T) {
	in := fixture(t)
	c := BuildCatalog(in)
	if len(c.Digests()) != 3 { // G + tweets + insee
		t.Fatalf("digests: %d", len(c.Digests()))
	}
	// The twitterAccount ↔ user.screen_name overlap edge must exist.
	tw := c.nodes["tatooine:G#http://t.example/twitterAccount"]
	sn := c.nodes["solr://tweets#user.screen_name"]
	if tw == nil || sn == nil {
		t.Fatal("bridge nodes missing")
	}
	found := false
	for _, e := range c.adj[tw.ID] {
		if e.To == sn.ID && e.Kind == digest.ValueOverlap {
			found = true
		}
	}
	if !found {
		t.Error("value overlap edge missing between twitterAccount and user.screen_name")
	}
}

func TestMatchesKeywordLocation(t *testing.T) {
	in := fixture(t)
	c := BuildCatalog(in)
	matches, err := c.Matches([]string{"head of state", "SIA2016"})
	if err != nil {
		t.Fatal(err)
	}
	// "head of state" must hit the position property in G.
	foundPos := false
	for _, m := range matches[0] {
		if m.Node.Label == "http://t.example/position" {
			foundPos = true
		}
	}
	if !foundPos {
		t.Errorf("head of state matches: %+v", matches[0])
	}
	// "SIA2016" must hit the hashtags path.
	foundTag := false
	for _, m := range matches[1] {
		if m.Node.Label == "entities.hashtags" {
			foundTag = true
		}
	}
	if !foundTag {
		t.Errorf("SIA2016 matches: %+v", matches[1])
	}
	if _, err := c.Matches([]string{"zzznothing"}); err == nil {
		t.Error("unmatched keyword accepted")
	}
}

// TestPaperExampleKeywordToQSIA reproduces §2.2: from the keywords
// "head of state" and "SIA2016", the engine generates a structured
// query equivalent to qSIA and its execution finds Hollande's tweet.
func TestPaperExampleKeywordToQSIA(t *testing.T) {
	in := fixture(t)
	c := BuildCatalog(in)
	cands, err := c.Search([]string{"head of state", "SIA2016"}, SearchOptions{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	// At least one candidate must execute and return exactly tweet t1.
	for _, cand := range cands {
		res, err := in.Execute(cand.Query)
		if err != nil {
			t.Logf("candidate failed (%v): %s", err, cand.Query)
			continue
		}
		if len(res.Rows) == 0 {
			continue
		}
		// The result must reference t1 (the head of state's SIA tweet)
		// in some column.
		for _, row := range res.Rows {
			for _, v := range row {
				if v.Str() == "t1" {
					return // success
				}
			}
		}
	}
	t.Errorf("no candidate produced t1; candidates: %d", len(cands))
}

func TestSearchSingleKeyword(t *testing.T) {
	in := fixture(t)
	c := BuildCatalog(in)
	cands, err := c.Search([]string{"SIA2016"}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Execute(cands[0].Query)
	if err != nil {
		t.Fatalf("execute: %v (%s)", err, cands[0].Query)
	}
	if len(res.Rows) != 2 { // t1 and t2 carry the hashtag
		t.Errorf("single keyword rows: %+v", res.Rows)
	}
}

func TestSearchWithinRelationalSource(t *testing.T) {
	in := fixture(t)
	c := BuildCatalog(in)
	cands, err := c.Search([]string{"Paris"}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Execute(cands[0].Query)
	if err != nil {
		t.Fatalf("execute: %v (%s)", err, cands[0].Query)
	}
	if len(res.Rows) != 1 {
		t.Errorf("Paris rows: %+v", res.Rows)
	}
}

func TestSearchRanksShorterPathsFirst(t *testing.T) {
	in := fixture(t)
	c := BuildCatalog(in)
	cands, err := c.Search([]string{"fhollande", "SIA2016"}, SearchOptions{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Weight > cands[i].Weight {
			t.Errorf("candidates not sorted by weight: %v", cands)
		}
	}
}

func TestSearchNoJoinPath(t *testing.T) {
	// Keywords in disconnected sources with no overlap → error.
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`@prefix : <http://e/> . :a :p "isolatedvalue1" .`))
	in := core.NewInstance(g)
	db := relstore.NewDatabase("d")
	loadTable(t, db, relstore.Schema{Name: "t", Columns: []relstore.Column{
		{Name: "c", Type: value.String}}},
		[]any{"isolatedvalue2"})
	in.AddSource(source.NewRelSource("sql://d", db))
	c := BuildCatalog(in)
	if _, err := c.Search([]string{"isolatedvalue1", "isolatedvalue2"}, SearchOptions{}); err == nil {
		t.Error("expected no-join-path error")
	}
}

func TestExplainPath(t *testing.T) {
	in := fixture(t)
	c := BuildCatalog(in)
	cands, err := c.Search([]string{"head of state", "SIA2016"}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := c.Explain(cands[0])
	if !strings.Contains(out, "->") {
		t.Errorf("explain: %s", out)
	}
}

func TestGeneratedQueryIsBindJoinChain(t *testing.T) {
	in := fixture(t)
	c := BuildCatalog(in)
	cands, err := c.Search([]string{"head of state", "SIA2016"}, SearchOptions{MaxCandidates: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := cands[0].Query
	if len(q.Atoms) < 2 {
		t.Fatalf("expected multi-atom query: %s", q)
	}
	// Every atom after the first must consume a shared variable.
	for i, a := range q.Atoms[1:] {
		if len(a.Sub.InVars) == 0 {
			t.Errorf("atom %d has no IN variables: %s", i+1, q)
		}
	}
}

// TestThreeKeywordSteinerPath exercises the >2-keyword heuristic: the
// path must visit matches of all three keywords.
func TestThreeKeywordSteinerPath(t *testing.T) {
	in := fixture(t)
	c := BuildCatalog(in)
	cands, err := c.Search([]string{"head of state", "fhollande", "SIA2016"}, SearchOptions{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	// The best candidate's path must include nodes from both G and the
	// tweet store.
	sources := map[string]bool{}
	for _, id := range cands[0].Path {
		if n := c.nodes[id]; n != nil {
			sources[n.Source] = true
		}
	}
	if !sources["tatooine:G"] || !sources["solr://tweets"] {
		t.Errorf("path sources: %v (path %v)", sources, cands[0].Path)
	}
}

// TestCandidateWeightsOrdered ensures Search returns candidates in
// non-decreasing weight order across mixed match sets.
func TestCandidateWeightsOrdered(t *testing.T) {
	in := fixture(t)
	c := BuildCatalog(in)
	cands, err := c.Search([]string{"SIA2016", "jdupont"}, SearchOptions{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Weight > cands[i].Weight {
			t.Errorf("weights out of order: %v", cands)
		}
	}
}
