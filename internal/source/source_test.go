package source

import (
	"testing"

	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/value"
)

func polGraph(t *testing.T) *rdf.Graph {
	t.Helper()
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
:politician rdfs:subClassOf :person .
`))
	return g
}

func relDB(t *testing.T) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase("insee")
	tbl, err := db.CreateTable(relstore.Schema{Name: "departements", PrimaryKey: []string{"code"},
		Columns: []relstore.Column{{Name: "code", Type: value.String}, {Name: "name", Type: value.String},
			{Name: "population", Type: value.Int}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []value.Row{
		{value.NewString("75"), value.NewString("Paris"), value.NewInt(2187526)},
		{value.NewString("92"), value.NewString("Hauts-de-Seine"), value.NewInt(1609306)},
	} {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func tweetIndex(t *testing.T) *fulltext.Index {
	t.Helper()
	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"text":              fulltext.TextField,
		"user.screen_name":  fulltext.KeywordField,
		"entities.hashtags": fulltext.KeywordField,
		"retweet_count":     fulltext.NumericField,
	})
	add := func(id, author, text string, tags []string, rt int) {
		d := &doc.Document{ID: id}
		d.Set("text", text)
		d.Set("user.screen_name", author)
		d.Set("retweet_count", rt)
		anyTags := make([]any, len(tags))
		for i, h := range tags {
			anyTags[i] = h
		}
		d.Set("entities.hashtags", anyTags)
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	add("t1", "fhollande", "solidarité nationale #SIA2016", []string{"SIA2016"}, 469)
	add("t2", "jdupont", "au salon #SIA2016", []string{"SIA2016"}, 12)
	add("t3", "amartin", "état d'urgence", []string{"EtatDurgence"}, 88)
	return ix
}

func TestRDFSourceExecute(t *testing.T) {
	s := NewRDFSource("rdf://politics", polGraph(t))
	res, err := s.Execute(SubQuery{
		Language: LangBGP,
		Text:     `q(?id) :- ?x <http://t.example/position> <http://t.example/headOfState> . ?x <http://t.example/twitterAccount> ?id`,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Str() != "fhollande" {
		t.Errorf("rows: %+v", res.Rows)
	}
	if res.Cols[0] != "id" {
		t.Errorf("cols: %v", res.Cols)
	}
}

func TestRDFSourceSaturated(t *testing.T) {
	s := NewRDFSource("rdf://politics", rdf.Saturate(polGraph(t)))
	res, err := s.Execute(SubQuery{
		Language: LangBGP,
		Text:     `q(?x) :- ?x a <http://t.example/person>`,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("saturated person count: %d", res.Len())
	}
	// Unsaturated source must see none.
	s2 := NewRDFSource("rdf://politics2", polGraph(t))
	res2, _ := s2.Execute(SubQuery{Language: LangBGP, Text: `q(?x) :- ?x a <http://t.example/person>`}, nil)
	if res2.Len() != 0 {
		t.Errorf("unsaturated person count: %d", res2.Len())
	}
}

func TestRDFSourceBindJoinParams(t *testing.T) {
	s := NewRDFSource("rdf://politics", polGraph(t))
	res, err := s.Execute(SubQuery{
		Language: LangBGP,
		Text:     `q(?x, ?id) :- ?x <http://t.example/twitterAccount> ?id`,
		InVars:   []string{"id"},
	}, []value.Value{value.NewString("jdupont")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Str() != "http://t.example/pol/POL02" {
		t.Errorf("bind join: %+v", res.Rows)
	}
}

func TestRDFSourceParamArityMismatch(t *testing.T) {
	s := NewRDFSource("rdf://x", polGraph(t))
	_, err := s.Execute(SubQuery{
		Language: LangBGP,
		Text:     `q(?x) :- ?x a <http://t.example/politician>`,
		InVars:   []string{"x"},
	}, nil)
	if err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestRDFSourceWrongLanguage(t *testing.T) {
	s := NewRDFSource("rdf://x", polGraph(t))
	if _, err := s.Execute(SubQuery{Language: LangSQL, Text: "SELECT 1"}, nil); err == nil {
		t.Error("wrong language accepted")
	}
}

func TestTermValueRoundTrip(t *testing.T) {
	terms := []rdf.Term{
		rdf.NewIRI("http://t.example/pol/POL01140"),
		rdf.NewLiteral("fhollande"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewTypedLiteral("2.5", rdf.XSDDecimal),
		rdf.NewTypedLiteral("true", rdf.XSDBoolean),
		rdf.NewBlank("b0"),
	}
	for _, term := range terms {
		v := TermToValue(term)
		back := ValueToTerm(v)
		if back != term {
			t.Errorf("round trip %v → %v → %v", term, v, back)
		}
	}
}

func TestValueToTermKinds(t *testing.T) {
	if ValueToTerm(value.NewString("http://x/y")).Kind != rdf.IRI {
		t.Error("IRI-looking string should become IRI")
	}
	if ValueToTerm(value.NewString("plain")).Kind != rdf.Literal {
		t.Error("plain string should become literal")
	}
	if tm := ValueToTerm(value.NewInt(5)); tm.Datatype != rdf.XSDInteger {
		t.Errorf("int term: %v", tm)
	}
}

func TestRelSourceExecute(t *testing.T) {
	s := NewRelSource("sql://insee", relDB(t))
	res, err := s.Execute(SubQuery{
		Language: LangSQL,
		Text:     "SELECT name, population FROM departements WHERE code = ?",
		InVars:   []string{"c"},
	}, []value.Value{value.NewString("75")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0].Str() != "Paris" {
		t.Errorf("rel rows: %+v", res.Rows)
	}
}

func TestRelSourceEstimate(t *testing.T) {
	s := NewRelSource("sql://insee", relDB(t))
	all, _ := s.Estimate(SubQuery{Language: LangSQL, Text: "SELECT * FROM departements"}, 0)
	filtered, _ := s.Estimate(SubQuery{Language: LangSQL, Text: "SELECT * FROM departements WHERE code = ?"}, 1)
	if all != 2 {
		t.Errorf("all estimate: %d", all)
	}
	if filtered >= all {
		t.Errorf("equality filter should reduce estimate: %d vs %d", filtered, all)
	}
	if rows, _ := s.Estimate(SubQuery{Language: LangSQL, Text: "not sql"}, 0); rows != -1 {
		t.Error("bad SQL estimate should be -1")
	}
}

func TestDocSourceExecute(t *testing.T) {
	s := NewDocSource("solr://tweets", tweetIndex(t))
	res, err := s.Execute(SubQuery{
		Language: LangSearch,
		Text:     "SEARCH tweets WHERE entities.hashtags = ? RETURN _id, user.screen_name ORDER BY retweet_count DESC",
		InVars:   []string{"h"},
	}, []value.Value{value.NewString("SIA2016")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("doc rows: %+v", res.Rows)
	}
	if res.Rows[0][1].Str() != "fhollande" { // 469 retweets first
		t.Errorf("order: %+v", res.Rows)
	}
}

func TestDocSourceEstimate(t *testing.T) {
	s := NewDocSource("solr://tweets", tweetIndex(t))
	exact, _ := s.Estimate(SubQuery{
		Language: LangSearch,
		Text:     "SEARCH tweets WHERE entities.hashtags = 'EtatDurgence' RETURN _id",
	}, 0)
	if exact != 1 {
		t.Errorf("exact keyword estimate: %d", exact)
	}
}

func TestRegistryResolve(t *testing.T) {
	reg := NewRegistry()
	s := NewRDFSource("rdf://politics", polGraph(t))
	if err := reg.Register(s); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(s); err == nil {
		t.Error("duplicate registration accepted")
	}
	got, err := reg.Resolve("rdf://politics")
	if err != nil || got != DataSource(s) {
		t.Errorf("resolve: %v %v", got, err)
	}
	if _, err := reg.Resolve("rdf://missing"); err == nil {
		t.Error("missing URI resolved")
	}
}

func TestRegistryFallback(t *testing.T) {
	reg := NewRegistry()
	called := ""
	reg.SetFallback(func(uri string) (DataSource, error) {
		called = uri
		return NewRDFSource(uri, rdf.NewGraph()), nil
	})
	// Non-HTTP URIs never hit the fallback.
	if _, err := reg.Resolve("rdf://nope"); err == nil {
		t.Error("non-http fallback should not fire")
	}
	if _, err := reg.Resolve("http://remote/source"); err != nil {
		t.Errorf("http fallback: %v", err)
	}
	if called != "http://remote/source" {
		t.Errorf("fallback called with %q", called)
	}
}

func TestRegistryByLanguage(t *testing.T) {
	reg := NewRegistry()
	reg.Register(NewRDFSource("rdf://a", polGraph(t)))
	reg.Register(NewRelSource("sql://b", relDB(t)))
	reg.Register(NewDocSource("solr://c", tweetIndex(t)))
	if n := len(reg.All()); n != 3 {
		t.Errorf("All: %d", n)
	}
	var sql []string
	for _, s := range reg.All() {
		if langs := s.Languages(); len(langs) == 1 && langs[0] == LangSQL {
			sql = append(sql, s.URI())
		}
	}
	if len(sql) != 1 || sql[0] != "sql://b" {
		t.Errorf("sources speaking SQL: %v", sql)
	}
}

func TestModelStrings(t *testing.T) {
	if RDFModel.String() != "rdf" || RelationalModel.String() != "relational" || DocumentModel.String() != "document" {
		t.Error("model strings")
	}
}

func TestRegistryDeregister(t *testing.T) {
	reg := NewRegistry()
	if reg.Deregister("rdf://politics") {
		t.Error("deregistering an unknown URI reported success")
	}
	if err := reg.Register(NewRDFSource("rdf://politics", polGraph(t))); err != nil {
		t.Fatal(err)
	}
	if !reg.Deregister("rdf://politics") {
		t.Fatal("deregister failed")
	}
	if _, err := reg.Resolve("rdf://politics"); err == nil {
		t.Error("deregistered source still resolves")
	}
	if len(reg.All()) != 0 {
		t.Errorf("All after deregister: %v", reg.All())
	}
	// The URI is free for a fresh registration afterwards.
	if err := reg.Register(NewRDFSource("rdf://politics", polGraph(t))); err != nil {
		t.Errorf("re-register after deregister: %v", err)
	}
}

// TestRegistryInvalidateCaches: the registry-wide flush reaches every
// interposed probe cache — registered sources via Invalidator, and
// dynamically discovered ones by discarding their memoized wrappers so
// they are re-dialed (and re-cached) fresh.
func TestRegistryInvalidateCaches(t *testing.T) {
	reg := NewRegistry()
	reg.Interpose(func(s DataSource) DataSource { return NewCached(s, 8) })
	if err := reg.Register(NewRelSource("sql://insee", relDB(t))); err != nil {
		t.Fatal(err)
	}
	dials := 0
	reg.SetFallback(func(uri string) (DataSource, error) {
		dials++
		return NewRelSource(uri, relDB(t)), nil
	})

	s, err := reg.Resolve("sql://insee")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(SubQuery{Language: LangSQL, Text: "SELECT * FROM departements"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Resolve("http://remote/db"); err != nil {
		t.Fatal(err)
	}
	if dials != 1 {
		t.Fatalf("dials before invalidation: %d", dials)
	}

	if dropped := reg.InvalidateCaches(); dropped != 1 {
		t.Errorf("InvalidateCaches dropped %d entries, want 1", dropped)
	}
	if st := s.(*Cached).Stats(); st.Entries != 0 {
		t.Errorf("registered probe cache not flushed: %+v", st)
	}
	// The fallback memo was cleared: the next resolution re-dials.
	if _, err := reg.Resolve("http://remote/db"); err != nil {
		t.Fatal(err)
	}
	if dials != 2 {
		t.Errorf("fallback memo not cleared: %d dials", dials)
	}
}

// TestRegistryLookupDoesNotDial: Lookup must only see materialized
// sources — an unknown URI returns false without triggering the
// fallback resolver's side effects (dialing, memo insertion).
func TestRegistryLookupDoesNotDial(t *testing.T) {
	reg := NewRegistry()
	reg.Interpose(func(s DataSource) DataSource { return NewCached(s, 8) })
	dials := 0
	reg.SetFallback(func(uri string) (DataSource, error) {
		dials++
		return NewRelSource(uri, relDB(t)), nil
	})

	if _, ok := reg.Lookup("http://remote/db"); ok {
		t.Error("Lookup materialized an unknown URI")
	}
	if dials != 0 {
		t.Fatalf("Lookup dialed: %d", dials)
	}
	if _, err := reg.Resolve("http://remote/db"); err != nil {
		t.Fatal(err)
	}
	if s, ok := reg.Lookup("http://remote/db"); !ok || s == nil {
		t.Error("Lookup missed a memoized dynamic source")
	}
	if dials != 1 {
		t.Errorf("Lookup of a memoized source re-dialed: %d", dials)
	}

	if err := reg.Register(NewRelSource("sql://local", relDB(t))); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Lookup("sql://local"); !ok {
		t.Error("Lookup missed a registered source")
	}
}
