package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// fixtureInstance builds a mixed instance mirroring Figure 1: a custom
// politics RDF graph G, a Solr-like tweet source, and INSEE-like
// relational sources, one of which lists the URIs of further sources
// (for dynamic discovery).
func fixtureInstance(t testing.TB) *Instance {
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
@prefix pol: <http://t.example/pol/> .
pol:POL01140 a :politician ;
  :position :headOfState ;
  foaf:name "François Hollande" ;
  :twitterAccount "fhollande" ;
  :facebookAccount "fb.hollande" ;
  :memberOf :PS .
pol:POL02 a :politician ;
  :position :deputy ;
  foaf:name "Jean Dupont" ;
  :twitterAccount "jdupont" ;
  :facebookAccount "fb.dupont" ;
  :memberOf :LR .
pol:POL03 a :politician ;
  :position :senator ;
  foaf:name "Anne Martin" ;
  :twitterAccount "amartin" ;
  :memberOf :PS .
:PS :currentOf :left .
:LR :currentOf :right .
:politician rdfs:subClassOf :person .
`))
	in := NewInstance(g, WithPrefixes(map[string]string{
		"":    "http://t.example/",
		"pol": "http://t.example/pol/",
	}))

	// Tweets.
	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"text":              fulltext.TextField,
		"user.screen_name":  fulltext.KeywordField,
		"entities.hashtags": fulltext.KeywordField,
		"retweet_count":     fulltext.NumericField,
		"created_at":        fulltext.TimeField,
	})
	addTweet := func(id, author, text string, tags []string, rt int) {
		d := &doc.Document{ID: id}
		d.Set("text", text)
		d.Set("user.screen_name", author)
		d.Set("retweet_count", rt)
		d.Set("created_at", "2016-03-01T10:00:00Z")
		anyTags := make([]any, len(tags))
		for i, h := range tags {
			anyTags[i] = h
		}
		d.Set("entities.hashtags", anyTags)
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	addTweet("t1", "fhollande", "solidarité nationale au salon #SIA2016", []string{"SIA2016"}, 469)
	addTweet("t2", "jdupont", "les agriculteurs au salon #SIA2016", []string{"SIA2016"}, 12)
	addTweet("t3", "amartin", "état d'urgence au parlement", []string{"EtatDurgence"}, 88)
	addTweet("t4", "fhollande", "chômage en baisse", []string{"economie"}, 120)
	addTweet("t5", "jdupont", "le chômage explose #economie", []string{"economie"}, 30)
	if err := in.AddSource(source.NewDocSource("solr://tweets", ix)); err != nil {
		t.Fatal(err)
	}

	// INSEE-like relational source; the endpoints table lists further
	// source URIs for dynamic discovery.
	insee := relstore.NewDatabase("insee")
	for _, q := range []string{
		"CREATE TABLE chomage (dept TEXT, year INT, taux FLOAT)",
		"INSERT INTO chomage VALUES ('75', 2015, 8.4), ('75', 2016, 8.1), ('92', 2016, 7.2)",
		"CREATE TABLE endpoints (region TEXT, uri TEXT)",
		"INSERT INTO endpoints VALUES ('idf', 'sql://region-idf'), ('bretagne', 'sql://region-bzh')",
	} {
		if _, err := insee.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.AddSource(source.NewRelSource("sql://insee", insee)); err != nil {
		t.Fatal(err)
	}

	// Two regional databases, discovered through the endpoints table.
	for i, uri := range []string{"sql://region-idf", "sql://region-bzh"} {
		db := relstore.NewDatabase(uri)
		if _, err := db.Exec("CREATE TABLE stats (indicator TEXT, val INT)"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO stats VALUES ('population', %d)", (i+1)*1000)); err != nil {
			t.Fatal(err)
		}
		if err := in.AddSource(source.NewRelSource(uri, db)); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

// qSIAText is the paper's running query (§2.2): tweets from heads of
// state about #SIA2016.
const qSIAText = `
QUERY qSIA(?t, ?id)
GRAPH { ?x :position :headOfState . ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'SIA2016' RETURN _id, user.screen_name }
`

func TestQSIAEndToEnd(t *testing.T) {
	in := fixtureInstance(t)
	res, err := in.Query(qSIAText)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("qSIA rows: %+v", res.Rows)
	}
	if res.Rows[0][0].Str() != "t1" || res.Rows[0][1].Str() != "fhollande" {
		t.Errorf("qSIA row: %+v", res.Rows[0])
	}
	if res.Stats.BindJoins != 1 {
		t.Errorf("expected 1 bind join, stats: %+v", res.Stats)
	}
}

func TestAffiliationJoin(t *testing.T) {
	// "for each political affiliation, the tweet authors of that
	// affiliation having used a hashtag, with Facebook accounts" (§1).
	in := fixtureInstance(t)
	res, err := in.Query(`
QUERY q(?name, ?cur, ?fb, ?t)
GRAPH { ?x :memberOf ?p . ?p :currentOf ?cur . ?x foaf:name ?name .
        ?x :twitterAccount ?id . ?x :facebookAccount ?fb }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'economie' RETURN _id, user.screen_name }
ORDER BY ?name
`)
	if err != nil {
		t.Fatal(err)
	}
	// fhollande (left, fb) t4; jdupont (right, fb) t5; amartin has no fb → excluded by graph pattern.
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if res.Rows[0][0].Str() != "François Hollande" || res.Rows[0][1].Str() != "http://t.example/left" {
		t.Errorf("row0: %+v", res.Rows[0])
	}
	if res.Rows[1][2].Str() != "fb.dupont" {
		t.Errorf("row1: %+v", res.Rows[1])
	}
}

func TestGraphAndSQLJoin(t *testing.T) {
	in := fixtureInstance(t)
	// Join relational unemployment stats with graph-held politicians via
	// a shared year literal — exercises cross-model hash join.
	res, err := in.Query(`
QUERY q(?dept, ?taux)
FROM <sql://insee> OUT(?dept, ?year, ?taux) { SELECT dept, year, taux FROM chomage WHERE year = 2016 }
ORDER BY ?taux DESC
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Float() != 8.1 {
		t.Errorf("sql rows: %+v", res.Rows)
	}
}

func TestDynamicSourceDiscovery(t *testing.T) {
	// The endpoints table holds source URIs; the second atom ships its
	// sub-query to each discovered source (§2.2).
	in := fixtureInstance(t)
	res, err := in.Query(`
QUERY q(?region, ?src, ?val)
FROM <sql://insee> OUT(?region, ?src) { SELECT region, uri FROM endpoints }
FROM ?src OUT(?ind, ?val) { SELECT indicator, val FROM stats WHERE indicator = 'population' }
ORDER BY ?val
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("dynamic rows: %+v", res.Rows)
	}
	if res.Rows[0][0].Str() != "idf" || res.Rows[0][2].Int() != 1000 {
		t.Errorf("row0: %+v", res.Rows[0])
	}
	if res.Rows[1][0].Str() != "bretagne" || res.Rows[1][2].Int() != 2000 {
		t.Errorf("row1: %+v", res.Rows[1])
	}
	if res.Stats.Dynamic != 2 {
		t.Errorf("dynamic sources contacted: %+v", res.Stats)
	}
}

func TestDynamicSourceUnknownURI(t *testing.T) {
	in := fixtureInstance(t)
	db := relstore.NewDatabase("x")
	db.Exec("CREATE TABLE u (uri TEXT)")
	db.Exec("INSERT INTO u VALUES ('sql://does-not-exist')")
	in.AddSource(source.NewRelSource("sql://broken", db))
	_, err := in.Query(`
QUERY q(?v)
FROM <sql://broken> OUT(?src) { SELECT uri FROM u }
FROM ?src OUT(?v) { SELECT val FROM stats }
`)
	if err == nil || !strings.Contains(err.Error(), "unknown source") {
		t.Errorf("unknown dynamic source: %v", err)
	}
}

func TestPlanWavesAndSelectivity(t *testing.T) {
	in := fixtureInstance(t)
	q := MustParseCMQ(`
QUERY q(?dept, ?taux, ?region)
FROM <sql://insee> OUT(?dept, ?year, ?taux) { SELECT dept, year, taux FROM chomage WHERE year = 2016 }
FROM <sql://insee> OUT(?region, ?src) { SELECT region, uri FROM endpoints }
`)
	plan, err := in.planQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumWaves() != 1 {
		t.Errorf("independent atoms should share a wave: %s", plan.Explain(q))
	}
	// Selectivity: endpoints (2 rows) should run before chomage-filtered
	// (estimate 3/10→1)... both cheap; just assert ordering is by estimate.
	if plan.Steps[0].EstCost > plan.Steps[1].EstCost {
		t.Errorf("steps not selectivity-ordered: %s", plan.Explain(q))
	}
}

func TestPlanDependencyOrdering(t *testing.T) {
	in := fixtureInstance(t)
	q := MustParseCMQ(`
QUERY q(?region, ?val)
FROM ?src OUT(?ind, ?val) { SELECT indicator, val FROM stats }
FROM <sql://insee> OUT(?region, ?src) { SELECT region, uri FROM endpoints }
`)
	plan, err := in.planQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// The dynamic atom (declared first) must be scheduled after the
	// endpoints atom that binds ?src.
	if plan.Steps[0].AtomIndex != 1 || plan.Steps[1].AtomIndex != 0 {
		t.Errorf("dependency ordering: %s", plan.Explain(q))
	}
	if !plan.Steps[1].Dynamic {
		t.Errorf("second step should be dynamic: %s", plan.Explain(q))
	}
}

func TestPlanCircularDependency(t *testing.T) {
	in := fixtureInstance(t)
	q := &CMQ{
		Head: []string{"a"},
		Atoms: []Atom{
			{Kind: SourceAtom, SourceURI: "sql://insee",
				Sub:     source.SubQuery{Language: source.LangSQL, Text: "SELECT dept FROM chomage WHERE dept = ?", InVars: []string{"b"}},
				OutVars: []string{"a"}},
			{Kind: SourceAtom, SourceURI: "sql://insee",
				Sub:     source.SubQuery{Language: source.LangSQL, Text: "SELECT dept FROM chomage WHERE dept = ?", InVars: []string{"a"}},
				OutVars: []string{"b"}},
		},
	}
	if _, err := in.planQuery(context.Background(), q); err == nil || !strings.Contains(err.Error(), "circular") {
		t.Errorf("circular dependency: %v", err)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	in := fixtureInstance(t)
	text := `
QUERY q(?name, ?id, ?t)
GRAPH { ?x foaf:name ?name . ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? RETURN _id, user.screen_name }
ORDER BY ?t
`
	q := MustParseCMQ(text)
	par, err := in.ExecuteOpts(q, ExecOptions{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := in.ExecuteOpts(MustParseCMQ(text), ExecOptions{Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Rows) != len(seq.Rows) || len(par.Rows) != 5 {
		t.Fatalf("parallel %d vs sequential %d rows", len(par.Rows), len(seq.Rows))
	}
	for i := range par.Rows {
		for j := range par.Rows[i] {
			if !value.Equal(par.Rows[i][j], seq.Rows[i][j]) {
				t.Errorf("row %d differs: %v vs %v", i, par.Rows[i], seq.Rows[i])
			}
		}
	}
}

func TestDistinctLimitOrder(t *testing.T) {
	in := fixtureInstance(t)
	res, err := in.Query(`
QUERY q(?id)
GRAPH { ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? RETURN _id, user.screen_name }
DISTINCT
ORDER BY ?id
LIMIT 2
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "amartin" || res.Rows[1][0].Str() != "fhollande" {
		t.Errorf("distinct/order/limit: %+v", res.Rows)
	}
}

func TestSaturatedInstanceAnswers(t *testing.T) {
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:POL1 a :politician .
:POL1 :twitterAccount "acct1" .
:politician rdfs:subClassOf :person .
`))
	in := NewInstance(g, WithSaturation(), WithPrefixes(map[string]string{"": "http://t.example/"}))
	res, err := in.Query(`
QUERY q(?x)
GRAPH { ?x a :person }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("saturation answers: %+v", res.Rows)
	}
}

func TestValidationErrors(t *testing.T) {
	in := fixtureInstance(t)
	cases := []string{
		// Head var not produced.
		`QUERY q(?zzz) GRAPH { ?x a :politician }`,
		// Source var never produced.
		`QUERY q(?v) FROM ?nowhere OUT(?v) { SELECT val FROM stats }`,
		// IN var never produced.
		`QUERY q(?t) FROM <solr://tweets> IN(?ghost) OUT(?t) { SEARCH tweets WHERE user.screen_name = ? RETURN _id }`,
		// ORDER BY var not in head.
		`QUERY q(?x) GRAPH { ?x a :politician . ?x :twitterAccount ?id } ORDER BY ?id`,
	}
	for _, text := range cases {
		if _, err := in.Query(text); err == nil {
			t.Errorf("expected validation error for %q", text)
		}
	}
}

func TestUnknownStaticSource(t *testing.T) {
	in := fixtureInstance(t)
	_, err := in.Query(`QUERY q(?v) FROM <sql://nope> OUT(?v) { SELECT val FROM stats }`)
	if err == nil {
		t.Error("unknown static source accepted")
	}
}

func TestCMQStringNotation(t *testing.T) {
	q := MustParseCMQ(qSIAText)
	s := q.String()
	for _, want := range []string{"qSIA(?t, ?id)", "qG{", "[<solr://tweets>]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestParseCMQClauses(t *testing.T) {
	q, prefixes, err := ParseCMQ(`
PREFIX ex: <http://ex.org/>
QUERY myq(?a, ?b)
GRAPH { ?a ex:p ?b }
FROM <solr://x> LANG search IN(?b) OUT(?a)
  { SEARCH x WHERE f = ? RETURN _id }
DISTINCT
ORDER BY ?a DESC
LIMIT 7
`)
	if err != nil {
		t.Fatal(err)
	}
	if prefixes["ex"] != "http://ex.org/" {
		t.Errorf("prefixes: %v", prefixes)
	}
	if q.Name != "myq" || len(q.Head) != 2 || !q.Distinct || q.Limit != 7 || q.OrderBy != "a" || !q.OrderDesc {
		t.Errorf("parsed: %+v", q)
	}
	if len(q.Atoms) != 2 || q.Atoms[0].Kind != GraphAtom {
		t.Fatalf("atoms: %+v", q.Atoms)
	}
	if q.Atoms[1].Sub.Language != source.LangSearch || q.Atoms[1].Sub.InVars[0] != "b" {
		t.Errorf("source atom: %+v", q.Atoms[1])
	}
}

func TestParseCMQLanguageInference(t *testing.T) {
	q := MustParseCMQ(`
QUERY q(?a)
FROM <s1> OUT(?a) { SELECT x FROM t }
FROM <s2> OUT(?a) { SEARCH ix WHERE f = 'v' RETURN _id }
FROM <s3> OUT(?a) { q(?a) :- ?a <http://p> ?b }
`)
	wants := []source.Language{source.LangSQL, source.LangSearch, source.LangBGP}
	for i, w := range wants {
		if q.Atoms[i].Sub.Language != w {
			t.Errorf("atom %d language %q, want %q", i, q.Atoms[i].Sub.Language, w)
		}
	}
}

func TestParseCMQErrors(t *testing.T) {
	cases := []string{
		``,
		`GRAPH { ?x a ?y }`,                         // missing QUERY
		`QUERY q(?a GRAPH { ?x a ?y }`,              // malformed head
		`QUERY q(?a) FROM OUT(?a) { SELECT }`,       // FROM without designator
		`QUERY q(?a) GRAPH { ?x a ?y`,               // unterminated block
		`QUERY q(?a) LIMIT xx GRAPH { ?a a ?y }`,    // bad limit
		`QUERY q(?a) QUERY r(?b) GRAPH { ?a a ?b }`, // duplicate QUERY
	}
	for _, text := range cases {
		if _, _, err := ParseCMQ(text); err == nil {
			t.Errorf("expected parse error for %q", text)
		}
	}
}

func TestExplain(t *testing.T) {
	in := fixtureInstance(t)
	q := MustParseCMQ(qSIAText)
	plan, err := in.planQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain(q)
	if !strings.Contains(out, "bind-join(id)") || !strings.Contains(out, "wave 0") {
		t.Errorf("explain: %s", out)
	}
}

func TestRepeatedOutVarsFilter(t *testing.T) {
	// OUT(?a, ?a) requires both result columns equal.
	in := fixtureInstance(t)
	res, err := in.Query(`
QUERY q(?a)
FROM <sql://insee> OUT(?a, ?a) { SELECT dept, dept FROM chomage }
DISTINCT
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // 75, 92
		t.Errorf("repeated out vars: %+v", res.Rows)
	}
	res2, err := in.Query(`
QUERY q(?a)
FROM <sql://insee> OUT(?a, ?a) { SELECT dept, year FROM chomage }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 0 { // dept never equals year
		t.Errorf("unequal repeated out vars: %+v", res2.Rows)
	}
}

func TestOptionalFacebookAccounts(t *testing.T) {
	// §1's query with OPTIONAL semantics: authors without a Facebook
	// account still appear, with a NULL account (amartin has none).
	in := fixtureInstance(t)
	res, err := in.Query(`
QUERY q(?name, ?fb, ?t)
GRAPH { ?x foaf:name ?name . ?x :twitterAccount ?id .
        OPTIONAL { ?x :facebookAccount ?fb } }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'EtatDurgence' RETURN _id, user.screen_name }
`)
	if err != nil {
		t.Fatal(err)
	}
	// Only amartin tweeted #EtatDurgence (t3); she has no Facebook.
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if res.Rows[0][0].Str() != "Anne Martin" || !res.Rows[0][1].IsNull() {
		t.Errorf("optional facebook: %+v", res.Rows[0])
	}
}

// TestSaturationConcurrentQueries: a saturated instance shared across
// concurrent queries (the server's usage pattern) must initialize its
// saturation exactly once, race-free.
func TestSaturationConcurrentQueries(t *testing.T) {
	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:p1 a :politician .
:politician rdfs:subClassOf :person .
`))
	in := NewInstance(g, WithPrefixes(map[string]string{"": "http://t.example/"}), WithSaturation())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := in.Query("QUERY q(?x)\nGRAPH { ?x a :person }")
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.Rows) != 1 {
				t.Errorf("saturated rows: %+v", res.Rows)
			}
		}()
	}
	wg.Wait()
}

// TestCanonicalKeyFieldFraming: free-form fields (which the parser does
// not charset-restrict, so they may contain ':') must be framed
// individually — no two distinct field splits may share a key.
func TestCanonicalKeyFieldFraming(t *testing.T) {
	a := &CMQ{HeadItems: []HeadItem{{Agg: AggCount, Var: "x", Alias: "y:z"}}}
	b := &CMQ{HeadItems: []HeadItem{{Agg: AggCount, Var: "x:y", Alias: "z"}}}
	if a.CanonicalKey() == b.CanonicalKey() {
		t.Error("distinct (Var, Alias) splits collided on one canonical key")
	}
	c := &CMQ{OrderBy: "v:true", OrderDesc: false}
	d := &CMQ{OrderBy: "v", OrderDesc: true}
	if c.CanonicalKey() == d.CanonicalKey() {
		t.Error("OrderBy containing ':' collided with OrderDesc rendering")
	}
}
