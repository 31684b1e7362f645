package digest_test

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"tatooine/internal/datagen"
	"tatooine/internal/digest"
	"tatooine/internal/source"
)

// goldenDigest is one digest the golden sub-queries are analyzed
// against.
type goldenDigest struct {
	name string
	d    *digest.Digest
}

// goldenDigests builds the digest package's test fixtures plus the
// tweets, INSEE and speeches digests of a small generated dataset — the
// sources bench/'s query templates address.
func goldenDigests(t *testing.T) []goldenDigest {
	t.Helper()
	b := digest.DefaultBudget()
	cfg := datagen.DefaultConfig()
	cfg.NumPoliticians, cfg.NumTweets = 60, 600
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []goldenDigest{
		{"rel", digest.BuildRelational("sql://insee", digest.RelFixture(t), b)},
		{"rdf", digest.BuildRDF("tatooine:G", digest.RDFFixture(), b)},
		{"doc", digest.BuildDocument("solr://tweets", digest.DocFixture(t), b)},
		{"tweets", digest.BuildDocument(datagen.TweetsURI, ds.Tweets, b)},
		{"insee", digest.BuildRelational(datagen.INSEEURI, ds.INSEE, b)},
		{"speeches", digest.BuildXML(datagen.SpeechesURI, ds.Speeches, b)},
	}
}

// goldenPrefixes resolve the BGP sub-queries' prefixed names.
var goldenPrefixes = map[string]string{"": "http://t.example/"}

// goldenSubs are the sub-queries of the digest package's tests, the
// non-graph sub-queries of bench/'s query templates, and shapes that
// reach every refusal rule of the estimate and the pruning.
func goldenSubs() []source.SubQuery {
	sql := func(text string, in ...string) source.SubQuery {
		return source.SubQuery{Language: source.LangSQL, Text: text, InVars: in}
	}
	search := func(text string, in ...string) source.SubQuery {
		return source.SubQuery{Language: source.LangSearch, Text: text, InVars: in}
	}
	bgp := func(text string, in ...string) source.SubQuery {
		return source.SubQuery{Language: source.LangBGP, Text: text, InVars: in}
	}
	const ns = "http://t.example/"
	subs := []source.SubQuery{
		sql("SELECT name FROM departements WHERE code = ?", "code"),
		sql("SELECT name FROM departements WHERE population > ?", "p"),
		sql("SELECT x FROM nowhere WHERE x = ?", "x"),
		sql("SELECT name FROM departements"),
		sql("SELECT name FROM departements WHERE code = '75'", "p"),
		sql("SELECT name FROM departements WHERE code = 'zz'", "p"),
		sql("SELECT name FROM departements WHERE code = ?", "p"),
		sql("SELECT name FROM departements WHERE population > 0 LIMIT 1", "p"),
		sql("SELECT name FROM departements", "p"),
		sql("SELECT name FROM departements WHERE code = '75'"),
		sql("SELECT name FROM departements WHERE population > 3 AND code = ?", "c"),
		sql("SELECT name FROM departements WHERE population BETWEEN 0 AND 5000000"),
		sql("SELECT name FROM departements WHERE population NOT BETWEEN 0 AND 5000000"),
		sql("SELECT name FROM departements WHERE 2000000 < population AND ? = code", "c"),
		sql("SELECT name FROM departements WHERE population <= 2000000 LIMIT 5"),
		sql("SELECT name FROM departements WHERE code = ? OR name = ?", "a", "b"),
		sql("SELECT d.name FROM departements d JOIN resultats r ON d.code = r.dept WHERE r.party = ? AND d.code = ?", "p", "c"),
		sql("SELECT name FROM departements WHERE code = ? AND name = ?", "c", "n"),
		sql("SELECT name FROM departements WHERE code = ?", "c", "unused"),
		sql("not sql at all", "x"),
		search("SEARCH tweets WHERE user.screen_name = ? RETURN _id", "id"),
		search("SEARCH tweets WHERE retweets >= 3 AND lang = 'fr' RETURN _id"),
		search("SEARCH tweets WHERE retweets BETWEEN 1 AND 9 RETURN _id"),
		search("SEARCH tweets WHERE retweets <= 4 AND user.screen_name = 'fhollande' RETURN _id LIMIT 1"),
		search("SEARCH tweets WHERE user.screen_name = 'nobody' RETURN _id"),
		search("SEARCH tweets WHERE retweets BETWEEN ? AND 9 RETURN _id", "lo"),
		search("SEARCH tweets WHERE retweets >= ? RETURN _id", "lo"),
		search("SEARCH tweets WHERE text = ? AND text CONTAINS 'solidarité' RETURN _id", "w"),
		search("SEARCH tweets WHERE text CONTAINS ? RETURN _id", "w"),
		search("SEARCH tweets WHERE nofield = ? RETURN _id", "w"),
		search("SEARCH broken WHERE", "w"),
		bgp("q(?x) :- ?x <"+ns+"p> ?y . ?x a <"+ns+"C>", "y"),
		bgp("q(?x) :- ?x :twitterAccount ?id . ?x a :politician", "id"),
		bgp("q(?x) :- ?x :twitterAccount ?id . ?x a :politician", "x"),
		bgp("q(?id) :- :POL1 :twitterAccount ?id . :POL1 a :politician"),
		bgp("q(?x) :- ?x :twitterAccount \"nobody\" . :POL9 a :politician"),
		bgp("q(?x) :- ?x :position ?p . OPTIONAL { ?x :twitterAccount ?id }", "id"),
		bgp("q(?x) :- ?x ?p ?id", "id"),
		bgp("q(?x) :- ?x a ?c", "x"),
		bgp("?x :twitterAccount ?id", "?id"),
		bgp("q(?x :- broken", "x"),
		{Language: source.LangXPath, Text: "XPATH /speeches/speech[@speaker=?] RETURN _id, topic", InVars: []string{"name"}},
		{Language: source.LangXPath, Text: "XPATH /speeches/speech[@speaker=?] RETURN _id, title", InVars: []string{"name"}},
	}
	for _, h := range []string{"SIA2016", "economie", "education", "EtatDurgence"} {
		subs = append(subs, search("SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = '"+h+
			"' RETURN _id, user.screen_name", "id"))
	}
	for _, y := range []int{2014, 2015, 2016} {
		subs = append(subs, sql(fmt.Sprintf("SELECT dept, taux FROM chomage WHERE dept = ? AND annee = %d", y), "dept"))
	}
	return subs
}

// goldenResult is what the digest says about one sub-query: the row
// estimate and, per parameter position, the node IDs a binding must
// appear in (null when nothing prunes).
type goldenResult struct {
	Digest string     `json:"digest"`
	Text   string     `json:"text"`
	InVars []string   `json:"inVars"`
	Rows   int        `json:"rows"`
	OK     bool       `json:"ok"`
	Prune  [][]string `json:"prune"`
}

// TestAnalyzeGolden pins Analyze to testdata/analyze_golden.json, the
// answers of the two analyzers it replaced (one for row estimates, one
// for pruning nodes) over every golden sub-query and digest.
func TestAnalyzeGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/analyze_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var got []goldenResult
	for _, gd := range goldenDigests(t) {
		for _, q := range goldenSubs() {
			a := digest.Analyze(gd.d, q, goldenPrefixes)
			got = append(got, goldenResult{gd.name, q.Text, q.InVars, a.Rows, a.Estimated,
				digest.MatcherNodeIDs(a.Matcher)})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, golden has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Digest != w.Digest || g.Text != w.Text || !slices.Equal(g.InVars, w.InVars) {
			t.Fatalf("case %d is %s %q %v, golden has %s %q %v", i, g.Digest, g.Text, g.InVars, w.Digest, w.Text, w.InVars)
		}
		if g.Rows != w.Rows || g.OK != w.OK || !slices.EqualFunc(g.Prune, w.Prune, slices.Equal) ||
			(g.Prune == nil) != (w.Prune == nil) {
			t.Errorf("%s %q %v: (rows %d, ok %v, prune %v), golden (rows %d, ok %v, prune %v)",
				g.Digest, g.Text, g.InVars, g.Rows, g.OK, g.Prune, w.Rows, w.OK, w.Prune)
		}
	}
}
