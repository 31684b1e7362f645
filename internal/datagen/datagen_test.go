package datagen

import (
	"testing"

	"tatooine/internal/analytics"
	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/value"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPoliticians = 60
	cfg.NumTweets = 1500
	cfg.NumFacebookPosts = 100
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.Size() != b.Graph.Size() {
		t.Errorf("graph sizes differ: %d vs %d", a.Graph.Size(), b.Graph.Size())
	}
	if a.Tweets.Count() != b.Tweets.Count() {
		t.Errorf("tweet counts differ")
	}
	// Spot-check one politician is identical.
	if a.Politicians[10] != b.Politicians[10] {
		t.Errorf("politician 10 differs: %+v vs %+v", a.Politicians[10], b.Politicians[10])
	}
	// Different seeds must differ.
	cfg := smallConfig()
	cfg.Seed = 7
	c, _ := Generate(cfg)
	if c.Politicians[10] == a.Politicians[10] {
		t.Error("different seeds produced identical politicians")
	}
}

func TestHeadOfStateInvariants(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	hos := ds.Politicians[0]
	if hos.Position != "headOfState" {
		t.Fatalf("first politician must be head of state: %+v", hos)
	}
	// The graph holds the paper's running-example triples.
	subj := rdf.NewIRI(NSPol + hos.ID)
	if !ds.Graph.Contains(rdf.Triple{S: subj, P: rdf.NewIRI(NS + "position"), O: rdf.NewIRI(NS + "headOfState")}) {
		t.Error("position triple missing")
	}
	if !ds.Graph.Contains(rdf.Triple{S: subj, P: rdf.NewIRI(NS + "twitterAccount"), O: rdf.NewLiteral(hos.Twitter)}) {
		t.Error("twitterAccount triple missing")
	}
	// The head of state tweets about the agriculture fair (#SIA2016).
	q, err := fulltext.ParseTextQuery(`SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'SIA2016' RETURN _id`)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := q.ExecuteBatch(ds.Tweets, []value.Row{{value.NewString(hos.Twitter)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits[0]) == 0 {
		t.Error("head of state has no #SIA2016 tweets — qSIA would be empty")
	}
}

func TestTweetFieldsShapeFigure2(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var d *doc.Document
	ds.Tweets.Each(func(first *doc.Document) bool { d = first; return false })
	if d == nil || d.ID != "tw00000001" {
		t.Fatalf("first tweet: %v", d)
	}
	for _, path := range []string{"text", "user.screen_name", "user.name", "created_at", "retweet_count", "favorite_count"} {
		if vals := d.Values(path); len(vals) == 0 {
			t.Errorf("tweet missing %s", path)
		}
	}
}

func TestJoinableAccounts(t *testing.T) {
	// Every tweet author must resolve through the graph (repeated
	// values across sources, §1).
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	twitterSet := make(map[string]bool)
	for _, p := range ds.Politicians {
		twitterSet[p.Twitter] = true
	}
	bad := 0
	ds.Tweets.Each(func(d *doc.Document) bool {
		author := d.Values("user.screen_name")[0].Str()
		if !twitterSet[author] {
			bad++
		}
		return true
	})
	if bad > 0 {
		t.Errorf("%d tweets have unjoinable authors", bad)
	}
}

func TestINSEETables(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for table, want := range map[string]int{
		"departements": len(Departments), "agriculture": 10, "endpoints": len(RegionalURIs),
	} {
		if n := ds.INSEE.Table(table).RowCount(); n != want {
			t.Errorf("%s rows: %d, want %d", table, n, want)
		}
	}
}

func TestInstanceAssemblyAndQSIA(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	in, err := ds.Instance()
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Query(`
QUERY qSIA(?t, ?id)
GRAPH { ?x :position :headOfState . ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'SIA2016' RETURN _id, user.screen_name }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("qSIA empty on generated instance")
	}
	for _, row := range res.Rows {
		if row[1].Str() != ds.Politicians[0].Twitter {
			t.Errorf("qSIA returned non-head-of-state author: %v", row)
		}
	}
}

func TestPMISignalRecoverable(t *testing.T) {
	// The planted week-3 ecologist objection vocabulary must surface in
	// the PMI rankings (Figure 3's phenomenon).
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tc := analytics.ComputeTagClouds(ds.Tweets, "text", ds.Classifier(), 10, 3)
	if len(tc.Weeks) == 0 {
		t.Fatal("no weeks")
	}
	var week3 *analytics.WeekClouds
	for i := range tc.Weeks {
		if tc.Weeks[i].Week == 3 {
			week3 = &tc.Weeks[i]
		}
	}
	if week3 == nil {
		t.Fatal("week 3 missing")
	}
	eelv := week3.Parties["EELV"]
	if len(eelv) == 0 {
		t.Fatal("no EELV terms in week 3")
	}
	// The objection vocabulary (abus/excès/risque/libertés → stemmed)
	// must appear in EELV's week-3 top 10. Party-signature terms
	// (climat, nucléaire) legitimately outrank it — they are exclusive
	// to the party — but the objection terms must be present and must
	// score higher for EELV than for PS (the Figure 3 phenomenon).
	objection := map[string]bool{"abu": true, "exc": true, "risqu": true, "perquisi": true, "deriv": true, "libert": true}
	scoreOf := func(terms []analytics.TermScore, w string) float64 {
		for _, ts := range terms {
			if ts.Term == w {
				return ts.Score
			}
		}
		return 0
	}
	found := ""
	for _, ts := range eelv {
		if objection[ts.Term] {
			found = ts.Term
			break
		}
	}
	if found == "" {
		t.Fatalf("week-3 EELV top terms lack objection vocabulary: %+v", eelv)
	}
	ps := week3.Parties["PS"]
	if scoreOf(eelv, found) <= scoreOf(ps, found) {
		t.Errorf("objection term %q not amplified for EELV: eelv=%f ps=%f",
			found, scoreOf(eelv, found), scoreOf(ps, found))
	}
}

func TestPartyOfLookup(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p := ds.Politicians[0].PartyID; p != "PS" {
		t.Errorf("head of state's party: %s", p)
	}
	cur := CurrentOfParty()
	if cur["EELV"] != "ecologist" {
		t.Errorf("currents: %v", cur)
	}
}

func TestRetweetCountsPresent(t *testing.T) {
	ds, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	q, err := fulltext.ParseTextQuery(`SEARCH tweets WHERE retweet_count >= 0 RETURN _id`)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := q.ExecuteBatch(ds.Tweets, []value.Row{nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits[0]) != ds.Tweets.Count() {
		t.Errorf("retweet_count indexed on %d/%d tweets", len(hits[0]), ds.Tweets.Count())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
