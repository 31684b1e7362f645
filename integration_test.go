// End-to-end integration tests: the complete TATOOINE pipeline over
// the generated mixed instance — every substrate, the mediator, the
// keyword engine, the analytics, and the HTTP federation layer
// together, as the demonstration runs them.
package tatooine_test

import (
	"net/http/httptest"
	"strings"
	"testing"

	"tatooine/internal/analytics"
	"tatooine/internal/core"
	"tatooine/internal/datagen"
	"tatooine/internal/federation"
	"tatooine/internal/keyword"
	"tatooine/internal/source"
	"tatooine/internal/viz"
)

func integrationDataset(t *testing.T) (*datagen.Dataset, *core.Instance) {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NumPoliticians = 80
	cfg.NumTweets = 2500
	cfg.NumFacebookPosts = 200
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ds.Instance()
	if err != nil {
		t.Fatal(err)
	}
	return ds, in
}

// TestDemoScenarioEndToEnd walks the full §3 demonstration:
// qSIA, fact-checking, PMI clouds, keyword search — over one instance.
func TestDemoScenarioEndToEnd(t *testing.T) {
	ds, in := integrationDataset(t)

	// qSIA.
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
		t.Error("qSIA empty")
	}

	// Scenario (1): claims + INSEE stats, 3 heterogeneous atoms.
	res, err = in.Query(`
QUERY facts(?t, ?dept, ?taux)
GRAPH { ?x :position :headOfState . ?x :twitterAccount ?id . ?x :electedIn ?dept }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'economie' RETURN _id, user.screen_name }
FROM <sql://insee> IN(?dept) OUT(?dept, ?taux)
  { SELECT dept, taux FROM chomage WHERE dept = ? AND annee = 2015 }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("fact-check query empty")
	}

	// Speeches (XML) joined through the graph.
	res, err = in.Query(`
QUERY sp(?name, ?spid, ?topic)
GRAPH { ?x :position :headOfState . ?x foaf:name ?name }
FROM <xml://speeches> IN(?name) OUT(?spid, ?topic)
  { XPATH /speeches/speech[@speaker=?] RETURN _id, topic }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("speeches query empty (datagen guarantees at least one)")
	}

	// Aggregated head: tweet volume per current.
	res, err = in.Query(`
QUERY vol(?cur, COUNT(?t) AS ?n)
GRAPH { ?x :memberOf ?p . ?p :currentOf ?cur . ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'EtatDurgence' RETURN _id, user.screen_name }
GROUP BY ?cur
ORDER BY ?n DESC
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Errorf("currents with tweets: %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][1].Int() < res.Rows[i][1].Int() {
			t.Errorf("not sorted by count: %+v", res.Rows)
		}
	}

	// Scenario (2): PMI clouds render.
	tc := analytics.ComputeTagClouds(ds.Tweets, "text", ds.Classifier(), 8, 3)
	if len(tc.Weeks) == 0 {
		t.Fatal("no tag clouds")
	}
	html := viz.RenderHTML(tc, viz.HTMLOptions{Title: "it", CurrentOf: datagen.CurrentOfParty()})
	if !strings.Contains(html, "<table>") {
		t.Error("tag cloud HTML malformed")
	}

	// Keyword search over the full instance.
	cat := keyword.BuildCatalog(in)
	cands, err := cat.Search([]string{"head of state", "SIA2016"}, keyword.SearchOptions{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	executed := false
	for _, cand := range cands {
		if res, err := in.Execute(cand.Query); err == nil && len(res.Rows) > 0 {
			executed = true
			break
		}
	}
	if !executed {
		t.Error("no keyword candidate produced results")
	}
}

// TestFullyFederatedInstance serves every source over HTTP and runs
// the mediator purely against remote endpoints.
func TestFullyFederatedInstance(t *testing.T) {
	ds, _ := integrationDataset(t)

	serve := func(s source.DataSource) *federation.Client {
		srv := httptest.NewServer(federation.Handler(s))
		t.Cleanup(srv.Close)
		c, err := federation.Dial(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	in := core.NewInstance(ds.Graph, core.WithPrefixes(map[string]string{"": datagen.NS}))
	for _, s := range []source.DataSource{
		source.NewDocSource(datagen.TweetsURI, ds.Tweets),
		source.NewRelSource(datagen.INSEEURI, ds.INSEE),
		source.NewXMLSource(datagen.SpeechesURI, ds.Speeches),
	} {
		if err := in.AddSource(serve(s)); err != nil {
			t.Fatal(err)
		}
	}

	res, err := in.Query(`
QUERY q(?t, ?id, ?dept, ?taux)
GRAPH { ?x :position :headOfState . ?x :twitterAccount ?id . ?x :electedIn ?dept }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'SIA2016' RETURN _id, user.screen_name }
FROM <sql://insee> IN(?dept) OUT(?dept, ?taux)
  { SELECT dept, taux FROM chomage WHERE dept = ? AND annee = 2016 }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("federated 3-source query empty")
	}

	// Keyword search pulls remote digests.
	cat := keyword.BuildCatalog(in)
	if len(cat.Digests()) != 4 { // G + 3 remote
		t.Errorf("digests: %d", len(cat.Digests()))
	}
	if _, err := cat.Search([]string{"head of state", "SIA2016"}, keyword.SearchOptions{}); err != nil {
		t.Errorf("federated keyword search: %v", err)
	}
}
