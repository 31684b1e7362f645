package federation

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/datagen"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// routeCounter counts the requests a served source receives, per path.
type routeCounter struct {
	h  http.Handler
	mu sync.Mutex
	n  map[string]int
}

func (c *routeCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.n[r.URL.Path]++
	c.mu.Unlock()
	c.h.ServeHTTP(w, r)
}

func (c *routeCounter) count(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[path]
}

// serveCounted serves h behind a per-route request counter.
func serveCounted(t *testing.T, h http.Handler) (*httptest.Server, *routeCounter) {
	t.Helper()
	rc := &routeCounter{h: h, n: map[string]int{}}
	srv := httptest.NewServer(rc)
	t.Cleanup(srv.Close)
	return srv, rc
}

// sortedRowKeys runs q on in and returns its rows as sorted keys.
func sortedRowKeys(t *testing.T, in *core.Instance, q *core.CMQ) []string {
	t.Helper()
	res, err := in.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = r.Key()
	}
	slices.Sort(keys)
	return keys
}

const e2Shape = `
QUERY e2(?t, ?dept, ?taux)
GRAPH { ?x :position :headOfState . ?x :twitterAccount ?id . ?x :electedIn ?dept }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'SIA2016' RETURN _id, user.screen_name }
FROM <sql://insee> IN(?dept) OUT(?dept, ?taux)
  { SELECT dept, taux FROM chomage WHERE dept = ? AND annee = 2015 }
`

const e11Shape = `
QUERY e11(?name, ?spid, ?v)
GRAPH { ?x :position :headOfState . ?x foaf:name ?name }
FROM <xml://speeches> IN(?name) OUT(?spid, ?v)
  { XPATH /speeches/speech[@speaker=?] RETURN _id, topic }
`

// TestDigestFirstPlanningSkipsRemoteEstimates: with tweets, INSEE and
// speeches behind federation endpoints, the planner estimates the search
// and SQL atoms from the catalog digests, so planning sends no /estimate
// to them and fetches each digest once. The XPath atom, which no digest
// estimates, still asks its endpoint once per plan. The plan and the
// answers are those of the instance that holds every source locally.
func TestDigestFirstPlanningSkipsRemoteEstimates(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NumPoliticians, cfg.NumTweets = 60, 600
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := ds.Instance()
	if err != nil {
		t.Fatal(err)
	}
	mediator := core.NewInstance(ds.Graph, core.WithPrefixes(map[string]string{"": datagen.NS, "pol": datagen.NSPol}))
	counters := map[string]*routeCounter{}
	for _, src := range []source.DataSource{
		source.NewDocSource(datagen.TweetsURI, ds.Tweets),
		source.NewRelSource(datagen.INSEEURI, ds.INSEE),
		source.NewXMLSource(datagen.SpeechesURI, ds.Speeches),
	} {
		srv, rc := serveCounted(t, Handler(src))
		c, err := Dial(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if err := mediator.AddSource(c); err != nil {
			t.Fatal(err)
		}
		counters[src.URI()] = rc
	}

	e2 := core.MustParseCMQ(e2Shape)
	want := sortedRowKeys(t, local, e2)
	if len(want) == 0 {
		t.Fatal("the e2 query answers nothing locally; the fixture no longer exercises the bind joins")
	}
	for i := 0; i < 3; i++ {
		if got := sortedRowKeys(t, mediator, e2); !slices.Equal(got, want) {
			t.Fatalf("run %d: federated answers %v, local %v", i, got, want)
		}
	}
	info, err := mediator.ExplainQuery(e2, core.ExecOptions{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, uri := range []string{datagen.TweetsURI, datagen.INSEEURI} {
		rc := counters[uri]
		if got := rc.count("/estimate"); got != 0 {
			t.Errorf("%s: %d /estimate requests over 4 plans, want 0", uri, got)
		}
		if got := rc.count("/digest"); got != 1 {
			t.Errorf("%s: %d /digest requests, want 1", uri, got)
		}
	}
	var order []string
	for _, a := range info.Atoms {
		order = append(order, a.Designator)
	}
	if want := []string{"G", "<" + datagen.INSEEURI + ">", "<" + datagen.TweetsURI + ">"}; !slices.Equal(order, want) {
		t.Fatalf("e2 plan order %v, want %v", order, want)
	}
	// Both bind joins are sinks; the costlier one streams into the root
	// join (Plan.StreamSink), and that must still be tweets.
	if insee, tweets := info.Atoms[1].EstCost, info.Atoms[2].EstCost; tweets <= insee {
		t.Errorf("tweets cost %d ≤ insee cost %d: tweets would no longer be the stream sink", tweets, insee)
	}

	e11 := core.MustParseCMQ(e11Shape)
	if got, want := sortedRowKeys(t, mediator, e11), sortedRowKeys(t, local, e11); !slices.Equal(got, want) {
		t.Fatalf("e11: federated answers %v, local %v", got, want)
	}
	if _, err := mediator.ExplainQuery(e11, core.ExecOptions{Parallel: true}); err != nil {
		t.Fatal(err)
	}
	speeches := counters[datagen.SpeechesURI]
	if got := speeches.count("/estimate"); got != 2 {
		t.Errorf("speeches: %d /estimate requests over 2 plans, want 2 (the digest does not estimate XPath)", got)
	}
	if got := speeches.count("/digest"); got != 1 {
		t.Errorf("speeches: %d /digest requests, want 1", got)
	}
}

// TestMalformedDigestHistogramFallsBack: an endpoint whose /digest
// carries a histogram with more counts than buckets is refused at
// decode, so a range query plans on the endpoint's own estimate and
// answers like the local source instead of panicking the planner.
func TestMalformedDigestHistogramFallsBack(t *testing.T) {
	db := relstore.NewDatabase("x")
	loadTable(t, db, relstore.Schema{Name: "t", Columns: []relstore.Column{
		{Name: "v", Type: value.Int}}},
		[]any{1}, []any{2}, []any{3}, []any{4}, []any{5}, []any{6})
	src := source.NewRelSource("sql://x", db)
	mux := http.NewServeMux()
	mux.Handle("/", Handler(src))
	mux.HandleFunc("GET /digest", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"v":1,"source":"sql://x","nodes":[{"id":"sql://x#t.v","source":"sql://x",`+
			`"label":"t.v","kind":1,"values":{"count":6,"numericCount":6,`+
			`"hist":{"bounds":[0],"counts":[5,5],"min":0,"max":9,"n":6}}}],"edges":[]}`)
	})
	srv, rc := serveCounted(t, mux)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	mediator := core.NewInstance(nil)
	if err := mediator.AddSource(c); err != nil {
		t.Fatal(err)
	}
	local := core.NewInstance(nil)
	if err := local.AddSource(src); err != nil {
		t.Fatal(err)
	}
	q := core.MustParseCMQ(`
QUERY q(?v)
FROM <sql://x> OUT(?v) { SELECT v FROM t WHERE v > 3 }`)
	got, want := sortedRowKeys(t, mediator, q), sortedRowKeys(t, local, q)
	if !slices.Equal(got, want) || len(want) != 3 {
		t.Fatalf("federated answers %v, local %v (want 3 rows)", got, want)
	}
	if rc.count("/digest") != 1 || rc.count("/estimate") != 1 {
		t.Errorf("/digest %d, /estimate %d: want the refused digest fetched once and the endpoint's estimate used",
			rc.count("/digest"), rc.count("/estimate"))
	}
}
