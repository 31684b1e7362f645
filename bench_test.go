// Benchmarks reproducing the paper's demonstrated behaviours, one per
// experiment (E1–E12), plus a few substrate and bind-join
// micro-benchmarks. They are plain, unrecorded go test benchmarks for
// local profiling; the recorded performance numbers come from the
// closed-loop workloads in bench/ (bench/README.md). Run with:
//
//	go test -run '^$' -bench . -benchmem
package tatooine_test

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tatooine/internal/analytics"
	"tatooine/internal/core"
	"tatooine/internal/datagen"
	"tatooine/internal/digest"
	"tatooine/internal/doc"
	"tatooine/internal/federation"
	"tatooine/internal/fulltext"
	"tatooine/internal/keyword"
	"tatooine/internal/pager"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/store"
	"tatooine/internal/value"
	"tatooine/internal/viz"
)

// ---------- shared fixtures (built once per scale) ----------

type fixture struct {
	ds *datagen.Dataset
	in *core.Instance
}

var (
	fixMu    sync.Mutex
	fixtures = map[int]*fixture{}
)

// fix returns a cached mixed instance with the given tweet count.
func fix(b *testing.B, tweets int) *fixture {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixtures[tweets]; ok {
		return f
	}
	cfg := datagen.DefaultConfig()
	cfg.NumTweets = tweets
	cfg.NumPoliticians = 300
	ds, err := datagen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	in, err := ds.Instance()
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{ds: ds, in: in}
	fixtures[tweets] = f
	return f
}

const qSIAText = `
QUERY qSIA(?t, ?id)
GRAPH { ?x :position :headOfState . ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'SIA2016' RETURN _id, user.screen_name }
`

// hashtagQuery is qSIA with a parameterizable hashtag/position, used
// for selectivity sweeps.
func hashtagQuery(position, hashtag string) string {
	return fmt.Sprintf(`
QUERY q(?t, ?id)
GRAPH { ?x :position :%s . ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = '%s' RETURN _id, user.screen_name }
`, position, hashtag)
}

// warm executes q once before a benchmark starts its timer. The first
// Execute on a fresh fixture plans against an empty digest catalog, so
// it builds every source's digest (digest.BuildDocument over all the
// tweets, ~1 s and ~400 MB at 20,000 tweets); timed, that one run fills
// the benchtime and the benchmark reports N = 1.
func warm(b *testing.B, in *core.Instance, q *core.CMQ) {
	b.Helper()
	if _, err := in.Execute(q); err != nil {
		b.Fatal(err)
	}
}

// ---------- E1: the qSIA mixed query (§2.2) ----------

func BenchmarkE1QSIA(b *testing.B) {
	for _, tweets := range []int{5000, 20000} {
		for _, sel := range []struct{ name, position, hashtag string }{
			{"rare/headOfState+SIA2016", "headOfState", "SIA2016"},
			{"common/deputy+EtatDurgence", "deputy", "EtatDurgence"},
		} {
			b.Run(fmt.Sprintf("tweets=%d/%s", tweets, sel.name), func(b *testing.B) {
				f := fix(b, tweets)
				q := core.MustParseCMQ(hashtagQuery(sel.position, sel.hashtag))
				warm(b, f.in, q)
				b.ResetTimer()
				rows := 0
				for i := 0; i < b.N; i++ {
					res, err := f.in.Execute(q)
					if err != nil {
						b.Fatal(err)
					}
					rows = len(res.Rows)
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// ---------- E2: scenario (1), fact sources for claims ----------

func BenchmarkE2FactSources(b *testing.B) {
	f := fix(b, 20000)
	q := core.MustParseCMQ(`
QUERY facts(?t, ?dept, ?taux)
GRAPH { ?x :position :headOfState . ?x :twitterAccount ?id . ?x :electedIn ?dept }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'economie' RETURN _id, user.screen_name }
FROM <sql://insee> IN(?dept) OUT(?dept, ?taux)
  { SELECT dept, taux FROM chomage WHERE dept = ? AND annee = 2015 }
`)
	warm(b, f.in, q)
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		res, err := f.in.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// ---------- E3: scenario (2) + Figure 3, PMI tag clouds ----------

func BenchmarkE3PMITagCloud(b *testing.B) {
	for _, tweets := range []int{5000, 20000} {
		b.Run(fmt.Sprintf("tweets=%d", tweets), func(b *testing.B) {
			f := fix(b, tweets)
			classify := f.ds.Classifier()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc := analytics.ComputeTagClouds(f.ds.Tweets, "text", classify, 10, 3)
				if len(tc.Weeks) == 0 {
					b.Fatal("no clouds")
				}
			}
		})
	}
}

func BenchmarkE3TagCloudRender(b *testing.B) {
	f := fix(b, 5000)
	tc := analytics.ComputeTagClouds(f.ds.Tweets, "text", f.ds.Classifier(), 10, 3)
	currents := datagen.CurrentOfParty()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := viz.RenderHTML(tc, viz.HTMLOptions{Title: "bench", CurrentOf: currents})
		if len(out) == 0 {
			b.Fatal("empty render")
		}
	}
}

// ---------- E4: keyword → CMQ generation (§2.2) ----------

func BenchmarkE4CatalogBuild(b *testing.B) {
	for _, tweets := range []int{5000, 20000} {
		b.Run(fmt.Sprintf("tweets=%d", tweets), func(b *testing.B) {
			f := fix(b, tweets)
			keyword.BuildCatalog(f.in) // the instance's digest catalog fills once
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keyword.BuildCatalog(f.in)
			}
		})
	}
}

func BenchmarkE4KeywordToCMQ(b *testing.B) {
	f := fix(b, 5000)
	cat := keyword.BuildCatalog(f.in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := cat.Search([]string{"head of state", "SIA2016"}, keyword.SearchOptions{MaxCandidates: 3})
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// ---------- E5: dynamic source discovery ----------

func BenchmarkE5DynamicDiscovery(b *testing.B) {
	f := fix(b, 5000)
	q := core.MustParseCMQ(`
QUERY q(?region, ?src, ?val)
FROM <sql://insee> OUT(?region, ?src) { SELECT region, uri FROM endpoints }
FROM ?src OUT(?ind, ?val) { SELECT indicator, val FROM stats WHERE indicator = 'population' }
`)
	warm(b, f.in, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.in.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Dynamic != len(datagen.RegionalURIs) {
			b.Fatalf("dynamic sources: %d", res.Stats.Dynamic)
		}
	}
}

// ---------- E6: plan ablations (§2.3 ordering rules) ----------

func BenchmarkE6PlanAblation(b *testing.B) {
	f := fix(b, 20000)
	// A query where ordering matters: the tweet atom unconstrained is
	// large; bind-joining it after the selective graph atom is cheap.
	q := core.MustParseCMQ(qSIAText)
	warm(b, f.in, q)
	modes := []struct {
		name string
		opts core.ExecOptions
	}{
		{"selectivity+parallel", core.ExecOptions{Parallel: true}},
		{"selectivity+sequential", core.ExecOptions{Parallel: false}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.in.ExecuteOpts(q, m.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Bind join vs. full scan + residual hash join: the same semantics
	// expressed without IN() forces the mediator to fetch every tweet
	// with the hashtag, then hash join.
	noBind := core.MustParseCMQ(`
QUERY q(?t, ?id)
GRAPH { ?x :position :headOfState . ?x :twitterAccount ?id }
FROM <solr://tweets> OUT(?t, ?id)
  { SEARCH tweets WHERE entities.hashtags = 'SIA2016' RETURN _id, user.screen_name }
`)
	warm(b, f.in, noBind)
	b.Run("hash-join-no-pushdown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.in.Execute(noBind); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- E7: digest precision vs. space budget (§2.2) ----------

func BenchmarkE7DigestPrecision(b *testing.B) {
	f := fix(b, 20000)
	for _, bits := range []uint64{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("bloomBits=%d", bits), func(b *testing.B) {
			budget := digest.DefaultBudget()
			budget.BloomBits = bits
			budget.ExactThreshold = 0 // force Bloom answers
			var d *digest.Digest
			for i := 0; i < b.N; i++ {
				d = digest.BuildDocument("solr://tweets", f.ds.Tweets, budget)
			}
			b.StopTimer()
			// Measured false-positive rate on the screen-name node.
			n := d.Nodes["solr://tweets#user.screen_name"]
			fp := 0
			const probes = 2000
			for i := 0; i < probes; i++ {
				if n.Values.MayContain(fmt.Sprintf("absent-account-%d", i)) {
					fp++
				}
			}
			b.ReportMetric(float64(fp)/probes, "fpr")
		})
	}
}

// ---------- E8: Figure 2 document ingest ----------

func BenchmarkE8TweetIngest(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("tweets=%d", n), func(b *testing.B) {
			cfg := datagen.DefaultConfig()
			cfg.NumTweets = n
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				if _, err := datagen.Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(n))
		})
	}
}

func BenchmarkE8FieldAccess(b *testing.B) {
	f := fix(b, 5000)
	var d *doc.Document
	f.ds.Tweets.Each(func(first *doc.Document) bool { d = first; return false })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vals := d.Values("user.screen_name"); len(vals) != 1 {
			b.Fatal("missing field")
		}
	}
}

// ---------- E9: RDFS saturation G∞ (§2.1) ----------

func BenchmarkE9Saturation(b *testing.B) {
	for _, pols := range []int{100, 1000, 4500} {
		b.Run(fmt.Sprintf("politicians=%d", pols), func(b *testing.B) {
			cfg := datagen.DefaultConfig()
			cfg.NumPoliticians = pols
			cfg.NumTweets = 0
			ds, err := datagen.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			derived := 0
			for i := 0; i < b.N; i++ {
				derived = rdf.Saturate(ds.Graph).Size() - ds.Graph.Size()
			}
			b.ReportMetric(float64(derived), "derived")
		})
	}
}

// ---------- E10: mediation vs. warehouse (§4 positioning) ----------

// warehouseLoad copies the tweet store into one RDF graph (the
// "standard data warehouse" the paper argues journalists will not
// build) and returns it.
func warehouseLoad(ds *datagen.Dataset) *rdf.Graph {
	g := ds.Graph.Clone()
	iri := func(local string) rdf.Term { return rdf.NewIRI(datagen.NS + local) }
	ds.Tweets.Each(func(d *doc.Document) bool {
		subj := rdf.NewIRI(datagen.NS + "tweet/" + d.ID)
		g.Add(rdf.Triple{S: subj, P: iri("authorAccount"), O: rdf.NewLiteral(d.Values("user.screen_name")[0].Str())})
		for _, h := range d.Values("entities.hashtags") {
			g.Add(rdf.Triple{S: subj, P: iri("hashtag"), O: rdf.NewLiteral(h.Str())})
		}
		return true
	})
	return g
}

func BenchmarkE10Mediation(b *testing.B) {
	f := fix(b, 20000)
	q := core.MustParseCMQ(qSIAText)
	warm(b, f.in, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.in.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10WarehouseSetup(b *testing.B) {
	f := fix(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := warehouseLoad(f.ds)
		if g.Size() == 0 {
			b.Fatal("empty warehouse")
		}
	}
}

func BenchmarkE10WarehouseQuery(b *testing.B) {
	f := fix(b, 20000)
	g := warehouseLoad(f.ds)
	q, err := rdf.ParseBGP(fmt.Sprintf(
		`q(?t, ?id) :- ?x <%sposition> <%sheadOfState> . ?x <%stwitterAccount> ?id . ?t <%sauthorAccount> ?id . ?t <%shashtag> "SIA2016"`,
		datagen.NS, datagen.NS, datagen.NS, datagen.NS, datagen.NS), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sols, err := rdf.Evaluate(g, q)
		if err != nil {
			b.Fatal(err)
		}
		if sols.Len() == 0 {
			b.Fatal("warehouse query empty")
		}
	}
}

// ---------- substrate micro-benchmarks ----------

func BenchmarkSubstrateFulltextSearch(b *testing.B) {
	f := fix(b, 20000)
	q, err := fulltext.ParseTextQuery(`SEARCH tweets WHERE entities.hashtags = 'EtatDurgence' AND text CONTAINS 'urgence' RETURN _id LIMIT 50`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.ExecuteBatch(f.ds.Tweets, []value.Row{nil}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateSQLJoin(b *testing.B) {
	f := fix(b, 5000)
	s := source.NewRelSource(datagen.INSEEURI, f.ds.INSEE)
	q := source.SubQuery{Language: source.LangSQL, Text: `SELECT d.name, r.parti, r.voix FROM resultats r
			JOIN departements d ON r.dept = d.code WHERE r.annee = 2015`}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateBGPJoin(b *testing.B) {
	f := fix(b, 5000)
	q, err := rdf.ParseBGP(fmt.Sprintf(
		`q(?name, ?cur) :- ?x <%smemberOf> ?p . ?p <%scurrentOf> ?cur . ?x <%stwitterAccount> ?name`,
		datagen.NS, datagen.NS, datagen.NS), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rdf.Evaluate(f.ds.Graph, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreBGP times the graph work of a persistent instance
// shaped like bench/'s durable_mutate (6,000 politicians, a 256-page
// cache): the planner's count of (?, :twitterAccount, ?) and the GRAPH
// atoms of the e1_rare and e2_facts query classes through
// EvaluateBound. The same graph also runs in memory (map) and on a
// store whose cache holds every page (resident), which compares the two
// graph backends at equal size.
func BenchmarkStoreBGP(b *testing.B) {
	cfg := datagen.DefaultConfig()
	cfg.NumPoliticians = 6000
	cfg.NumTweets = 0
	ds, err := datagen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	iri := func(local string) rdf.Term { return rdf.NewIRI(datagen.NS + local) }
	atom := func(body string) rdf.BGP {
		q, err := rdf.ParseBGP(strings.ReplaceAll(body, "<:", "<"+datagen.NS), nil)
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	e1 := atom(`q(?x, ?id) :- ?x <:position> <:headOfState> . ?x <:twitterAccount> ?id`)
	e2 := atom(`q(?x, ?id, ?dept) :- ?x <:position> <:headOfState> . ?x <:twitterAccount> ?id . ?x <:electedIn> ?dept`)

	persistent := func(b *testing.B, cache int) *rdf.Graph {
		st, err := store.Open(filepath.Join(b.TempDir(), "g.db"),
			store.Options{Pager: pager.Options{CacheSize: cache, NoSync: true}})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		g, err := rdf.OpenGraph(st, "g")
		if err != nil {
			b.Fatal(err)
		}
		ds.Graph.CopyTo(g)
		if err := st.Commit(); err != nil {
			b.Fatal(err)
		}
		return g
	}
	for _, be := range []struct {
		name  string
		graph func(b *testing.B) *rdf.Graph
	}{
		{"map", func(*testing.B) *rdf.Graph { return ds.Graph }},
		{"resident", func(b *testing.B) *rdf.Graph { return persistent(b, -1) }},
		{"cache256", func(b *testing.B) *rdf.Graph { return persistent(b, 256) }},
	} {
		b.Run(be.name, func(b *testing.B) {
			g := be.graph(b)
			b.Run("count", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if n := g.CountMatch(rdf.Term{}, iri("twitterAccount"), rdf.Term{}); n != cfg.NumPoliticians {
						b.Fatalf("count = %d, want %d", n, cfg.NumPoliticians)
					}
				}
			})
			for _, a := range []struct {
				name string
				q    rdf.BGP
			}{{"e1_rare", e1}, {"e2_facts", e2}} {
				b.Run(a.name, func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						sols, err := rdf.EvaluateBound(g, a.q, nil)
						if err != nil {
							b.Fatal(err)
						}
						if len(sols.Rows) != 1 {
							b.Fatalf("%d rows, want the one head of state", len(sols.Rows))
						}
					}
				})
			}
			if err := g.StoreErr(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ---------- E11: XML substrate inside a mixed query (§2.1) ----------

func BenchmarkE11XMLJoin(b *testing.B) {
	f := fix(b, 5000)
	q := core.MustParseCMQ(`
QUERY sp(?name, ?spid, ?topic)
GRAPH { ?x :position :headOfState . ?x foaf:name ?name }
FROM <xml://speeches> IN(?name) OUT(?spid, ?topic)
  { XPATH /speeches/speech[@speaker=?] RETURN _id, topic }
`)
	warm(b, f.in, q)
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		res, err := f.in.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// ---------- E12: aggregated heads (§1 "most prolific authors") ----------

func BenchmarkE12AggregatedHead(b *testing.B) {
	f := fix(b, 20000)
	q := core.MustParseCMQ(`
QUERY vol(?cur, COUNT(?t) AS ?n, COUNT(DISTINCT ?id) AS ?authors)
GRAPH { ?x :memberOf ?p . ?p :currentOf ?cur . ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'EtatDurgence' RETURN _id, user.screen_name }
GROUP BY ?cur
ORDER BY ?n DESC
`)
	warm(b, f.in, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.in.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkSourceEstimate measures the planner's estimation path.
func BenchmarkSourceEstimate(b *testing.B) {
	f := fix(b, 20000)
	srcs := f.in.Sources().All()
	var docSrc source.DataSource
	for _, s := range srcs {
		if s.URI() == datagen.TweetsURI {
			docSrc = s
		}
	}
	sub := source.SubQuery{
		Language: source.LangSearch,
		Text:     "SEARCH tweets WHERE entities.hashtags = 'SIA2016' RETURN _id",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows, _ := source.EstimateOf(docSrc, sub, 0); rows < 0 {
			b.Fatal("estimate failed")
		}
	}
}

// BenchmarkRelBatch measures a relational source answering a bind
// join's probes: 1,024 key tuples over 10,000 rows and 256 over 256,
// each sent as one ExecuteBatch, and the lone probe every e2_facts
// query sends to datagen's chomage table (30 rows), sent as Execute.
func BenchmarkRelBatch(b *testing.B) {
	q := source.SubQuery{Language: source.LangSQL, Text: "SELECT k, v FROM t WHERE k = ?", InVars: []string{"k"}}
	for _, size := range []struct{ tuples, rows int }{{1024, 10000}, {256, 256}} {
		db := relstore.NewDatabase("b")
		t, err := db.CreateTable(relstore.Schema{Name: "t", Columns: []relstore.Column{
			{Name: "k", Type: value.String}, {Name: "v", Type: value.Int}}})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < size.rows; i++ {
			if err := t.Insert(value.Row{value.NewString(fmt.Sprintf("k%d", i)), value.NewInt(int64(i))}); err != nil {
				b.Fatal(err)
			}
		}
		sets := make([]value.Row, size.tuples)
		for i := range sets {
			sets[i] = value.Row{value.NewString(fmt.Sprintf("k%d", i*size.rows/size.tuples))}
		}
		s := source.NewRelSource("sql://b", db)
		b.Run(fmt.Sprintf("batch_%dx%d", size.tuples, size.rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := s.ExecuteBatch(q, sets)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != len(sets) || len(res[len(res)-1].Rows) != 1 {
					b.Fatalf("last tuple: %v", res[len(res)-1].Rows)
				}
			}
		})
	}

	insee, err := datagen.GenINSEE(rand.New(rand.NewSource(1)), datagen.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	s := source.NewRelSource(datagen.INSEEURI, insee)
	probe := source.SubQuery{Language: source.LangSQL, InVars: []string{"d"},
		Text: "SELECT dept, taux FROM chomage WHERE dept = ? AND annee = 2015"}
	dept := []value.Value{value.NewString(datagen.Departments[0][0])}
	b.Run("e2_facts_probe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := s.Execute(probe, dept)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("rows: %v", res.Rows)
			}
		}
	})
}

// perTupleSource hides a source's ExecuteBatch, so bind joins probe it
// one tuple at a time; Unwrap keeps its digest reachable.
type perTupleSource struct{ source.DataSource }

func (s perTupleSource) Unwrap() source.DataSource { return s.DataSource }

// BenchmarkBatchedBindJoin measures the batched bind-join pushdown: a
// bind join whose probes travel to a remote federation endpoint behind
// an injected per-request latency. perProbe ships one HTTP round trip
// per distinct binding (the client is registered through
// perTupleSource, which hides its batches); batched ships the bindings
// in DefaultProbeBatch-sized batches, so its 256 bindings
// travel as one request. rtts/op counts the HTTP requests per executed
// query and dials/op the connections the endpoint accepted.
func BenchmarkBatchedBindJoin(b *testing.B) {
	const keys = 256
	const rtt = 500 * time.Microsecond

	db := relstore.NewDatabase("remote")
	targets, err := db.CreateTable(relstore.Schema{Name: "targets", Columns: []relstore.Column{
		{Name: "k", Type: value.String}, {Name: "v", Type: value.Int}}})
	if err != nil {
		b.Fatal(err)
	}
	seed := relstore.NewDatabase("seed")
	seeds, err := seed.CreateTable(relstore.Schema{Name: "seed", Columns: []relstore.Column{
		{Name: "k", Type: value.String}}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		k := value.NewString(fmt.Sprintf("k%d", i))
		if err := targets.Insert(value.Row{k, value.NewInt(int64(i))}); err != nil {
			b.Fatal(err)
		}
		if err := seeds.Insert(value.Row{k}); err != nil {
			b.Fatal(err)
		}
	}

	var requests, dials atomic.Int64
	inner := federation.Handler(source.NewRelSource("sql://remote", db))
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		time.Sleep(rtt) // injected network latency
		inner.ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	client, err := federation.Dial(ts.URL)
	if err != nil {
		b.Fatal(err)
	}

	text := `
QUERY q(?k, ?v)
FROM <sql://seed> OUT(?k) { SELECT k FROM seed }
FROM <sql://remote> IN(?k) OUT(?k, ?v) { SELECT k, v FROM targets WHERE k = ? }
`
	q, _, err := core.ParseCMQ(text)
	if err != nil {
		b.Fatal(err)
	}

	for _, bench := range []struct {
		name   string
		remote source.DataSource
	}{
		{"perProbe", perTupleSource{client}},
		{"batched", client},
	} {
		b.Run(bench.name, func(b *testing.B) {
			in := core.NewInstance(nil)
			if err := in.AddSource(source.NewRelSource("sql://seed", seed)); err != nil {
				b.Fatal(err)
			}
			if err := in.AddSource(bench.remote); err != nil {
				b.Fatal(err)
			}
			requests.Store(0)
			dials.Store(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := in.ExecuteOpts(q, core.ExecOptions{Parallel: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != keys {
					b.Fatalf("rows: %d", len(res.Rows))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(requests.Load())/float64(b.N), "rtts/op")
			b.ReportMetric(float64(dials.Load())/float64(b.N), "dials/op")
		})
	}
}

// ---------- bounded memory ----------

// heapInuse reports GC-settled live heap bytes.
func heapInuse() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapInuse)
}

// BenchmarkBoundedMemory pins the bounded-memory contract of the memory
// model (doc.go): an on-disk instance at least 4x the page-cache budget
// serves point lookups and a deliberately overflowing federated join
// while live-heap growth stays within 1.5x the budget and the
// resident-page gauge never exceeds the cap. The seeding phase inflates
// the process high-water mark before serving starts, so the bound is
// asserted on GC-settled heap growth across the serving phase — the
// budgeted resources (page cache, join build sides, dictionary hot
// cache) all live on the heap. Process peak RSS is bench/'s
// peak_rss_mb.
func BenchmarkBoundedMemory(b *testing.B) {
	const cacheBudget = 16 << 20 // -page-cache-mb 16
	cfg := datagen.DefaultConfig()
	cfg.NumPoliticians = 47000
	cfg.NumTweets = 0
	ds, err := datagen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	in, _, err := ds.PersistentInstance(b.TempDir(),
		core.WithStoreOptions(store.Options{Pager: pager.Options{CacheSize: cacheBudget / pager.PageSize}}))
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close()
	st := in.StoreStats()
	if onDisk := int64(st.Pages) * pager.PageSize; onDisk < 4*cacheBudget {
		b.Fatalf("instance is %d B on disk, need >= 4x the %d B page-cache budget", onDisk, cacheBudget)
	}
	baseHeap := heapInuse()

	point := core.MustParseCMQ(`
QUERY q(?name)
GRAPH { ?x :position :headOfState . ?x foaf:name ?name }`)
	// The residual chain graph |><| chomage |><| resultats: the second
	// build side overflows a 16 KiB budget and runs as a Grace join.
	spill := core.MustParseCMQ(`
QUERY s(?name, ?dept, ?taux, ?parti, ?voix)
GRAPH { ?x a :politician . ?x foaf:name ?name . ?x :electedIn ?dept }
FROM <sql://insee> OUT(?dept, ?annee, ?taux) { SELECT dept, annee, taux FROM chomage }
FROM <sql://insee> OUT(?dept, ?parti, ?voix) { SELECT dept, parti, voix FROM resultats }
LIMIT 2000`)

	checkResident := func(b *testing.B) {
		if s := in.StoreStats(); s.ResidentPages > cacheBudget/pager.PageSize {
			b.Fatalf("resident gauge %d pages exceeds the %d-page cap", s.ResidentPages, cacheBudget/pager.PageSize)
		}
	}
	b.Run("pointLookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := in.ExecuteOpts(point, core.ExecOptions{Parallel: true})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) == 0 {
				b.Fatal("no rows")
			}
		}
		b.StopTimer()
		checkResident(b)
	})
	b.Run("spillJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := in.ExecuteOpts(spill, core.ExecOptions{Parallel: true, JoinMemBudget: 16 << 10})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 2000 {
				b.Fatalf("got %d rows, want 2000", len(res.Rows))
			}
			if res.Stats.SpilledJoins == 0 {
				b.Fatal("join stayed in memory under a 16 KiB build budget")
			}
		}
		b.StopTimer()
		checkResident(b)
		if grown := heapInuse() - baseHeap; grown > cacheBudget*3/2 {
			b.Fatalf("live heap grew %d B across the serving phase, budget bound is %d B", grown, cacheBudget*3/2)
		}
	})
}

// BenchmarkWarmBootAllocs pins the paged dictionary's startup contract:
// reopening a store allocates independently of how many terms the
// instance has accumulated, because terms page in lazily on first touch
// instead of loading wholesale at boot. The allocation ratio between an
// 8x-terms store and the baseline store is reported and must stay far
// under the term ratio.
func BenchmarkWarmBootAllocs(b *testing.B) {
	openAllocs := func(n int) uint64 {
		cfg := datagen.DefaultConfig()
		cfg.NumPoliticians = n
		cfg.NumTweets = 0
		ds, err := datagen.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		dir := b.TempDir()
		seed, _, err := ds.PersistentInstance(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := seed.Close(); err != nil {
			b.Fatal(err)
		}
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			in, warm, err := ds.PersistentInstance(dir)
			runtime.ReadMemStats(&m1)
			if err != nil {
				b.Fatal(err)
			}
			if !warm {
				b.Fatal("reopen did not warm boot")
			}
			in.Close()
			if d := m1.Mallocs - m0.Mallocs; d < best {
				best = d
			}
		}
		return best
	}
	small := openAllocs(500)
	large := openAllocs(4000)
	ratio := float64(large) / float64(small)
	b.ReportMetric(ratio, "allocs-ratio-8x-terms")
	b.ReportMetric(float64(small), "allocs/open")
	if ratio > 2 {
		b.Fatalf("warm boot allocations scale with term count: %d at 1x vs %d at 8x terms (ratio %.2f)", small, large, ratio)
	}
	for i := 0; i < b.N; i++ {
		// The timed body is a no-op: the benchmark exists for its
		// metrics and the scaling assertion above.
	}
}
