// Command tatooine is the CLI for the TATOOINE mixed-instance querying
// system. It generates the synthetic French-politics mixed instance
// (the demonstration dataset substitute) and runs mixed queries,
// keyword searches, digests and tag-cloud analytics over it.
//
// Usage:
//
//	tatooine demo                        run the demonstration scenarios
//	tatooine query  -q 'QUERY …'         run a CMQ (or -f query.cmq)
//	tatooine serve  -addr :8080          long-running HTTP mediator service
//	                                     (queries via POST /cmq; the instance
//	                                     is mutable mid-session via POST
//	                                     /graph, POST/DELETE /sources and
//	                                     POST /admin/invalidate — every
//	                                     mutation bumps the instance epoch
//	                                     and invalidates dependent caches;
//	                                     graph atoms answer over G∞,
//	                                     maintained incrementally under
//	                                     mutations)
//	tatooine keyword head of state SIA2016
//	tatooine tagcloud -o tagcloud.html   Figure 3 tag clouds
//	tatooine digest                      print per-source digests
//	tatooine explain -q 'QUERY …'        show the execution plan
//
// Global flags (before the subcommand): -seed, -politicians, -tweets,
// -weeks scale the generated instance.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tatooine/internal/analytics"
	"tatooine/internal/core"
	"tatooine/internal/datagen"
	"tatooine/internal/keyword"
	"tatooine/internal/pager"
	"tatooine/internal/server"
	"tatooine/internal/store"
	"tatooine/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tatooine:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("tatooine", flag.ContinueOnError)
	seed := global.Int64("seed", 42, "dataset seed")
	politicians := global.Int("politicians", 120, "number of politicians")
	tweets := global.Int("tweets", 5000, "number of tweets")
	weeks := global.Int("weeks", 4, "number of weeks")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand (demo, query, serve, keyword, tagcloud, digest, explain)")
	}

	cfg := datagen.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumPoliticians = *politicians
	cfg.NumTweets = *tweets
	cfg.Weeks = *weeks

	start := time.Now()
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mixed instance ready in %v: G=%d triples, %d tweets, %d fb posts, %d INSEE tables\n",
		time.Since(start).Round(time.Millisecond), ds.Graph.Size(), ds.Tweets.Count(),
		ds.Facebook.Count(), len(ds.INSEE.Tables()))

	// serve assembles its own instance (saturated, and store-backed
	// under -data-dir); every other subcommand shares the default one.
	if rest[0] == "serve" {
		return cmdServe(ds, rest[1:])
	}
	in, err := ds.Instance()
	if err != nil {
		return err
	}
	switch rest[0] {
	case "demo":
		return cmdDemo(ds, in)
	case "query":
		return cmdQuery(in, rest[1:], false)
	case "explain":
		return cmdQuery(in, rest[1:], true)
	case "keyword":
		return cmdKeyword(in, rest[1:])
	case "tagcloud":
		return cmdTagcloud(ds, rest[1:])
	case "digest":
		return cmdDigest(in)
	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

func printResult(res *core.QueryResult) {
	fmt.Println(strings.Join(res.Cols, "\t"))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
	fmt.Fprintf(os.Stderr, "%d rows; %d sub-queries (%d batched), %d rows fetched, %d waves, %d bind joins, %d dynamic sources\n",
		len(res.Rows), res.Stats.SubQueries, res.Stats.BatchProbes, res.Stats.RowsFetched,
		res.Stats.Waves, res.Stats.BindJoins, res.Stats.Dynamic)
}

func cmdQuery(in *core.Instance, args []string, explainOnly bool) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	qtext := fs.String("q", "", "CMQ text")
	qfile := fs.String("f", "", "file holding the CMQ")
	if err := fs.Parse(args); err != nil {
		return err
	}
	text := *qtext
	if *qfile != "" {
		data, err := os.ReadFile(*qfile)
		if err != nil {
			return err
		}
		text = string(data)
	}
	if text == "" {
		return fmt.Errorf("provide -q or -f")
	}
	q, _, err := core.ParseCMQ(text)
	if err != nil {
		return err
	}
	if explainOnly {
		// Plan only: nothing executes, so no probe reaches a source.
		info, err := in.ExplainQuery(q, core.ExecOptions{Parallel: true})
		if err != nil {
			return err
		}
		fmt.Print(info.Plan)
		return nil
	}
	res, err := in.Execute(q)
	if err != nil {
		return err
	}
	printResult(res)
	return nil
}

// cmdServe runs the long-running HTTP mediator service around the
// generated mixed instance. The serving instance evaluates graph atoms
// over G∞ (the paper's answer semantics), maintained incrementally
// under mutations (internal/reason).
func cmdServe(ds *datagen.Dataset, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dataDir := fs.String("data-dir", "",
		"persist the custom graph, its saturation and the mutation epoch in this directory (paged B-tree store + WAL); a restart warm-boots from the stored state instead of re-seeding (empty = in-memory)")
	pageCacheMB := fs.Int("page-cache-mb", 0,
		"store page-cache budget in MiB — the hard cap on pages resident in memory (0 = default 16; requires -data-dir)")
	joinMemBudgetMB := fs.Int("join-mem-budget", 0,
		"per-join build-side memory budget in MiB: residual hash joins whose build side exceeds it spill to a partitioned on-disk join (0 = unbounded, never spill)")
	resultCache := fs.Int("result-cache", server.DefaultResultCacheSize,
		"result-cache entries (negative disables)")
	probeCache := fs.Int("probe-cache", 0,
		"per-source sub-query cache entries (0 = default, negative disables)")
	probeTTL := fs.Duration("probe-ttl", 0,
		"probe-cache entry TTL, e.g. 5m (0 = entries never expire)")
	fanout := fs.Int("fanout", 0,
		"bind-join fan-out per atom (0 = derive from GOMAXPROCS, clamped)")
	probeBatch := fs.Int("probe-batch", 0,
		"bind-join probe batch size for batch-capable sources (0 = default 64, 1 disables batching)")
	slowQuery := fs.Duration("slow-query", server.DefaultSlowQuery,
		"slow-query log threshold: completed queries at or over it are logged and flagged on GET /debug/queries (negative disables)")
	traceRing := fs.Int("trace-ring", server.DefaultTraceRing,
		"flight-recorder capacity: last N completed query traces on GET /debug/queries (negative disables)")
	logRequests := fs.Bool("log-requests", false,
		"log one structured line per HTTP request")
	pprofOn := fs.Bool("pprof", false,
		"mount net/http/pprof under GET /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pageCacheMB != 0 && *dataDir == "" {
		return fmt.Errorf("serve: -page-cache-mb requires -data-dir (an in-memory instance has no page cache)")
	}
	var in *core.Instance
	var err error
	if *dataDir != "" {
		instOpts := []core.InstanceOption{core.WithSaturation()}
		if *pageCacheMB > 0 {
			instOpts = append(instOpts, core.WithStoreOptions(store.Options{
				Pager: pager.Options{CacheSize: (*pageCacheMB << 20) / pager.PageSize},
			}))
		}
		var warm bool
		in, warm, err = ds.PersistentInstance(*dataDir, instOpts...)
		if err != nil {
			return err
		}
		boot := "seeded fresh store"
		if warm {
			boot = "warm boot from stored state"
		}
		fmt.Fprintf(os.Stderr, "persistent instance at %s: %s (epoch %d, G=%d triples)\n",
			*dataDir, boot, in.Epoch(), in.Graph().Size())
	} else {
		in, err = ds.Instance(core.WithSaturation())
		if err != nil {
			return err
		}
	}
	srv := server.New(in, server.Options{
		ResultCacheSize: *resultCache,
		ProbeCacheSize:  *probeCache,
		ProbeTTL:        *probeTTL,
		Exec: core.ExecOptions{
			Parallel:      true,
			MaxFanout:     *fanout,
			ProbeBatch:    *probeBatch,
			JoinMemBudget: int64(*joinMemBudgetMB) << 20,
		},
		SlowQuery:   *slowQuery,
		TraceRing:   *traceRing,
		LogRequests: *logRequests,
		EnablePprof: *pprofOn,
	})
	fmt.Fprintf(os.Stderr, "mediator service listening on %s\n", *addr)
	fmt.Fprintln(os.Stderr, "  query:  POST /cmq · GET /stats · GET /healthz")
	fmt.Fprintln(os.Stderr, "  mutate: POST|DELETE /graph · POST /sources · DELETE /sources/{uri} · POST /admin/invalidate")
	fmt.Fprintln(os.Stderr, "  observe: GET /metrics · GET /debug/queries")

	// Serve until SIGINT/SIGTERM, then drain in-flight requests and
	// close the instance — for a persistent one that commits pending
	// state and folds the WAL into the main file, so the next boot
	// replays nothing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := server.NewHTTPServer(*addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		in.Close()
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "shutting down: draining requests…")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
	}
	if err := in.Close(); err != nil {
		return fmt.Errorf("closing instance: %w", err)
	}
	if in.Persistent() {
		fmt.Fprintln(os.Stderr, "store checkpointed and closed")
	}
	return nil
}

func cmdKeyword(in *core.Instance, keywords []string) error {
	if len(keywords) == 0 {
		return fmt.Errorf("provide keywords")
	}
	cat := keyword.BuildCatalog(in)
	cands, err := cat.Search(keywords, keyword.SearchOptions{MaxCandidates: 3})
	if err != nil {
		return err
	}
	for i, cand := range cands {
		fmt.Printf("-- candidate %d (weight %.2f)\n", i+1, cand.Weight)
		fmt.Println("   path:", cat.Explain(cand))
		fmt.Println("   query:", cand.Query)
		res, err := in.Execute(cand.Query)
		if err != nil {
			fmt.Println("   execution failed:", err)
			continue
		}
		fmt.Printf("   %d rows", len(res.Rows))
		if len(res.Rows) > 0 {
			fmt.Printf("; first: %v", res.Rows[0])
		}
		fmt.Println()
	}
	return nil
}

func cmdTagcloud(ds *datagen.Dataset, args []string) error {
	fs := flag.NewFlagSet("tagcloud", flag.ContinueOnError)
	out := fs.String("o", "tagcloud.html", "output HTML file")
	topK := fs.Int("k", 12, "terms per cloud")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tc := analytics.ComputeTagClouds(ds.Tweets, "text", ds.Classifier(), *topK, 3)
	currents := datagen.CurrentOfParty()
	fmt.Print(viz.RenderText(tc, currents, 6))
	html := viz.RenderHTML(tc, viz.HTMLOptions{
		Title:     "Vocabulary by party — state of emergency (synthetic)",
		CurrentOf: currents,
	})
	if err := os.WriteFile(*out, []byte(html), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", *out)
	return nil
}

func cmdDigest(in *core.Instance) error {
	cat := keyword.BuildCatalog(in)
	for _, d := range cat.Digests() {
		fmt.Printf("== %s ==\n", d.Source)
		for _, n := range d.NodeList() {
			line := fmt.Sprintf("  %-12s %s", n.Kind, n.Label)
			if n.Values != nil {
				line += fmt.Sprintf("  n=%d exact=%v", n.Values.Count(), n.Values.Exact())
				if h := n.Values.Histogram(); h != nil {
					line += " " + h.String()
				}
			}
			fmt.Println(line)
		}
	}
	return nil
}

// cmdDemo walks the three demonstration scenarios of §3.
func cmdDemo(ds *datagen.Dataset, in *core.Instance) error {
	hos := ds.Politicians[0]
	fmt.Println("=== scenario: qSIA — tweets from heads of state about #SIA2016 (§2.2) ===")
	res, err := in.Query(`
QUERY qSIA(?t, ?id)
GRAPH { ?x :position :headOfState . ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'SIA2016' RETURN _id, user.screen_name }
LIMIT 5
`)
	if err != nil {
		return err
	}
	printResult(res)

	fmt.Println("\n=== scenario (1): factual sources for the head of state's economy claims ===")
	res, err = in.Query(`
QUERY facts(?t, ?dept, ?taux)
GRAPH { ?x :position :headOfState . ?x :twitterAccount ?id . ?x :electedIn ?dept }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = 'economie' RETURN _id, user.screen_name }
FROM <sql://insee> IN(?dept) OUT(?dept, ?taux)
  { SELECT dept, taux FROM chomage WHERE dept = ? AND annee = 2015 }
LIMIT 5
`)
	if err != nil {
		return err
	}
	printResult(res)
	_ = hos

	fmt.Println("\n=== scenario (2): PMI tag clouds (Figure 3) ===")
	tc := analytics.ComputeTagClouds(ds.Tweets, "text", ds.Classifier(), 6, 3)
	fmt.Print(viz.RenderText(tc, datagen.CurrentOfParty(), 6))

	fmt.Println("\n=== keyword search: \"head of state\" + \"SIA2016\" → generated CMQ (§2.2) ===")
	cat := keyword.BuildCatalog(in)
	cands, err := cat.Search([]string{"head of state", "SIA2016"}, keyword.SearchOptions{MaxCandidates: 1})
	if err != nil {
		return err
	}
	fmt.Println("generated:", cands[0].Query)
	res2, err := in.Execute(cands[0].Query)
	if err != nil {
		return err
	}
	fmt.Printf("%d rows\n", len(res2.Rows))
	return nil
}
