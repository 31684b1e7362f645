// Command sourced serves one data source of the synthetic mixed
// instance as an HTTP federation endpoint, so a remote tatooine
// mediator can query it (the paper's remote-endpoint / dynamic source
// discovery code path). The endpoint speaks the federation wire
// protocol: GET /meta, POST /batch, POST /estimate and GET /digest.
// POST /batch is the one data route. A scan or a single probe arrives
// as a batch of one, and a mediator's batched bind-join probes arrive
// as one request, pushed down natively when the served source supports
// source.BatchProber (one pass per batch for the relational sources) or
// evaluated tuple by tuple otherwise, stopping once the mediator hangs
// up — either way the per-binding HTTP round trips collapse into one.
//
// A running endpoint can be attached to (POST /sources) and dropped
// from (DELETE /sources/{uri}) a live "tatooine serve" mediator; when
// the data behind an endpoint is reloaded in place, tell the mediator
// with POST /admin/invalidate {"source": "<uri>"} so its probe cache
// stops serving pre-reload rows before the TTL would expire them.
//
// Usage:
//
//	sourced -source tweets  -addr :8081
//	sourced -source insee   -addr :8082
//	sourced -source graph   -addr :8083
//	sourced -source region-idf -addr :8084
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"tatooine/internal/datagen"
	"tatooine/internal/federation"
	"tatooine/internal/obs"
	"tatooine/internal/rdf"
	"tatooine/internal/server"
	"tatooine/internal/source"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sourced:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("source", "tweets", "source to serve: tweets, fbposts, insee, graph, speeches, region-idf, region-bzh, region-paca")
	addr := flag.String("addr", ":8081", "listen address")
	seed := flag.Int64("seed", 42, "dataset seed")
	tweets := flag.Int("tweets", 5000, "number of tweets")
	flag.Parse()

	cfg := datagen.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumTweets = *tweets
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return err
	}

	var src source.DataSource
	switch *name {
	case "tweets":
		src = source.NewDocSource(datagen.TweetsURI, ds.Tweets)
	case "fbposts":
		src = source.NewDocSource(datagen.FacebookURI, ds.Facebook)
	case "insee":
		src = source.NewRelSource(datagen.INSEEURI, ds.INSEE)
	case "graph":
		src = source.NewRDFSource("rdf://politics", rdf.Saturate(ds.Graph))
	case "speeches":
		src = source.NewXMLSource(datagen.SpeechesURI, ds.Speeches)
	default:
		db, ok := ds.Regional["sql://"+*name]
		if !ok {
			return fmt.Errorf("unknown source %q", *name)
		}
		src = source.NewRelSource("sql://"+*name, db)
	}

	fmt.Fprintf(os.Stderr, "serving %s (%s model) on %s\n", src.URI(), src.Model(), *addr)
	// The federation handler joins X-Tat-* traces from calling
	// mediators; /metrics exposes the endpoint's process-wide registry
	// (probe caches, handler counters) for the same scrapers that watch
	// the mediator.
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Handler(obs.Default))
	mux.Handle("/", federation.Handler(src))
	return server.NewHTTPServer(*addr, mux).ListenAndServe()
}
