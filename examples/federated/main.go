// Federated demonstrates the HTTP federation layer and dynamic source
// discovery (§1: "the address of a relational database is found in an
// INSEE table and part of the mixed query is shipped there for
// evaluation"). It starts HTTP endpoints for the regional databases,
// stores their real URLs in the local INSEE endpoints table, and runs
// a mixed query whose second atom targets a *variable* — each URI
// bound at run time is dialed over HTTP and receives its sub-query.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/datagen"
	"tatooine/internal/federation"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg := datagen.DefaultConfig()
	cfg.NumTweets = 500
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return err
	}

	// Serve each regional database on its own HTTP endpoint.
	var urls []string
	for uri, db := range ds.Regional {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: federation.Handler(source.NewRelSource(uri, db))}
		go srv.Serve(ln)
		defer srv.Close()
		url := "http://" + ln.Addr().String()
		urls = append(urls, url)
		fmt.Fprintf(w, "serving %-18s at %s\n", uri, url)
	}

	// The mediator's local instance: the graph plus the INSEE database,
	// whose endpoints table now holds the *live HTTP URLs*.
	in := core.NewInstance(ds.Graph, core.WithPrefixes(map[string]string{"": datagen.NS}))
	if err := in.AddSource(source.NewRelSource(datagen.INSEEURI, ds.INSEE)); err != nil {
		return err
	}
	live, err := ds.INSEE.CreateTable(relstore.Schema{Name: "live_endpoints", Columns: []relstore.Column{
		{Name: "region", Type: value.String}, {Name: "uri", Type: value.String}}})
	if err != nil {
		return err
	}
	for i, u := range urls {
		if err := live.Insert(value.Row{value.NewString(fmt.Sprintf("region%d", i+1)), value.NewString(u)}); err != nil {
			return err
		}
	}
	// Unknown http(s) URIs resolve by dialing the endpoint.
	in.Sources().SetFallback(federation.Resolver())

	// The mixed query: read the endpoint URIs from the INSEE table,
	// then ship the stats sub-query to every discovered source.
	res, err := in.Query(`
QUERY q(?region, ?src, ?ind, ?val)
FROM <sql://insee> OUT(?region, ?src) { SELECT region, uri FROM live_endpoints }
FROM ?src OUT(?ind, ?val) { SELECT indicator, val FROM stats }
ORDER BY ?val DESC
`)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndynamically discovered %d sources; %d result rows:\n", res.Stats.Dynamic, len(res.Rows))
	for _, row := range res.Rows {
		fmt.Fprintf(w, "  %-10s %-28s %-12s %v\n", row[0], row[1], row[2], row[3])
	}

	// Streaming execution: the same pipeline, consumed incrementally.
	// Rows arrive batch by batch while upstream probes are still in
	// flight, so the first rows land after roughly one remote round
	// trip instead of after the whole federated fan-out. Over HTTP the
	// equivalent is POST /cmq with Accept: application/x-ndjson (or
	// {"stream": true}): a {"cols": [...]} header, one {"row": [...]}
	// record per row flushed as batches land, and a {"stats": ...}
	// trailer — or a terminal {"error": ...} record if a remote dies
	// mid-stream. Every query runs on this pipeline; in.Query above just
	// drained it. Note the ORDER BY above would block until the full
	// result exists, so the streamed query drops it.
	q, _, err := core.ParseCMQ(`
QUERY q(?region, ?src, ?ind, ?val)
FROM <sql://insee> OUT(?region, ?src) { SELECT region, uri FROM live_endpoints }
FROM ?src OUT(?ind, ?val) { SELECT indicator, val FROM stats }
`)
	if err != nil {
		return err
	}
	start := time.Now()
	sr, err := in.ExecuteStream(context.Background(), q, core.ExecOptions{Parallel: true})
	if err != nil {
		return err
	}
	defer sr.Close()
	rows, batches := 0, 0
	for {
		batch, err := sr.NextBatch()
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			break
		}
		if batches == 0 {
			fmt.Fprintf(w, "\nstreamed: first %d rows after %v (probes still in flight)\n",
				len(batch), time.Since(start).Round(time.Millisecond))
		}
		batches++
		rows += len(batch)
	}
	fmt.Fprintf(w, "streamed: all %d rows in %d batches after %v\n",
		rows, batches, time.Since(start).Round(time.Millisecond))

	// The same execution left a trace behind: one span per DAG node,
	// probe and remote round trip, with the federation endpoints joining
	// the trace over X-Tat-* headers — "remote" spans carry the remote's
	// span ID plus the server-side vs wire split of the observed
	// latency. Over HTTP, POST /cmq {"trace": true} returns this tree in
	// the response (JSON "trace" block or NDJSON trailer), and the
	// mediator keeps the last N of them on GET /debug/queries.
	fmt.Fprintf(w, "\ntrace of the streamed execution:\n%s", sr.Trace().Render())
	return nil
}
