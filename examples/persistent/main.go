// Persistent instance walkthrough: the mediator's own state — the
// custom graph G, its saturation G∞, the mutation epoch — on a durable
// paged B-tree store with a write-ahead log, surviving process
// restarts. That is all the store holds: sources (relational tables,
// documents, XML) stay outside it and are queried where they live.
// Run it twice to see both boot paths:
//
//	go run ./examples/persistent            # 1st run: seeds the store
//	go run ./examples/persistent            # 2nd run: warm boot, zero recompute
//
// The data directory defaults to a sibling "tatooine-data"; point
// -data-dir elsewhere (or delete the directory to start over). The
// store holds one copy of each piece of state — G, G∞ (maintained in
// place) and the catalog — and a directory written by an older version
// is refused with an error naming the file: delete it and rerun.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/rdf"
)

var dataDir = flag.String("data-dir", "tatooine-data", "store directory")

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) (err error) {
	// core.Open mounts the instance on dir/tatooine.db (created on
	// first use). Options mean the same as with core.NewInstance; with
	// WithSaturation a stored G∞ is adopted on reopen instead of
	// recomputed.
	start := time.Now()
	in, err := core.Open(*dataDir,
		core.WithSaturation(),
		core.WithPrefixes(map[string]string{"": "http://t.example/"}))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, in.Close()) }()
	opened := time.Since(start)

	if in.Epoch() == 0 {
		// ---- First run: seed the store. --------------------------------
		// One AddTriples is one mutation: graph pages, dictionary,
		// epoch and catalog commit in a single WAL transaction.
		fmt.Fprintln(w, "fresh store — seeding politicians…")
		in.AddTriples(rdf.MustParse(`
@prefix : <http://t.example/> .
:politician rdfs:subClassOf :person .
:p1 a :politician ; :position :headOfState .
:p2 a :politician ; :position :deputy .
:p3 a :politician .
`))
	} else {
		// ---- Later runs: warm boot. ------------------------------------
		// Everything below loaded from disk; nothing was recomputed.
		fmt.Fprintf(w, "warm boot in %v — epoch %d, G=%d triples\n",
			opened.Round(time.Microsecond), in.Epoch(), in.Graph().Size())
	}

	// Graph atoms answer over G∞. On the first run this query computes
	// the saturation (FullRecomputes becomes 1) and persists it; on a
	// warm boot the stored G∞ is adopted and FullRecomputes stays 0 —
	// the reopen skipped the whole saturation cost.
	res, err := in.Query("QUERY q(?x)\nGRAPH { ?x a :person }")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "persons via G∞: %d rows\n", len(res.Rows))
	sat := in.SaturationStats()
	fmt.Fprintf(w, "saturation: mode=%s derived=%d fullRecomputes=%d\n",
		sat.Mode, sat.Derived, sat.FullRecomputes)
	if st := in.StoreStats(); st != nil {
		fmt.Fprintf(w, "store: %d pages, %d commits, %d B WAL\n",
			st.Pages, st.Commits, st.WALBytes)
	}
	// Close (deferred; run returns its error) commits pending state and
	// folds the WAL into the main file, so the next boot replays nothing.
	return nil
}
