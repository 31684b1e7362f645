// Bounded-memory walkthrough: an on-disk instance several times larger
// than its page-cache budget serving queries in flat memory, and a
// residual hash join that outgrows its build-side budget spilling to a
// partitioned on-disk join instead of ballooning the heap.
//
//	go run ./examples/boundedmemory
//	go run ./examples/boundedmemory -page-cache-mb 1 -politicians 4000
//
// The same knobs exist on the mediator service as
// "tatooine serve -data-dir d -page-cache-mb 16 -join-mem-budget 64";
// GET /stats then reports the store block (pages vs residentPages) and
// the memory block (joinMemBudget, spilledJoins, spilledBytes).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"tatooine/internal/core"
	"tatooine/internal/datagen"
	"tatooine/internal/pager"
	"tatooine/internal/store"
)

var (
	dataDir     = flag.String("data-dir", "tatooine-bounded", "store directory")
	cacheMB     = flag.Int("page-cache-mb", 1, "page-cache budget in MiB")
	budgetKB    = flag.Int("join-mem-budget-kb", 16, "residual-join build-side budget in KiB")
	politicians = flag.Int("politicians", 2500, "graph scale (drives the on-disk size)")
)

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) (err error) {
	cfg := datagen.DefaultConfig()
	cfg.NumPoliticians = *politicians
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return err
	}

	// WithStoreOptions caps the clock cache: pages beyond the budget
	// are evicted, so resident memory stays flat no matter how large
	// the file grows. The first run seeds the store; later runs warm
	// boot from it.
	cachePages := (*cacheMB << 20) / pager.PageSize
	in, warm, err := ds.PersistentInstance(*dataDir,
		core.WithSaturation(),
		core.WithStoreOptions(store.Options{Pager: pager.Options{CacheSize: cachePages}}))
	if err != nil {
		return err
	}
	// Close commits pending state and checkpoints the WAL: its error
	// is the run's too.
	defer func() { err = errors.Join(err, in.Close()) }()
	if warm {
		fmt.Fprintln(w, "warm boot from existing store (terms page in lazily — no bulk dictionary load)")
	} else {
		fmt.Fprintln(w, "fresh store — seeded from the generated dataset")
	}

	// Selective queries touch a handful of pages each; the clock cache
	// recycles frames instead of growing.
	for i := 0; i < 5; i++ {
		res, err := in.Query(`
QUERY q(?name, ?dept)
GRAPH { ?x :position :headOfState . ?x foaf:name ?name . ?x :electedIn ?dept }`)
		if err != nil {
			return err
		}
		if i == 0 {
			fmt.Fprintf(w, "point lookups: head of state ×%d rows per query\n", len(res.Rows))
		}
	}
	if st := in.StoreStats(); st != nil {
		fmt.Fprintf(w, "store: %d pages on disk (%.1f MiB), %d resident (cap %d) — %.0f%% of the file out of memory\n",
			st.Pages, float64(st.Pages)*float64(pager.PageSize)/(1<<20),
			st.ResidentPages, cachePages,
			100*(1-float64(st.ResidentPages)/float64(st.Pages)))
	}

	// A residual join: the graph relation (every politician and their
	// department) hash-joins two INSEE tables on ?dept. Under
	// JoinMemBudget a build side that overflows mid-build restarts as a
	// Grace-style partitioned join on a temporary store — same row
	// multiset, bounded memory, cost on ExecStats.
	q := core.MustParseCMQ(`
QUERY spill(?name, ?dept, ?taux, ?parti, ?voix)
GRAPH { ?x a :politician . ?x foaf:name ?name . ?x :electedIn ?dept }
FROM <sql://insee> OUT(?dept, ?annee, ?taux) { SELECT dept, annee, taux FROM chomage }
FROM <sql://insee> OUT(?dept, ?parti, ?voix) { SELECT dept, parti, voix FROM resultats }`)
	res, err := in.ExecuteOpts(q, core.ExecOptions{
		Parallel:      true,
		JoinMemBudget: int64(*budgetKB) << 10,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "spilling join: %d rows under a %d KiB build budget — %d join(s) spilled, %d B written to disk\n",
		len(res.Rows), *budgetKB, res.Stats.SpilledJoins, res.Stats.SpilledBytes)

	ref, err := in.ExecuteOpts(q, core.ExecOptions{Parallel: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "unbounded rerun: %d rows (identical multiset), %d join(s) spilled\n",
		len(ref.Rows), ref.Stats.SpilledJoins)
	return nil
}
