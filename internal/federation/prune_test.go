package federation

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// countingBatchSource forwards to an inner batch-capable source and
// records how many parameter tuples reach it. It digests as the inner
// source, so the endpoint's GET /digest still describes the data.
type countingBatchSource struct {
	source.DataSource
	mu     sync.Mutex
	tuples int
}

func (s *countingBatchSource) Unwrap() source.DataSource { return s.DataSource }

func (s *countingBatchSource) ExecuteBatch(q source.SubQuery, paramSets []value.Row) ([]*source.Result, error) {
	s.mu.Lock()
	s.tuples += len(paramSets)
	s.mu.Unlock()
	return s.DataSource.(source.BatchProber).ExecuteBatch(q, paramSets)
}

func (s *countingBatchSource) probed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tuples
}

// TestRemoteBindJoinShipsOnlySurvivingTuples: a bind join into a remote
// endpoint whose digest excludes most outer keys prunes them on the
// mediator, so the endpoint's /batch receives exactly the distinct
// bindings that survive — and the answer is the nested-loop join of the
// two tables.
func TestRemoteBindJoinShipsOnlySurvivingTuples(t *testing.T) {
	var seedKeys []string
	for i := 0; i < 40; i++ {
		seedKeys = append(seedKeys, fmt.Sprintf("k%d", i))
	}
	seedKeys = append(seedKeys, "k0", "k7", "k10") // repeated bindings probe once
	type pair struct{ k, v string }
	var target []pair
	for i := 0; i < 40; i += 5 {
		target = append(target, pair{fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)})
	}
	target = append(target, pair{"k10", "v10b"}, pair{"z1", "vz"})

	exec := func(db *relstore.Database, stmts ...string) {
		t.Helper()
		for _, s := range stmts {
			if _, err := db.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	seed := relstore.NewDatabase("seed")
	exec(seed, "CREATE TABLE seed (k TEXT)")
	for _, k := range seedKeys {
		exec(seed, fmt.Sprintf("INSERT INTO seed VALUES ('%s')", k))
	}
	tdb := relstore.NewDatabase("target")
	exec(tdb, "CREATE TABLE t (k TEXT, v TEXT)")
	for _, p := range target {
		exec(tdb, fmt.Sprintf("INSERT INTO t VALUES ('%s', '%s')", p.k, p.v))
	}

	remote := &countingBatchSource{DataSource: source.NewRelSource("sql://target", tdb)}
	srv := httptest.NewServer(Handler(remote))
	t.Cleanup(srv.Close)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	in := core.NewInstance(nil)
	for _, s := range []source.DataSource{source.NewRelSource("sql://seed", seed), c} {
		if err := in.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	q := core.MustParseCMQ(`
QUERY q(?x, ?y)
FROM <sql://seed> OUT(?x) { SELECT k FROM seed }
FROM <sql://target> IN(?x) OUT(?x, ?y) { SELECT k, v FROM t WHERE k = ? }
`)
	res, err := in.ExecuteOpts(q, core.ExecOptions{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}

	var want, got []string
	for _, k := range seedKeys {
		for _, p := range target {
			if p.k == k {
				want = append(want, value.Row{value.NewString(k), value.NewString(p.v)}.Key())
			}
		}
	}
	for _, r := range res.Rows {
		got = append(got, r.Key())
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("answer %v, nested-loop join %v", got, want)
	}

	distinct := len(slices.Compact(slices.Sorted(slices.Values(seedKeys))))
	pruned := res.Stats.PrunedProbes
	if pruned == 0 {
		t.Fatal("nothing pruned: the fixture no longer exercises digest pruning")
	}
	if got := remote.probed(); got != distinct-pruned {
		t.Errorf("/batch received %d tuples, want %d distinct bindings - %d pruned", got, distinct, pruned)
	}
}
