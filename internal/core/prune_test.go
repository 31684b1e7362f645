package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"tatooine/internal/digest"
	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// pruneFixture builds an instance whose seed scan yields mostly-absent
// keys for the bind-join target: the target table holds only 'a' and
// 'b', the seed also mentions four keys the target cannot match, so a
// digest-driven executor should prune four of six distinct probes.
func pruneFixture(t *testing.T) *Instance {
	t.Helper()
	in := NewInstance(nil)
	seed := relstore.NewDatabase("seed")
	for _, q := range []string{
		"CREATE TABLE seed (k TEXT)",
		"INSERT INTO seed (k) VALUES ('a'), ('b'), ('m0'), ('m1'), ('m2'), ('m3'), ('a')",
	} {
		if _, err := seed.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.AddSource(source.NewRelSource("sql://seed", seed)); err != nil {
		t.Fatal(err)
	}
	target := relstore.NewDatabase("target")
	for _, q := range []string{
		"CREATE TABLE t (k TEXT, v TEXT)",
		"INSERT INTO t VALUES ('a', 'va'), ('a', 'va2'), ('b', 'vb')",
	} {
		if _, err := target.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.AddSource(source.NewRelSource("sql://target", target)); err != nil {
		t.Fatal(err)
	}
	return in
}

const pruneQuery = `
QUERY q(?x, ?y)
FROM <sql://seed> OUT(?x) { SELECT k FROM seed }
FROM <sql://target> IN(?x) OUT(?x, ?y) { SELECT k, v FROM t WHERE k = ? }
`

// TestDigestPruningSkipsProbes checks the direct effect of semi-join
// pruning: bindings the target's digest excludes never probe, the
// skipped count surfaces in ExecStats.PrunedProbes, and the rows are
// identical to the unpruned execution — with probe fan-out and
// without.
func TestDigestPruningSkipsProbes(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts ExecOptions
	}{
		{"streaming", ExecOptions{Parallel: true, ProbeBatch: 2}},
		{"sequential", ExecOptions{Parallel: false, ProbeBatch: 2}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			in := pruneFixture(t)
			q := mustParse(t, pruneQuery)

			off := mode.opts
			off.NoDigestPlanning = true
			ref, err := in.ExecuteOpts(q, off)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Stats.PrunedProbes != 0 {
				t.Fatalf("unpruned run reports %d pruned probes", ref.Stats.PrunedProbes)
			}

			res, err := in.ExecuteOpts(q, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedRows(res), sortedRows(ref); !equalStrings(got, want) {
				t.Fatalf("pruned rows diverge:\n got %v\nwant %v", got, want)
			}
			// Six distinct keys, four provably absent from the target.
			if res.Stats.PrunedProbes != 4 {
				t.Fatalf("PrunedProbes = %d, want 4", res.Stats.PrunedProbes)
			}
			if res.Stats.SubQueries >= ref.Stats.SubQueries {
				t.Fatalf("pruned run shipped %d sub-queries, unpruned %d — pruning saved nothing",
					res.Stats.SubQueries, ref.Stats.SubQueries)
			}
		})
	}
}

// prunableFixture is randomFixture with per-source key domains offset
// against each other (s0: k0–k7, s1: k4–k11, s2: k8–k15), so random
// bind joins routinely carry keys the target source cannot match — the
// shape where digest pruning fires.
func prunableFixture(t *testing.T, rng *rand.Rand) *Instance {
	return randomSources(t, rng, 4, 8)
}

// TestPrunedExecutionMatchesUnprunedProperty is the tentpole's
// correctness property: over randomized CMQs against sources with
// partially disjoint key domains, digest-pruned execution returns the
// reference evaluator's answer (oracle_test.go) in every executor mode,
// as does the unpruned execution — and the run as a whole must actually
// prune something, or the property is vacuous. Run under -race in CI.
func TestPrunedExecutionMatchesUnprunedProperty(t *testing.T) {
	const seeds, queries = 4, 20
	totalPruned := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := prunableFixture(t, rng)
		for qn := 0; qn < queries; qn++ {
			text := randomCMQ(rng)
			q := mustParse(t, text)
			for _, cfg := range []struct {
				name string
				opts ExecOptions
			}{
				{"unpruned", ExecOptions{Parallel: false, NoDigestPlanning: true}},
				{"pruned-streaming", ExecOptions{Parallel: true}},
				{"pruned-sequential", ExecOptions{Parallel: false}},
				{"pruned-naive-order", ExecOptions{Parallel: true, NaiveOrder: true}},
			} {
				res, err := in.ExecuteOpts(q, cfg.opts)
				if err == nil {
					err = checkOracle(in, q, res)
				}
				if err != nil {
					t.Fatalf("seed %d query %d (%s): %v\n%s", seed, qn, cfg.name, err, text)
				}
				totalPruned += res.Stats.PrunedProbes
			}
		}
	}
	if totalPruned == 0 {
		t.Fatal("property run never pruned a probe; the fixture no longer exercises pruning")
	}
}

// TestDigestPlanningTightensEstimates pins the planning half of the
// tentpole: the digest's statistics replace the source's flat
// selectivity guess, so estimate-vs-actual drift in ExecStats.Nodes
// shrinks. The query's predicate matches nothing; the digest proves it
// (estimate 0 = actual 0) where the flat guess stays positive.
func TestDigestPlanningTightensEstimates(t *testing.T) {
	in := pruneFixture(t)
	q := mustParse(t, `
QUERY q(?x, ?y)
FROM <sql://target> OUT(?x, ?y) { SELECT k, v FROM t WHERE k = 'absent' }
`)
	drift := func(opts ExecOptions) int {
		res, err := in.ExecuteOpts(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range res.Stats.Nodes {
			d := n.EstRows - n.Rows
			if d < 0 {
				d = -d
			}
			total += d
		}
		return total
	}
	flat := drift(ExecOptions{Parallel: true, NoDigestPlanning: true})
	refined := drift(ExecOptions{Parallel: true})
	if refined >= flat {
		t.Fatalf("digest planning did not tighten estimates: drift %d (refined) vs %d (flat)", refined, flat)
	}
	if refined != 0 {
		t.Fatalf("digest should prove the predicate empty (drift 0), got %d", refined)
	}
}

// prunableBatchSource is a scripted batch-capable bind-join target
// that advertises a digest covering only the keys it can match, and
// injects a small RTT so a BatchTuner observing its round trips would
// grow the batch size.
type prunableBatchSource struct {
	uri string
	dig *digest.Digest

	mu         sync.Mutex
	execCalls  int
	batchCalls int
}

func (s *prunableBatchSource) URI() string                           { return s.uri }
func (s *prunableBatchSource) Model() source.Model                   { return source.RelationalModel }
func (s *prunableBatchSource) Languages() []source.Language          { return []source.Language{source.LangSQL} }
func (s *prunableBatchSource) EstimateCost(source.SubQuery, int) int { return 1 }

func (s *prunableBatchSource) Digest(digest.Budget) (*digest.Digest, error) { return s.dig, nil }

func (s *prunableBatchSource) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	s.mu.Lock()
	s.execCalls++
	s.mu.Unlock()
	return &source.Result{Cols: []string{"k", "v"}}, nil
}

func (s *prunableBatchSource) ExecuteBatch(q source.SubQuery, paramSets []value.Row) ([]*source.Result, error) {
	s.mu.Lock()
	s.batchCalls++
	s.mu.Unlock()
	time.Sleep(2 * time.Millisecond) // above the tuner's wire floor, below its grow threshold
	out := make([]*source.Result, len(paramSets))
	for i := range out {
		out[i] = &source.Result{Cols: []string{"k", "v"}}
	}
	return out, nil
}

// TestTunerIgnoresFullyPrunedBindJoin pins the tuner satellite: when
// the digest prunes every binding, no chunk reaches the wire, so the
// adaptive batch size must not move — there was no round trip to learn
// from. The control run with pruning disabled dispatches batches and
// grows the size, proving the signal exists when probes do ship.
func TestTunerIgnoresFullyPrunedBindJoin(t *testing.T) {
	newInstance := func(t *testing.T) (*Instance, *prunableBatchSource) {
		t.Helper()
		in := NewInstance(nil)
		seed := relstore.NewDatabase("seed")
		for _, q := range []string{
			"CREATE TABLE seed (k TEXT)",
			"INSERT INTO seed (k) VALUES ('m0'), ('m1'), ('m2'), ('m3'), ('m4'), ('m5')",
		} {
			if _, err := seed.Exec(q); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.AddSource(source.NewRelSource("sql://seed", seed)); err != nil {
			t.Fatal(err)
		}
		// The digest is built from a table holding only 'a' and 'b' —
		// every seed key is provably absent.
		db := relstore.NewDatabase("digest")
		for _, q := range []string{
			"CREATE TABLE t (k TEXT, v TEXT)",
			"INSERT INTO t VALUES ('a', 'va'), ('b', 'vb')",
		} {
			if _, err := db.Exec(q); err != nil {
				t.Fatal(err)
			}
		}
		probe := &prunableBatchSource{
			uri: "sql://probe",
			dig: digest.BuildRelational("sql://probe", db, digest.DefaultBudget()),
		}
		if err := in.AddSource(probe); err != nil {
			t.Fatal(err)
		}
		return in, probe
	}
	query := `
QUERY q(?x, ?y)
FROM <sql://seed> OUT(?x) { SELECT k FROM seed }
FROM <sql://probe> IN(?x) OUT(?x, ?y) { SELECT k, v FROM t WHERE k = ? }
`
	for _, mode := range []struct {
		name string
		opts ExecOptions
	}{
		{"streaming", ExecOptions{Parallel: true, ProbeBatch: 4}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			in, probe := newInstance(t)
			q := mustParse(t, query)

			opts := mode.opts
			opts.Tuner = NewBatchTuner()
			res, err := in.ExecuteOpts(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PrunedProbes != 6 {
				t.Fatalf("PrunedProbes = %d, want 6 (every binding)", res.Stats.PrunedProbes)
			}
			if res.Stats.BatchProbes != 0 || probe.batchCalls != 0 {
				t.Fatalf("fully-pruned bind join dispatched %d batches (%d stats)", probe.batchCalls, res.Stats.BatchProbes)
			}
			if got := opts.Tuner.Size(probe.uri, mode.opts.ProbeBatch); got != MinProbeBatch {
				t.Fatalf("tuner moved to %d on zero probes, want the %d floor untouched", got, MinProbeBatch)
			}

			// Control: with pruning off the same query ships batches and the
			// tuner grows the size from the observed (fast) round trips.
			in2, probe2 := newInstance(t)
			off := mode.opts
			off.Tuner = NewBatchTuner()
			off.NoDigestPlanning = true
			if _, err := in2.ExecuteOpts(q, off); err != nil {
				t.Fatal(err)
			}
			if probe2.batchCalls == 0 {
				t.Fatal("control run dispatched no batches; the fixture no longer exercises batching")
			}
			if got := off.Tuner.Size(probe2.uri, mode.opts.ProbeBatch); got <= MinProbeBatch {
				t.Fatalf("control tuner size = %d, expected growth past the %d floor", got, MinProbeBatch)
			}
		})
	}
}

// TestExplainReportsPruningDecision checks {"explain": true} carries
// the per-atom pruning decision alongside the refined row estimates.
func TestExplainReportsPruningDecision(t *testing.T) {
	in := pruneFixture(t)
	q := mustParse(t, pruneQuery)
	info, err := in.ExplainQuery(q, ExecOptions{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Atoms) != 2 {
		t.Fatalf("atoms: %d", len(info.Atoms))
	}
	if info.Atoms[0].Pruning != "" {
		t.Errorf("scan atom has a pruning decision: %q", info.Atoms[0].Pruning)
	}
	if got := info.Atoms[1].Pruning; !strings.Contains(got, "digest covers") {
		t.Errorf("bind-join pruning decision: %q", got)
	}

	off, err := in.ExplainQuery(q, ExecOptions{Parallel: true, NoDigestPlanning: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := off.Atoms[1].Pruning; !strings.Contains(got, "disabled") {
		t.Errorf("ablation pruning decision: %q", got)
	}
}
