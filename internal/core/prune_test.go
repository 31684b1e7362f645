package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

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
	loadTable(t, seed, relstore.Schema{Name: "seed", Columns: []relstore.Column{
		{Name: "k", Type: value.String}}},
		[]any{"a"}, []any{"b"}, []any{"m0"}, []any{"m1"}, []any{"m2"}, []any{"m3"}, []any{"a"})
	if err := in.AddSource(source.NewRelSource("sql://seed", seed)); err != nil {
		t.Fatal(err)
	}
	target := relstore.NewDatabase("target")
	loadTable(t, target, relstore.Schema{Name: "t", Columns: []relstore.Column{
		{Name: "k", Type: value.String}, {Name: "v", Type: value.String}}},
		[]any{"a", "va"}, []any{"a", "va2"}, []any{"b", "vb"})
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
// the reference evaluator's — with probe fan-out and without.
func TestDigestPruningSkipsProbes(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts ExecOptions
	}{
		{"streaming", ExecOptions{Parallel: true}},
		{"sequential", ExecOptions{Parallel: false}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			in := pruneFixture(t)
			q := mustParse(t, pruneQuery)
			res, err := in.ExecuteOpts(q, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkOracle(in, q, res); err != nil {
				t.Fatal(err)
			}
			// Six distinct keys, four provably absent from the target.
			if res.Stats.PrunedProbes != 4 {
				t.Fatalf("PrunedProbes = %d, want 4", res.Stats.PrunedProbes)
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
// reference evaluator's answer (oracle_test.go) in every executor mode
// — and the run as a whole must actually prune something, or the
// property is vacuous. Run under -race in CI.
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
				{"pruned-streaming", ExecOptions{Parallel: true}},
				{"pruned-sequential", ExecOptions{Parallel: false}},
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

// TestDigestPlanningTightensEstimates pins digest-first planning: where
// the digest answers, its estimate is the plan's and the source's flat
// selectivity guess is never asked for. The query's predicate matches
// nothing; the digest proves it (estimate 0 = actual 0, no drift in
// ExecStats.Nodes) where the source's own estimate stays positive.
func TestDigestPlanningTightensEstimates(t *testing.T) {
	in := pruneFixture(t)
	q := mustParse(t, `
QUERY q(?x, ?y)
FROM <sql://target> OUT(?x, ?y) { SELECT k, v FROM t WHERE k = 'absent' }
`)
	res, err := in.ExecuteOpts(q, ExecOptions{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Stats.Nodes {
		if n.EstRows != n.Rows {
			t.Fatalf("digest should prove the predicate empty (drift 0): node %+v", n)
		}
	}
	target, err := in.ResolveSource("sql://target")
	if err != nil {
		t.Fatal(err)
	}
	if flat, _ := source.EstimateOf(target, q.Atoms[0].Sub, 0); flat <= 0 {
		t.Fatalf("source estimate = %d; the fixture no longer leaves the digest anything to tighten", flat)
	}
}

// prunableBatchSource is a scripted batch-capable bind-join target
// that advertises a digest covering only the keys it can match.
type prunableBatchSource struct {
	uri string
	dig *digest.Digest

	mu         sync.Mutex
	execCalls  int
	batchCalls int
}

func (s *prunableBatchSource) URI() string                  { return s.uri }
func (s *prunableBatchSource) Model() source.Model          { return source.RelationalModel }
func (s *prunableBatchSource) Languages() []source.Language { return []source.Language{source.LangSQL} }

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
	out := make([]*source.Result, len(paramSets))
	for i := range out {
		out[i] = &source.Result{Cols: []string{"k", "v"}}
	}
	return out, nil
}

// TestTunerIgnoresFullyPrunedBindJoin: when the digest prunes every
// binding, no chunk reaches the wire — the batch-capable source sees
// neither a batch nor a single probe, so there is no round trip for
// any batch sizing to learn from. (The name predates the removal of
// the adaptive batch tuner; bind joins now always chunk by
// DefaultProbeBatch.)
func TestTunerIgnoresFullyPrunedBindJoin(t *testing.T) {
	in := NewInstance(nil)
	seed := relstore.NewDatabase("seed")
	loadTable(t, seed, relstore.Schema{Name: "seed", Columns: []relstore.Column{
		{Name: "k", Type: value.String}}},
		[]any{"m0"}, []any{"m1"}, []any{"m2"}, []any{"m3"}, []any{"m4"}, []any{"m5"})
	if err := in.AddSource(source.NewRelSource("sql://seed", seed)); err != nil {
		t.Fatal(err)
	}
	// The digest is built from a table holding only 'a' and 'b' — every
	// seed key is provably absent.
	db := relstore.NewDatabase("digest")
	loadTable(t, db, relstore.Schema{Name: "t", Columns: []relstore.Column{
		{Name: "k", Type: value.String}, {Name: "v", Type: value.String}}},
		[]any{"a", "va"}, []any{"b", "vb"})
	probe := &prunableBatchSource{
		uri: "sql://probe",
		dig: digest.BuildRelational("sql://probe", db, digest.DefaultBudget()),
	}
	if err := in.AddSource(probe); err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, `
QUERY q(?x, ?y)
FROM <sql://seed> OUT(?x) { SELECT k FROM seed }
FROM <sql://probe> IN(?x) OUT(?x, ?y) { SELECT k, v FROM t WHERE k = ? }
`)
	t.Run("streaming", func(t *testing.T) {
		res, err := in.ExecuteOpts(q, ExecOptions{Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PrunedProbes != 6 {
			t.Fatalf("PrunedProbes = %d, want 6 (every binding)", res.Stats.PrunedProbes)
		}
		if res.Stats.BatchProbes != 0 || probe.batchCalls != 0 || probe.execCalls != 0 {
			t.Fatalf("fully-pruned bind join dispatched %d batches, %d probes (%d batch stats)",
				probe.batchCalls, probe.execCalls, res.Stats.BatchProbes)
		}
	})
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
}
