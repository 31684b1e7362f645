package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// randomFixture builds a three-source relational instance with random
// overlapping key data (duplicates, nulls, dangling keys) so random
// queries exercise joins that actually match, miss and cross-product.
func randomFixture(t *testing.T, rng *rand.Rand) *Instance {
	return randomSources(t, rng, 0, 6)
}

// randomSources builds sources sql://s0..s2. Source s draws its keys
// from k<s*stride> .. k<s*stride+span-1> into two tables: t(k, v), with
// some NULL v, and the directory d(k, src), whose src names one of the
// three sources (or is NULL) — the designators random dynamic atoms
// resolve at run time.
func randomSources(t *testing.T, rng *rand.Rand, stride, span int) *Instance {
	t.Helper()
	in := NewInstance(nil)
	for s := 0; s < 3; s++ {
		db := relstore.NewDatabase(fmt.Sprintf("s%d", s))
		key := func() string { return fmt.Sprintf("k%d", s*stride+rng.Intn(span)) }
		var tRows, dRows [][]any
		for i := 0; i < 12; i++ {
			if rng.Intn(8) == 0 {
				tRows = append(tRows, []any{key(), nil}) // NULL v
			} else {
				tRows = append(tRows, []any{key(), key()})
			}
		}
		for i := 0; i < 4; i++ {
			if rng.Intn(6) == 0 {
				dRows = append(dRows, []any{key(), nil}) // NULL src
			} else {
				dRows = append(dRows, []any{key(), fmt.Sprintf("sql://s%d", rng.Intn(3))})
			}
		}
		loadTable(t, db, relstore.Schema{Name: "t", Columns: []relstore.Column{
			{Name: "k", Type: value.String}, {Name: "v", Type: value.String}}}, tRows...)
		loadTable(t, db, relstore.Schema{Name: "d", Columns: []relstore.Column{
			{Name: "k", Type: value.String}, {Name: "src", Type: value.String}}}, dRows...)
		if err := in.AddSource(source.NewRelSource(fmt.Sprintf("sql://s%d", s), db)); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

// randomCMQ generates a valid random query over randomSources: a seed
// scan followed by a mix of scans (some joining on an earlier
// variable, some repeating an OUT variable), bind joins on one IN
// variable or on two from different producers, directory scans binding
// source URIs, and dynamic FROM ?s atoms over those URIs — directory
// atoms among them, some returning their own designator — the shapes
// the planner turns into multi-level DAGs. The head is a random subset
// of the variables in random order, or, for about a third of the
// queries, aggregated: GROUP BY a random subset of the variables (maybe
// none), some of them as plain head items, and COUNT, COUNT DISTINCT,
// MIN or MAX over variables. About a third of the queries each are
// DISTINCT, ORDER BY a head column (an aggregate's alias included) and
// LIMITed.
func randomCMQ(rng *rand.Rand) string {
	nAtoms := 2 + rng.Intn(3)
	var vars, keys, uris []string
	producer := map[string]int{} // variable -> atom that binds it first
	fresh, atom := 0, 0
	newVar := func(pool *[]string) string {
		v := fmt.Sprintf("x%d", fresh)
		fresh++
		vars = append(vars, v)
		*pool = append(*pool, v)
		producer[v] = atom
		return v
	}
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	// joinKey is an OUT variable that reuses an earlier key half of
	// the time, so scans join instead of cross-multiplying.
	joinKey := func() string {
		if len(keys) > 0 && rng.Intn(2) == 0 {
			return pick(keys)
		}
		return newVar(&keys)
	}

	var atoms []string
	for atom = 0; atom < nAtoms; atom++ {
		from := fmt.Sprintf("<sql://s%d>", rng.Intn(3))
		kind := rng.Intn(5) // 0-1 bind join, 2-3 scan, 4 directory
		if atom == 0 && kind < 2 {
			kind = 2
		}
		designator := ""
		if len(uris) > 0 && rng.Intn(2) == 0 {
			designator = pick(uris)
			from = "?" + designator
		}
		switch {
		case kind < 2:
			iv := pick(keys)
			var others []string
			for _, k := range keys {
				if producer[k] != producer[iv] {
					others = append(others, k)
				}
			}
			if len(others) > 0 && rng.Intn(2) == 0 {
				iv2 := pick(others)
				atoms = append(atoms, fmt.Sprintf(
					"FROM %s IN(?%s, ?%s) OUT(?%s, ?%s) { SELECT k, v FROM t WHERE k = ? AND v = ? }", from, iv, iv2, iv, iv2))
				break
			}
			atoms = append(atoms, fmt.Sprintf(
				"FROM %s IN(?%s) OUT(?%s, ?%s) { SELECT k, v FROM t WHERE k = ? }", from, iv, iv, newVar(&keys)))
		case kind < 4:
			k := joinKey()
			v := k // a repeated OUT variable keeps the rows with k = v
			if rng.Intn(4) > 0 {
				v = newVar(&keys)
			}
			atoms = append(atoms, fmt.Sprintf("FROM %s OUT(?%s, ?%s) { SELECT k, v FROM t }", from, k, v))
		default:
			k := joinKey()
			u := designator // the directory returns its own designator
			if u == "" || rng.Intn(2) == 0 {
				u = newVar(&uris)
			}
			atoms = append(atoms, fmt.Sprintf("FROM %s OUT(?%s, ?%s) { SELECT k, src FROM d }", from, k, u))
		}
	}
	var head, named []string // head items, and the column names ORDER BY can use
	var group []string
	if rng.Intn(3) == 0 {
		for _, v := range vars {
			if rng.Intn(3) == 0 {
				group = append(group, "?"+v)
				if rng.Intn(2) == 0 {
					head = append(head, "?"+v)
					named = append(named, v)
				}
			}
		}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			agg := []string{"COUNT(?%s)", "COUNT(DISTINCT ?%s)", "MIN(?%s)", "MAX(?%s)"}[rng.Intn(4)]
			head = append(head, fmt.Sprintf(agg+" AS ?a%d", pick(vars), n))
			named = append(named, fmt.Sprintf("a%d", n))
		}
		rng.Shuffle(len(head), func(i, j int) { head[i], head[j] = head[j], head[i] })
	} else {
		for _, i := range rng.Perm(len(vars))[:1+rng.Intn(len(vars))] {
			head = append(head, "?"+vars[i])
			named = append(named, vars[i])
		}
	}
	q := "QUERY q(" + strings.Join(head, ", ") + ")\n" + strings.Join(atoms, "\n")
	if len(group) > 0 {
		q += "\nGROUP BY " + strings.Join(group, ", ")
	}
	if rng.Intn(3) == 0 {
		q += "\nDISTINCT"
	}
	if rng.Intn(3) == 0 {
		q += "\nORDER BY ?" + pick(named)
		if rng.Intn(2) == 0 {
			q += " DESC"
		}
	}
	if rng.Intn(3) == 0 {
		q += fmt.Sprintf("\nLIMIT %d", 1+rng.Intn(10))
	}
	return q
}

// oracleModes are the executor configurations every oracle property
// runs: parallel, sequential, and parallel with per-tuple probes.
type oracleMode struct {
	name string
	opts ExecOptions
	// perTuple runs the mode on a twin instance whose sources hide
	// their batches (hideBatches), so every bind join probes per tuple.
	perTuple bool
}

var oracleModes = []oracleMode{
	{"parallel", ExecOptions{Parallel: true}, false},
	{"sequential", ExecOptions{Parallel: false}, false},
	{"per-tuple", ExecOptions{Parallel: true}, true},
}

// run executes q in the mode: on twin when perTuple, on in otherwise.
func (m oracleMode) run(in, twin *Instance, q *CMQ) (*QueryResult, error) {
	if m.perTuple {
		in = twin
	}
	return in.ExecuteOpts(q, m.opts)
}

// TestExecutorMatchesOracle is the executor's acceptance property: over
// randomized CMQs — dynamic atoms, aggregated heads, DISTINCT, ORDER BY
// and LIMIT included — every execution mode returns the reference
// evaluator's answer (oracle_test.go). The first seeds also run with a
// one-byte join memory budget, so every keyed join spills. Run under
// -race in CI.
func TestExecutorMatchesOracle(t *testing.T) {
	const seeds, queries, spillSeeds = 20, 100, 4
	for seed := int64(0); seed < seeds; seed++ {
		modes := oracleModes
		if seed < spillSeeds {
			modes = append(slices.Clip(modes), oracleMode{"spill", ExecOptions{Parallel: true, JoinMemBudget: 1}, false})
		}
		rng := rand.New(rand.NewSource(seed))
		in := randomFixture(t, rng)
		twin := hideBatches(randomFixture(t, rand.New(rand.NewSource(seed))))
		for qn := 0; qn < queries; qn++ {
			text := randomCMQ(rng)
			q := mustParse(t, text)
			want, err := newOracleAnswer(in, q)
			if err != nil {
				t.Fatalf("seed %d query %d (oracle): %v\n%s", seed, qn, err, text)
			}
			for _, cfg := range modes {
				res, err := cfg.run(in, twin, q)
				if err == nil {
					err = want.check(q, res)
				}
				if err != nil {
					plan := ""
					if res != nil {
						plan = res.Plan.Explain(q)
					}
					t.Fatalf("seed %d query %d (%s): %v\nquery:\n%s\nplan:\n%s", seed, qn, cfg.name, err, text, plan)
				}
			}
		}
	}
}

// TestDynamicAtomReturnsItsDesignator pins a dynamic atom whose OUT
// list names its own designator: the returned ?s must equal the URI the
// atom was sent to. The disconnected s2 scan is bigger than the seed, so
// it plans after the dynamic node and becomes the stream sink, leaving
// the dynamic node as a hash-join build side.
func TestDynamicAtomReturnsItsDesignator(t *testing.T) {
	build := func() *Instance {
		in := NewInstance(nil)
		for s, srcs := range [][]string{{"s1", "s2"}, {"s1", "s2"}, {"s1", "s1", "s1"}} {
			db := relstore.NewDatabase(fmt.Sprintf("s%d", s))
			var rows [][]any
			for i, src := range srcs {
				rows = append(rows, []any{fmt.Sprintf("k%d%d", s, i), "sql://" + src})
			}
			loadTable(t, db, relstore.Schema{Name: "d", Columns: []relstore.Column{
				{Name: "k", Type: value.String}, {Name: "src", Type: value.String}}}, rows...)
			if err := in.AddSource(source.NewRelSource(fmt.Sprintf("sql://s%d", s), db)); err != nil {
				t.Fatal(err)
			}
		}
		return in
	}
	in, twin := build(), hideBatches(build())
	text := `
QUERY q(?k, ?s, ?k2, ?z, ?w)
FROM <sql://s0> OUT(?k, ?s) { SELECT k, src FROM d }
FROM ?s OUT(?k2, ?s) { SELECT k, src FROM d }
FROM <sql://s2> OUT(?z, ?w) { SELECT k, src FROM d }`
	q := mustParse(t, text)
	want, err := newOracleAnswer(in, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.rows) != 3 {
		t.Fatalf("oracle: %d rows, want 3 (s1 names itself once, times 3 s2 rows)", len(want.rows))
	}
	for _, cfg := range oracleModes {
		res, err := cfg.run(in, twin, q)
		if err == nil {
			err = want.check(q, res)
		}
		if err != nil {
			t.Fatalf("%s: %v\nplan:\n%s", cfg.name, err, res.Plan.Explain(q))
		}
	}
}

// TestDAGReportsNodeStats checks per-node estimated vs actual rows
// surface in ExecStats, so misestimates are visible.
func TestDAGReportsNodeStats(t *testing.T) {
	in, _ := batchFixture(t)
	res, err := in.ExecuteOpts(mustParse(t, batchQuery), ExecOptions{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Nodes) != 2 {
		t.Fatalf("node stats: %+v", res.Stats.Nodes)
	}
	seedNode := res.Stats.Nodes[0]
	if seedNode.Rows != 7 { // 7 seed rows (incl. dup + NULL)
		t.Errorf("seed node actual rows = %d, want 7 (stats %+v)", seedNode.Rows, res.Stats.Nodes)
	}
	if seedNode.EstRows < 0 || seedNode.EstCost < seedNode.EstRows {
		t.Errorf("seed node estimates: %+v", seedNode)
	}
}

// slowSource is a context-aware source whose probes block for delay
// unless the query context is cancelled first — a stand-in for a slow
// remote with latency injected at the source boundary.
type slowSource struct {
	uri     string
	delay   time.Duration
	started chan struct{}
	once    sync.Once

	mu       sync.Mutex
	inFlight int
}

func (s *slowSource) URI() string                  { return s.uri }
func (s *slowSource) Model() source.Model          { return source.RelationalModel }
func (s *slowSource) Languages() []source.Language { return []source.Language{source.LangSQL} }

func (s *slowSource) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	return s.ExecuteContext(context.Background(), q, params)
}

func (s *slowSource) ExecuteContext(ctx context.Context, q source.SubQuery, params []value.Value) (*source.Result, error) {
	s.once.Do(func() { close(s.started) })
	s.mu.Lock()
	s.inFlight++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inFlight--
		s.mu.Unlock()
	}()
	select {
	case <-time.After(s.delay):
		return &source.Result{Cols: []string{"k", "v"}, Rows: []value.Row{{params[0], value.NewString("v")}}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestCancellationStopsSlowProbes proves a cancelled context stops a
// slow latency-injected source promptly — well before its injected
// delay — with no goroutine leaked by the executor.
func TestCancellationStopsSlowProbes(t *testing.T) {
	in := NewInstance(nil)
	db := relstore.NewDatabase("seed")
	seeds := loadTable(t, db, relstore.Schema{Name: "seed", Columns: []relstore.Column{{Name: "k", Type: value.String}}})
	for i := 0; i < 8; i++ {
		if err := seeds.Insert(value.Row{value.NewString(fmt.Sprintf("k%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.AddSource(source.NewRelSource("sql://seed", db)); err != nil {
		t.Fatal(err)
	}
	slow := &slowSource{uri: "sql://slow", delay: 30 * time.Second, started: make(chan struct{})}
	if err := in.AddSource(slow); err != nil {
		t.Fatal(err)
	}
	q := mustParse(t, `
QUERY q(?k, ?v)
FROM <sql://seed> OUT(?k) { SELECT k FROM seed }
FROM <sql://slow> IN(?k) OUT(?k, ?v) { SELECT k, v FROM t WHERE k = ? }
`)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := in.ExecuteContext(ctx, q, ExecOptions{Parallel: true})
		errCh <- err
	}()

	<-slow.started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled execution returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled execution did not return before the injected 30s delay")
	}

	// Every probe goroutine must unwind: no goroutine leak, no probe
	// left blocking on the 30s delay.
	deadline := time.Now().Add(5 * time.Second)
	for {
		slow.mu.Lock()
		inFlight := slow.inFlight
		slow.mu.Unlock()
		if inFlight == 0 && runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak: %d probes in flight, %d goroutines (baseline %d)",
				inFlight, runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelledContextRefusesExecution: a context that is already done
// never ships a sub-query.
func TestCancelledContextRefusesExecution(t *testing.T) {
	in, probe := batchFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := in.ExecuteContext(ctx, mustParse(t, batchQuery), ExecOptions{Parallel: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if probe.execCalls != 0 || probe.batchCalls != 0 {
		t.Errorf("probes shipped under a dead context: exec=%d batch=%d", probe.execCalls, probe.batchCalls)
	}
}

// TestDefaultMaxFanout checks the hardware-derived default stays in
// its documented clamp.
func TestDefaultMaxFanout(t *testing.T) {
	n := DefaultMaxFanout()
	if n < 8 || n > 64 {
		t.Fatalf("DefaultMaxFanout() = %d, want within [8, 64]", n)
	}
	if want := 2 * runtime.GOMAXPROCS(0); want >= 8 && want <= 64 && n != want {
		t.Fatalf("DefaultMaxFanout() = %d, want 2*GOMAXPROCS = %d", n, want)
	}
}
