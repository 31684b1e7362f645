package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// batchProbeSource is a scripted bind-join target implementing
// source.BatchProber, instrumented to count per-tuple and batched
// dispatches.
type batchProbeSource struct {
	uri string

	mu          sync.Mutex
	execCalls   int
	batchCalls  int
	batchSizes  []int
	failBatchAt int  // 1-based batch call that errors (0 = never)
	unsupported bool // ExecuteBatch always reports ErrBatchUnsupported
}

func (s *batchProbeSource) URI() string                  { return s.uri }
func (s *batchProbeSource) Model() source.Model          { return source.RelationalModel }
func (s *batchProbeSource) Languages() []source.Language { return []source.Language{source.LangSQL} }

// rowsFor scripts the probe result per outer binding. "c" returns one
// row whose echo column mismatches the binding, which the executor's
// outCheck equality filter must drop; "dup" returns duplicate rows.
func (s *batchProbeSource) rowsFor(p value.Value) []value.Row {
	switch p.Str() {
	case "a":
		return []value.Row{
			{value.NewString("a"), value.NewInt(1)},
			{value.NewString("a"), value.NewInt(2)},
		}
	case "b":
		return []value.Row{{value.NewString("b"), value.NewInt(3)}}
	case "c":
		return []value.Row{
			{value.NewString("MISMATCH"), value.NewInt(99)},
			{value.NewString("c"), value.NewInt(4)},
		}
	case "dup":
		return []value.Row{
			{value.NewString("dup"), value.NewInt(7)},
			{value.NewString("dup"), value.NewInt(7)},
		}
	default:
		return nil
	}
}

func (s *batchProbeSource) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	s.mu.Lock()
	s.execCalls++
	s.mu.Unlock()
	return &source.Result{Cols: []string{"k", "v"}, Rows: s.rowsFor(params[0])}, nil
}

func (s *batchProbeSource) ExecuteBatch(q source.SubQuery, paramSets []value.Row) ([]*source.Result, error) {
	s.mu.Lock()
	s.batchCalls++
	call := s.batchCalls
	s.batchSizes = append(s.batchSizes, len(paramSets))
	s.mu.Unlock()
	if s.unsupported {
		return nil, source.ErrBatchUnsupported
	}
	if s.failBatchAt > 0 && call == s.failBatchAt {
		return nil, fmt.Errorf("batch %d exploded", call)
	}
	out := make([]*source.Result, len(paramSets))
	for i, ps := range paramSets {
		out[i] = &source.Result{Cols: []string{"k", "v"}, Rows: s.rowsFor(ps[0])}
	}
	return out, nil
}

// perTupleSource hides a source's ExecuteBatch, so bind joins probe it
// one tuple at a time; Unwrap keeps its digest reachable.
type perTupleSource struct{ source.DataSource }

func (s perTupleSource) Unwrap() source.DataSource { return s.DataSource }

// hideBatches wraps every source of in in perTupleSource.
func hideBatches(in *Instance) *Instance {
	in.Sources().Interpose(func(s source.DataSource) source.DataSource { return perTupleSource{s} })
	return in
}

// batchFixture builds an instance whose seed atom yields duplicate and
// NULL bindings (5 distinct non-null tuples) and whose second atom bind
// joins against the scripted probe source.
func batchFixture(t *testing.T) (*Instance, *batchProbeSource) {
	return batchFixtureFill(t, 0)
}

// batchFill is the number of filler keys (matching no probe row) that
// take batchFixtureFill past one batch: 5 + DefaultProbeBatch distinct
// tuples ship as two batches.
const batchFill = DefaultProbeBatch

// batchFixtureFill is batchFixture with fill more distinct seed keys,
// none of which the probe source matches.
func batchFixtureFill(t *testing.T, fill int) (*Instance, *batchProbeSource) {
	t.Helper()
	in := NewInstance(nil)
	db := relstore.NewDatabase("seed")
	stmts := []string{
		"CREATE TABLE seed (k TEXT)",
		"INSERT INTO seed (k) VALUES ('a'), ('b'), ('a'), ('c'), ('dup'), ('missing')",
		"INSERT INTO seed VALUES (NULL)",
	}
	for i := 0; i < fill; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO seed VALUES ('f%03d')", i))
	}
	for _, q := range stmts {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.AddSource(source.NewRelSource("sql://seed", db)); err != nil {
		t.Fatal(err)
	}
	probe := &batchProbeSource{uri: "sql://probe"}
	if err := in.AddSource(probe); err != nil {
		t.Fatal(err)
	}
	return in, probe
}

const batchQuery = `
QUERY q(?x, ?y)
FROM <sql://seed> OUT(?x) { SELECT k FROM seed }
FROM <sql://probe> IN(?x) OUT(?x, ?y) { SELECT k, v FROM t WHERE k = ? }
`

func mustParse(t *testing.T, text string) *CMQ {
	t.Helper()
	q, _, err := ParseCMQ(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func sortedRows(res *QueryResult) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.Key()
	}
	sort.Strings(out)
	return out
}

// TestBatchedBindJoinMatchesPerProbe is the acceptance check: batched
// and per-probe bind joins return byte-identical relations (duplicate
// probe rows kept, NULL bindings skipped, outCheck mismatches dropped),
// and the batched run reports ⌈N/DefaultProbeBatch⌉ probe sub-queries
// instead of N.
func TestBatchedBindJoinMatchesPerProbe(t *testing.T) {
	const distinct = 5 + batchFill // a, b, c, dup, missing and the fillers
	q := mustParse(t, batchQuery)
	for _, parallel := range []bool{false, true} {
		inRef, ref := batchFixtureFill(t, batchFill)
		perProbe, err := hideBatches(inRef).ExecuteOpts(q, ExecOptions{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		in, probe := batchFixtureFill(t, batchFill)
		batched, err := in.ExecuteOpts(q, ExecOptions{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}

		if got, want := sortedRows(batched), sortedRows(perProbe); !equalStrings(got, want) {
			t.Errorf("parallel=%v: batched rows diverge:\n got %v\nwant %v", parallel, got, want)
		}
		if len(perProbe.Rows) == 0 {
			t.Fatalf("fixture produced no rows")
		}
		// Per-probe ships one probe sub-query per distinct non-null
		// binding; batched ships ⌈distinct/64⌉ = 2.
		if perProbe.Stats.SubQueries != 1+distinct || perProbe.Stats.BatchProbes != 0 {
			t.Errorf("parallel=%v: per-probe stats: %+v", parallel, perProbe.Stats)
		}
		if batched.Stats.SubQueries != 1+2 || batched.Stats.BatchProbes != 2 {
			t.Errorf("parallel=%v: batched stats: %+v", parallel, batched.Stats)
		}
		if ref.execCalls != distinct || ref.batchCalls != 0 {
			t.Errorf("parallel=%v: per-probe calls: exec=%d batch=%d, want %d/0", parallel, ref.execCalls, ref.batchCalls, distinct)
		}
		if probe.execCalls != 0 || probe.batchCalls != 2 {
			t.Errorf("parallel=%v: batched calls: exec=%d batch=%d, want 0/2", parallel, probe.execCalls, probe.batchCalls)
		}
		sizes := slices.Sorted(slices.Values(probe.batchSizes))
		if !slices.Equal(sizes, []int{distinct - DefaultProbeBatch, DefaultProbeBatch}) {
			t.Errorf("parallel=%v: batch sizes = %v, want one full batch of %d and the remainder", parallel, sizes, DefaultProbeBatch)
		}
	}
}

// TestBatchedBindJoinDefaultBatchSize checks tuples that fit in
// DefaultProbeBatch ship as one batch: 5 tuples → exactly one probe
// sub-query beyond the seed scan.
func TestBatchedBindJoinDefaultBatchSize(t *testing.T) {
	in, probe := batchFixture(t)
	res, err := in.ExecuteOpts(mustParse(t, batchQuery), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubQueries != 2 || res.Stats.BatchProbes != 1 {
		t.Errorf("default batch stats: %+v", res.Stats)
	}
	if probe.batchSizes[0] != 5 {
		t.Errorf("batch size = %d, want 5", probe.batchSizes[0])
	}
}

// TestBatchUnsupportedFallsBackPerTuple checks a source whose
// ExecuteBatch rejects the sub-query degrades to per-tuple probes with
// identical results and no BatchProbes counted.
func TestBatchUnsupportedFallsBackPerTuple(t *testing.T) {
	const distinct = 5 + batchFill
	in, probe := batchFixtureFill(t, batchFill)
	probe.unsupported = true
	q := mustParse(t, batchQuery)
	res, err := in.ExecuteOpts(q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	inRef, _ := batchFixtureFill(t, batchFill)
	ref, err := hideBatches(inRef).ExecuteOpts(q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedRows(res), sortedRows(ref); !equalStrings(got, want) {
		t.Errorf("fallback rows diverge:\n got %v\nwant %v", got, want)
	}
	if res.Stats.BatchProbes != 0 {
		t.Errorf("BatchProbes = %d after unsupported batches", res.Stats.BatchProbes)
	}
	if res.Stats.SubQueries != 1+distinct {
		t.Errorf("SubQueries = %d, want %d (per-tuple fallback)", res.Stats.SubQueries, 1+distinct)
	}
	if probe.execCalls != distinct || probe.batchCalls != 2 {
		t.Errorf("calls: exec=%d batch=%d, want %d/2", probe.execCalls, probe.batchCalls, distinct)
	}
}

// TestPartialBatchFailureAborts checks a real error from one batch of a
// multi-batch bind join aborts the query.
func TestPartialBatchFailureAborts(t *testing.T) {
	in, probe := batchFixtureFill(t, batchFill)
	probe.failBatchAt = 2
	_, err := in.ExecuteOpts(mustParse(t, batchQuery), ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "batch 2 exploded") {
		t.Errorf("partial batch failure: err = %v", err)
	}
}

// TestStreamedFinishMatchesMaterialized checks the root join pipeline
// streaming straight into the finishing operators returns exactly what
// the materializing reference evaluator returns, across projection,
// distinct, order and limit.
func TestStreamedFinishMatchesMaterialized(t *testing.T) {
	build := func() *Instance {
		in := NewInstance(nil)
		db := relstore.NewDatabase("d")
		for _, q := range []string{
			"CREATE TABLE t1 (k TEXT, v INT)",
			"INSERT INTO t1 VALUES ('a', 1), ('b', 2), ('c', 3), ('a', 1)",
			"CREATE TABLE t2 (k TEXT, w INT)",
			"INSERT INTO t2 VALUES ('a', 10), ('b', 20), ('b', 21), ('z', 99)",
		} {
			if _, err := db.Exec(q); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.AddSource(source.NewRelSource("sql://d", db)); err != nil {
			t.Fatal(err)
		}
		return in
	}
	for _, text := range []string{
		// Plain join + projection.
		`QUERY q(?x, ?w)
FROM <sql://d> OUT(?x, ?v) { SELECT k, v FROM t1 }
FROM <sql://d> OUT(?x, ?w) { SELECT k, w FROM t2 }`,
		// Distinct + order + limit over the streamed pipeline.
		`QUERY q(?x, ?w)
FROM <sql://d> OUT(?x, ?v) { SELECT k, v FROM t1 }
FROM <sql://d> OUT(?x, ?w) { SELECT k, w FROM t2 }
DISTINCT ORDER BY ?w DESC LIMIT 3`,
	} {
		q := mustParse(t, text)
		in := build()
		streamed, err := in.ExecuteOpts(q, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkOracle(in, q, streamed); err != nil {
			t.Fatalf("%v\n%s", err, text)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
