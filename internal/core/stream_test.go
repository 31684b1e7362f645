package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tatooine/internal/relstore"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// countingSource is a context-aware probe source that counts every
// sub-query shipped to it and injects a small latency, so tests can
// observe how many probes a LIMIT-terminated execution actually paid
// for.
type countingSource struct {
	uri   string
	delay time.Duration
	calls atomic.Int64

	mu       sync.Mutex
	inFlight int
}

func (s *countingSource) URI() string                  { return s.uri }
func (s *countingSource) Model() source.Model          { return source.RelationalModel }
func (s *countingSource) Languages() []source.Language { return []source.Language{source.LangSQL} }

func (s *countingSource) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	return s.ExecuteContext(context.Background(), q, params)
}

func (s *countingSource) ExecuteContext(ctx context.Context, q source.SubQuery, params []value.Value) (*source.Result, error) {
	s.calls.Add(1)
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

// streamFixture builds an instance with a seeded table of n keys and a
// latency-injected counting probe source — a bind join over it ships
// one probe per distinct key.
func streamFixture(t *testing.T, n int, delay time.Duration) (*Instance, *countingSource) {
	t.Helper()
	in := NewInstance(nil)
	db := relstore.NewDatabase("seed")
	seeds := loadTable(t, db, relstore.Schema{Name: "seed", Columns: []relstore.Column{{Name: "k", Type: value.String}}})
	for i := 0; i < n; i++ {
		if err := seeds.Insert(value.Row{value.NewString(fmt.Sprintf("k%02d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.AddSource(source.NewRelSource("sql://seed", db)); err != nil {
		t.Fatal(err)
	}
	probe := &countingSource{uri: "sql://probe", delay: delay}
	if err := in.AddSource(probe); err != nil {
		t.Fatal(err)
	}
	return in, probe
}

const streamQuery = `
QUERY q(?k, ?v)
FROM <sql://seed> OUT(?k) { SELECT k FROM seed }
FROM <sql://probe> IN(?k) OUT(?k, ?v) { SELECT k, v FROM t WHERE k = ? }
`

// TestLimitCancelsUpstreamProbes pins the streaming executor's early
// termination: a LIMIT satisfied by the first rows must cancel the
// remaining bind-join probes upstream, so a tiny LIMIT over a
// federated join pays a strictly smaller probe bill than the full
// drain, instead of executing everything and discarding rows at the
// end.
func TestLimitCancelsUpstreamProbes(t *testing.T) {
	const keys = 32
	run := func(suffix string) int64 {
		in, probe := streamFixture(t, keys, 2*time.Millisecond)
		res, err := in.ExecuteOpts(mustParse(t, streamQuery+suffix),
			ExecOptions{Parallel: false})
		if err != nil {
			t.Fatalf("%q: %v", suffix, err)
		}
		if suffix == "" && len(res.Rows) != keys {
			t.Fatalf("full drain returned %d rows, want %d", len(res.Rows), keys)
		}
		return probe.calls.Load()
	}
	full := run("")
	if full != keys {
		t.Fatalf("full drain shipped %d probes, want %d", full, keys)
	}
	limited := run("LIMIT 1")
	if limited >= full {
		t.Fatalf("LIMIT 1 shipped %d probes, want strictly fewer than the unlimited %d", limited, full)
	}
}

// TestStreamAbandonmentLeaksNothing pins the mid-stream Close
// contract: abandoning a StreamingResult after one batch cancels the
// in-flight probes and unwinds every executor goroutine.
func TestStreamAbandonmentLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	in, probe := streamFixture(t, 32, 5*time.Millisecond)
	sr, err := in.ExecuteStream(context.Background(), mustParse(t, streamQuery),
		ExecOptions{Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := sr.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) == 0 {
		t.Fatal("expected at least one row before abandoning the stream")
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if batch, err := sr.NextBatch(); err != nil || len(batch) != 0 {
		t.Fatalf("NextBatch after Close = %d rows, %v; want empty", len(batch), err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		probe.mu.Lock()
		inFlight := probe.inFlight
		probe.mu.Unlock()
		if inFlight == 0 && runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after abandonment: %d probes in flight, %d goroutines (baseline %d)",
				inFlight, runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if calls := probe.calls.Load(); calls >= 32 {
		t.Fatalf("abandoned stream still shipped all %d probes", calls)
	}
}

// TestStreamedLimitPushdownMatchesMaterialized: the limit pushed below
// the projection must not change results relative to the materializing
// reference evaluator applying it at the top.
func TestStreamedLimitPushdownMatchesMaterialized(t *testing.T) {
	for _, limit := range []int{1, 3, 5, 32, 100} {
		q := mustParse(t, fmt.Sprintf("%sLIMIT %d", streamQuery, limit))
		in, _ := streamFixture(t, 8, 0)
		res, err := in.ExecuteOpts(q, ExecOptions{Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkOracle(in, q, res); err != nil {
			t.Fatalf("LIMIT %d: %v", limit, err)
		}
	}
}
