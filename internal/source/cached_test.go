package source_test

import (
	"fmt"
	"sync"
	"testing"

	"tatooine/internal/source"
	"tatooine/internal/value"
)

// fakeSource records Execute calls and answers with a row echoing the
// parameters, so tests can tell which invocation produced a result.
type fakeSource struct {
	mu        sync.Mutex
	executes  int
	estimates int
	fail      bool
}

func (f *fakeSource) URI() string                  { return "fake://src" }
func (f *fakeSource) Model() source.Model          { return source.RelationalModel }
func (f *fakeSource) Languages() []source.Language { return []source.Language{source.LangSQL} }
func (f *fakeSource) Estimate(source.SubQuery, int) (rows, cost int) {
	f.mu.Lock()
	f.estimates++
	f.mu.Unlock()
	return 7, 7
}

func (f *fakeSource) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	f.mu.Lock()
	f.executes++
	n := f.executes
	fail := f.fail
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("fake: boom")
	}
	row := value.Row{value.NewInt(int64(n))}
	row = append(row, params...)
	return &source.Result{Cols: []string{"n"}, Rows: []value.Row{row}}, nil
}

func (f *fakeSource) calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.executes
}

func (f *fakeSource) estimateCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.estimates
}

func sub(text string) source.SubQuery {
	return source.SubQuery{Language: source.LangSQL, Text: text}
}

func TestCachedHitAndMiss(t *testing.T) {
	f := &fakeSource{}
	c := source.NewCached(f, 8)

	r1, err := c.Execute(sub("SELECT a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Execute(sub("SELECT a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.calls() != 1 {
		t.Errorf("inner executions: %d, want 1", f.calls())
	}
	if r1 != r2 {
		t.Error("cache hit returned a different result object")
	}
	if _, err := c.Execute(sub("SELECT b"), nil); err != nil {
		t.Fatal(err)
	}
	if f.calls() != 2 {
		t.Errorf("distinct text should miss: %d inner executions", f.calls())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestCachedParamIsolation(t *testing.T) {
	f := &fakeSource{}
	c := source.NewCached(f, 8)

	p75 := []value.Value{value.NewString("75")}
	p92 := []value.Value{value.NewString("92")}
	r75, _ := c.Execute(sub("SELECT taux WHERE dept = ?"), p75)
	r92, _ := c.Execute(sub("SELECT taux WHERE dept = ?"), p92)
	if f.calls() != 2 {
		t.Fatalf("param-distinct probes collided: %d inner executions", f.calls())
	}
	if value.Equal(r75.Rows[0][0], r92.Rows[0][0]) {
		t.Error("different params returned the same cached result")
	}
	again, _ := c.Execute(sub("SELECT taux WHERE dept = ?"), p75)
	if f.calls() != 2 || again != r75 {
		t.Errorf("repeat probe should hit: %d executions", f.calls())
	}

	// Ambiguity check: text/param splits must not collide.
	c.Execute(sub("SELECT x WHERE a = ?"), []value.Value{value.NewString("bc")})
	before := f.calls()
	c.Execute(sub("SELECT x WHERE a = ?b"), []value.Value{value.NewString("c")})
	if f.calls() != before+1 {
		t.Error("distinct (text, params) pairs shared a cache entry")
	}
}

func TestCachedEviction(t *testing.T) {
	f := &fakeSource{}
	c := source.NewCached(f, 2)

	c.Execute(sub("q1"), nil)
	c.Execute(sub("q2"), nil)
	c.Execute(sub("q1"), nil) // refresh q1; q2 is now LRU
	c.Execute(sub("q3"), nil) // evicts q2
	if f.calls() != 3 {
		t.Fatalf("setup executions: %d", f.calls())
	}
	c.Execute(sub("q1"), nil) // still cached
	if f.calls() != 3 {
		t.Error("q1 was evicted despite being most recently used")
	}
	c.Execute(sub("q2"), nil) // must re-execute
	if f.calls() != 4 {
		t.Error("q2 survived eviction in a size-2 cache")
	}
	if st := c.Stats(); st.Evictions == 0 || st.Entries != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestCachedErrorsNotCached(t *testing.T) {
	f := &fakeSource{fail: true}
	c := source.NewCached(f, 8)
	if _, err := c.Execute(sub("q"), nil); err == nil {
		t.Fatal("expected error")
	}
	f.mu.Lock()
	f.fail = false
	f.mu.Unlock()
	res, err := c.Execute(sub("q"), nil)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("retry after error: %v %+v", err, res)
	}
	if f.calls() != 2 {
		t.Errorf("error was cached: %d executions", f.calls())
	}
}

func TestCachedDelegatesMetadata(t *testing.T) {
	f := &fakeSource{}
	c := source.NewCached(f, 0) // 0 → default size
	if c.URI() != f.URI() || c.Model() != f.Model() {
		t.Error("metadata not delegated")
	}
	if got, _ := c.Estimate(sub("q"), 0); got != 7 {
		t.Errorf("estimate: %d", got)
	}
	if c.Unwrap() != source.DataSource(f) {
		t.Error("Unwrap did not return the inner source")
	}
}

func TestCachedConcurrentAccess(t *testing.T) {
	f := &fakeSource{}
	c := source.NewCached(f, 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				q := sub(fmt.Sprintf("q%d", j%6)) // overflows the size-4 cache
				if _, err := c.Execute(q, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestRegistryInterpose(t *testing.T) {
	reg := source.NewRegistry()
	f := &fakeSource{}
	if err := reg.Register(f); err != nil {
		t.Fatal(err)
	}
	dials := 0
	reg.SetFallback(func(uri string) (source.DataSource, error) {
		dials++
		return &fakeSource{}, nil
	})
	reg.Interpose(func(s source.DataSource) source.DataSource {
		return source.NewCached(s, 8)
	})

	s, err := reg.Resolve("fake://src")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*source.Cached); !ok {
		t.Fatalf("registered source not wrapped: %T", s)
	}

	// Fallback resolutions are wrapped and memoized: one dial, one
	// stable wrapper across resolutions.
	r1, err := reg.Resolve("http://remote/a")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := reg.Resolve("http://remote/a")
	if err != nil {
		t.Fatal(err)
	}
	if dials != 1 {
		t.Errorf("fallback dialed %d times, want 1", dials)
	}
	if r1 != r2 {
		t.Error("fallback resolutions returned distinct wrappers")
	}
	if _, ok := r1.(*source.Cached); !ok {
		t.Fatalf("fallback source not wrapped: %T", r1)
	}
}

// TestInterposeFallbackMemoBounded: the fallback memo evicts least
// recently resolved sources instead of growing without limit.
func TestInterposeFallbackMemoBounded(t *testing.T) {
	reg := source.NewRegistry()
	dials := make(map[string]int)
	reg.SetFallback(func(uri string) (source.DataSource, error) {
		dials[uri]++
		return &fakeSource{}, nil
	})
	reg.Interpose(func(s source.DataSource) source.DataSource {
		return source.NewCached(s, 4)
	})

	first := "http://remote/0"
	if _, err := reg.Resolve(first); err != nil {
		t.Fatal(err)
	}
	// Resolve enough distinct URIs to push the first out of the memo.
	for i := 1; i <= source.FallbackMemoSize; i++ {
		if _, err := reg.Resolve(fmt.Sprintf("http://remote/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Resolve(first); err != nil {
		t.Fatal(err)
	}
	if dials[first] != 2 {
		t.Errorf("evicted URI dialed %d times, want 2 (re-resolved after eviction)", dials[first])
	}
	if dials["http://remote/1"] != 1 {
		t.Errorf("recent URI re-dialed: %d", dials["http://remote/1"])
	}
}

func TestCachedEstimateMemoized(t *testing.T) {
	f := &fakeSource{}
	c := source.NewCached(f, 8)
	for i := 0; i < 3; i++ {
		if got, _ := c.Estimate(sub("q"), 1); got != 7 {
			t.Fatalf("estimate: %d", got)
		}
	}
	f.mu.Lock()
	n := f.estimates
	f.mu.Unlock()
	if n != 1 {
		t.Errorf("inner Estimate called %d times, want 1", n)
	}
	// Distinct numParams is a distinct planning question.
	c.Estimate(sub("q"), 2)
	f.mu.Lock()
	n = f.estimates
	f.mu.Unlock()
	if n != 2 {
		t.Errorf("numParams-distinct estimate not re-asked: %d calls", n)
	}
}

// TestInterposeOrderIndependent: sources registered or fallbacks
// installed after Interpose are decorated too — wiring order must not
// silently lose the probe cache.
func TestInterposeOrderIndependent(t *testing.T) {
	reg := source.NewRegistry()
	reg.Interpose(func(s source.DataSource) source.DataSource {
		return source.NewCached(s, 8)
	})

	if err := reg.Register(&fakeSource{}); err != nil {
		t.Fatal(err)
	}
	s, err := reg.Resolve("fake://src")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*source.Cached); !ok {
		t.Fatalf("source registered after Interpose not wrapped: %T", s)
	}

	dials := 0
	reg.SetFallback(func(uri string) (source.DataSource, error) {
		dials++
		return &fakeSource{}, nil
	})
	r1, err := reg.Resolve("http://remote/late")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := reg.Resolve("http://remote/late")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r1.(*source.Cached); !ok {
		t.Fatalf("fallback installed after Interpose not wrapped: %T", r1)
	}
	if dials != 1 || r1 != r2 {
		t.Errorf("late fallback not memoized: %d dials, stable=%v", dials, r1 == r2)
	}
}

// TestCachedInvalidate: Invalidate drops both the memoized results and
// the memoized cost estimates, so the next probe and the next planning
// pass go back to the (possibly mutated) inner source.
func TestCachedInvalidate(t *testing.T) {
	f := &fakeSource{}
	c := source.NewCached(f, 8)
	q := sub("SELECT 1")

	if _, err := c.Execute(q, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(q, nil); err != nil {
		t.Fatal(err)
	}
	if f.calls() != 1 {
		t.Fatalf("inner executes before Invalidate: %d", f.calls())
	}
	c.Estimate(q, 0)
	c.Estimate(q, 0)
	if f.estimateCalls() != 1 {
		t.Fatalf("inner estimates before Invalidate: %d", f.estimateCalls())
	}

	if dropped := c.Invalidate(); dropped != 1 {
		t.Errorf("Invalidate dropped %d entries, want 1", dropped)
	}
	if st := c.Stats(); st.Entries != 0 || st.Invalidated != 1 {
		t.Errorf("stats after Invalidate: %+v", st)
	}

	if _, err := c.Execute(q, nil); err != nil {
		t.Fatal(err)
	}
	if f.calls() != 2 {
		t.Errorf("probe after Invalidate did not reach the inner source: %d calls", f.calls())
	}
	c.Estimate(q, 0)
	if f.estimateCalls() != 2 {
		t.Errorf("estimate after Invalidate did not reach the inner source: %d calls", f.estimateCalls())
	}

	// An empty cache invalidates to zero without side effects.
	c2 := source.NewCached(&fakeSource{}, 8)
	if c2.Invalidate() != 0 {
		t.Error("empty cache reported dropped entries")
	}
}

// blockingSource holds Execute until released so tests can interleave
// an invalidation with an in-flight probe.
type blockingSource struct {
	fakeSource
	started chan struct{}
	release chan struct{}
}

func (b *blockingSource) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	b.started <- struct{}{}
	<-b.release
	return b.fakeSource.Execute(q, params)
}

// TestInvalidateCoversInFlightProbe: a probe that read the inner
// source BEFORE an Invalidate must not re-fill the cache AFTER the
// flush — otherwise the stale rows the invalidation was meant to purge
// survive it (forever, with no TTL configured).
func TestInvalidateCoversInFlightProbe(t *testing.T) {
	b := &blockingSource{started: make(chan struct{}, 1), release: make(chan struct{})}
	c := source.NewCached(b, 8)

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c.Execute(sub("SELECT 1"), nil); err != nil {
			t.Error(err)
		}
	}()
	<-b.started // probe is mid-flight, pre-invalidation rows in hand
	c.Invalidate()
	close(b.release)
	<-done

	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("in-flight probe re-filled the invalidated cache: %+v", st)
	}
	// The next probe goes back to the (mutated) source.
	if _, err := c.Execute(sub("SELECT 1"), nil); err != nil {
		t.Fatal(err)
	}
	if b.calls() != 2 {
		t.Errorf("post-invalidate probe served the discarded fill: %d inner calls", b.calls())
	}
}
