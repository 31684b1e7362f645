package source

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"tatooine/internal/lru"
	"tatooine/internal/value"
)

// CacheStats reports what a Cached decorator has done so far.
type CacheStats struct {
	Hits        int64
	Misses      int64
	Expired     int64 // misses caused by TTL expiry of an existing entry
	Evictions   int64
	Invalidated int64 // result entries dropped by Invalidate
	Entries     int
}

// Cached decorates a DataSource with a bounded LRU memoization of
// Execute results, keyed by (URI, language, text, InVars, params). It
// turns repeated bind-join probes — the mediator's shipped-sub-query
// hot path, especially through a federation.Client — into memory
// lookups. Results are shared between the cache and callers and must
// be treated as read-only, which the executor already guarantees.
//
// Cached is also a BatchProber: batched probes are answered per tuple
// from the cache, only the missing tuples are forwarded (as a smaller
// batch when the inner source batches, per-tuple otherwise via the
// caller's fallback), and the batch result fills the cache per tuple.
type Cached struct {
	inner DataSource
	ttl   time.Duration    // 0 = entries never expire
	now   func() time.Time // test hook

	mu        sync.Mutex
	gen       uint64 // bumped by Invalidate; fills from an older gen are discarded
	cache     *lru.Cache[cacheEntry]
	estimates *lru.Cache[estimateEntry]
	stats     CacheStats
}

// cacheEntry is one memoized result with its fill time (for TTL).
type cacheEntry struct {
	res *Result
	at  time.Time
}

// estimateEntry is one memoized (rows, cost) estimate.
type estimateEntry struct {
	rows, cost int
}

// DefaultCacheSize bounds a Cached decorator when the caller passes a
// non-positive size.
const DefaultCacheSize = 1024

// NewCached wraps inner with a sub-query result cache holding at most
// maxEntries results (DefaultCacheSize when maxEntries <= 0).
func NewCached(inner DataSource, maxEntries int) *Cached {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheSize
	}
	return &Cached{
		inner:     inner,
		now:       time.Now,
		cache:     lru.New[cacheEntry](maxEntries),
		estimates: lru.New[estimateEntry](maxEntries),
	}
}

// WithTTL makes result entries expire ttl after they were filled, so a
// long-running mediator stops serving arbitrarily stale rows from
// mutable remote sources. A non-positive ttl means no expiry. Returns
// c for chaining.
func (c *Cached) WithTTL(ttl time.Duration) *Cached {
	c.mu.Lock()
	c.ttl = ttl
	c.mu.Unlock()
	return c
}

// Unwrap returns the decorated source (digest construction dispatches
// on concrete adapter types and unwraps decorators first).
func (c *Cached) Unwrap() DataSource { return c.inner }

// URI implements DataSource.
func (c *Cached) URI() string { return c.inner.URI() }

// Model implements DataSource.
func (c *Cached) Model() Model { return c.inner.Model() }

// Languages implements DataSource.
func (c *Cached) Languages() []Language { return c.inner.Languages() }

// Estimate implements Estimator, memoizing the inner (rows, cost)
// estimate: planning calls it on every query for each atom the digest
// cannot estimate, and for a remote source each call is an HTTP round
// trip. Unknown estimates (negative rows) are not cached so a
// recovering remote can start answering.
func (c *Cached) Estimate(q SubQuery, numParams int) (rows, cost int) {
	key := cacheKey(c.inner.URI(), q, nil) + "|" + strconv.Itoa(numParams)
	c.mu.Lock()
	if e, ok := c.estimates.Get(key); ok {
		c.mu.Unlock()
		return e.rows, e.cost
	}
	gen := c.gen
	c.mu.Unlock()
	rows, cost = EstimateOf(c.inner, q, numParams)
	if rows >= 0 {
		c.mu.Lock()
		if c.gen == gen {
			c.estimates.Put(key, estimateEntry{rows: rows, cost: cost})
		}
		c.mu.Unlock()
	}
	return rows, cost
}

// Invalidate implements Invalidator: it drops every memoized sub-query
// result and cost estimate, returning how many result entries were
// discarded. The mediator calls it when the instance mutates (a source
// changed underneath, or POST /admin/invalidate) so callers stop being
// served pre-mutation rows until the TTL would have expired them.
// Bumping the generation makes the flush cover in-flight probes too: a
// miss that read the source before the invalidation discards its fill
// instead of re-inserting pre-invalidation rows after the Clear.
func (c *Cached) Invalidate() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	n := c.cache.Clear()
	c.estimates.Clear()
	c.stats.Invalidated += int64(n)
	return n
}

// Stats returns a snapshot of the cache counters.
func (c *Cached) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.cache.Len()
	return s
}

// peek returns the live cached result for key without touching the
// stats; expired entries are removed so they stop occupying recency
// slots. Caller must hold c.mu.
func (c *Cached) peek(key string) (*Result, bool) {
	e, ok := c.cache.Get(key)
	if !ok {
		return nil, false
	}
	if c.ttl > 0 && c.now().Sub(e.at) >= c.ttl {
		c.cache.Remove(key)
		c.stats.Expired++
		return nil, false
	}
	return e.res, true
}

// lookup is peek plus hit/miss accounting. Caller must hold c.mu.
func (c *Cached) lookup(key string) (*Result, bool) {
	res, ok := c.peek(key)
	if ok {
		c.stats.Hits++
		probeCacheHitTotal.Inc()
	} else {
		c.stats.Misses++
		probeCacheMissTotal.Inc()
	}
	return res, ok
}

// store fills key with res, counting evictions. Caller must hold c.mu.
func (c *Cached) store(key string, res *Result) {
	if c.cache.Put(key, cacheEntry{res: res, at: c.now()}) {
		c.stats.Evictions++
	}
}

// Execute implements DataSource: a cache hit returns the memoized
// result without touching the inner source; a miss executes and, on
// success, stores the result (evicting the least recently used entry
// when full). Errors are never cached.
func (c *Cached) Execute(q SubQuery, params []value.Value) (*Result, error) {
	return c.ExecuteContext(context.Background(), q, params)
}

// ExecuteContext implements ContextExecutor: hits answer from memory
// regardless of the context; misses forward it to the inner source so
// a cancelled query aborts the in-flight fill (cancellation errors
// are never cached — they are errors like any other).
func (c *Cached) ExecuteContext(ctx context.Context, q SubQuery, params []value.Value) (*Result, error) {
	key := cacheKey(c.inner.URI(), q, params)

	c.mu.Lock()
	res, ok := c.lookup(key)
	gen := c.gen
	c.mu.Unlock()
	if ok {
		return res, nil
	}

	// Execute outside the lock; concurrent misses on the same key may
	// race to fill, which is harmless (last writer wins).
	res, err := ExecuteWith(ctx, c.inner, q, params)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	// An Invalidate since the miss means this result may predate the
	// mutation the invalidation announced: return it to the caller (it
	// was read before the flush, like any probe that finished a moment
	// earlier) but do not let it outlive the flush in the cache.
	if c.gen == gen {
		c.store(key, res)
	}
	c.mu.Unlock()
	return res, nil
}

// ExecuteBatch implements BatchProber: cached tuples are answered from
// the probe cache and only the misses travel to the inner source, as a
// smaller batch. The batch result fills the cache per tuple, so a later
// per-tuple probe (or a different batch overlapping this one) hits
// memory. When the inner source is not a BatchProber (or cannot batch
// this sub-query) ErrBatchUnsupported propagates; the executor then
// probes per tuple through Execute, which still serves the hits.
func (c *Cached) ExecuteBatch(q SubQuery, paramSets []value.Row) ([]*Result, error) {
	return c.ExecuteBatchContext(context.Background(), q, paramSets)
}

// ExecuteBatchContext implements ContextBatchProber; see ExecuteBatch.
func (c *Cached) ExecuteBatchContext(ctx context.Context, q SubQuery, paramSets []value.Row) ([]*Result, error) {
	bp, batchable := c.inner.(BatchProber)
	if !batchable {
		return nil, ErrBatchUnsupported
	}
	// Build the keys outside the lock (Execute does the same): under a
	// parallel bind join many chunks contend on this mutex.
	keys := make([]string, len(paramSets))
	for i, ps := range paramSets {
		keys[i] = cacheKey(c.inner.URI(), q, ps)
	}
	out := make([]*Result, len(paramSets))
	var missIdx []int
	c.mu.Lock()
	for i := range paramSets {
		if res, ok := c.peek(keys[i]); ok {
			out[i] = res
		} else {
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) == 0 {
		c.stats.Hits += int64(len(paramSets))
		c.mu.Unlock()
		probeCacheHitTotal.Add(int64(len(paramSets)))
		return out, nil
	}
	gen := c.gen
	c.mu.Unlock()

	misses := make([]value.Row, len(missIdx))
	for j, i := range missIdx {
		misses[j] = paramSets[i]
	}
	// Hit/miss accounting is deferred until the batch commits: when the
	// inner source rejects the shape (ErrBatchUnsupported) the caller
	// re-probes every tuple through Execute, which does its own
	// counting — counting here too would tally each logical probe twice.
	results, err := ExecuteBatchWith(ctx, bp, q, misses)
	if err != nil {
		return nil, err
	}
	if len(results) != len(misses) {
		// A contract violation, not an unsupported shape: reporting it
		// as ErrBatchUnsupported would silently defeat batching forever.
		return nil, fmt.Errorf("source %s: batched probe returned %d results for %d tuples",
			c.inner.URI(), len(results), len(misses))
	}

	probeCacheHitTotal.Add(int64(len(paramSets) - len(missIdx)))
	probeCacheMissTotal.Add(int64(len(missIdx)))
	c.mu.Lock()
	c.stats.Hits += int64(len(paramSets) - len(missIdx))
	c.stats.Misses += int64(len(missIdx))
	for j, i := range missIdx {
		out[i] = results[j]
		// As in Execute: a batch whose misses were read before an
		// Invalidate still answers the caller, but must not re-fill the
		// flushed cache with possibly pre-mutation rows.
		if c.gen == gen {
			c.store(keys[i], results[j])
		}
	}
	c.mu.Unlock()
	return out, nil
}

// cacheKey builds an unambiguous key from the source identity, the
// sub-query, and the bound parameters (length-framed via value.Frame
// so no two distinct inputs collide).
func cacheKey(uri string, q SubQuery, params []value.Value) string {
	var b strings.Builder
	value.Frame(&b, uri)
	value.Frame(&b, string(q.Language))
	value.Frame(&b, q.Text)
	for _, iv := range q.InVars {
		value.Frame(&b, iv)
	}
	b.WriteByte('|')
	b.WriteString(value.Row(params).Key())
	return b.String()
}
