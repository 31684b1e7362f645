package core

import (
	"context"
	"sync"

	"tatooine/internal/digest"
	"tatooine/internal/obs"
	"tatooine/internal/source"
)

// digestCatalog is the instance's one cache of per-source digests, read
// by the planner, the bind-join pruner and keyword search. Entries are
// keyed by source URI and stay valid until the mediator is told a source
// changed: AddSource, DropSource, Invalidate and InvalidateSource reset
// the catalog. Graph writes (AddTriples, RemoveTriples) leave it alone,
// because it never holds G: graph atoms are neither pruned nor
// estimated from a digest.
// A nil digest is a negative cache — the source is undigestable (or its
// digest fetch failed) until the next reset, and re-asking would only
// re-pay the scan or the round trip.
type digestCatalog struct {
	mu      sync.Mutex
	entries map[string]*digestEntry
	fetches int64
	hits    int64
}

// digestEntry is one source's catalog slot. The first lookup fills it;
// concurrent lookups wait for ready instead of building again.
type digestEntry struct {
	ready chan struct{}
	d     *digest.Digest
}

// reset drops every entry. A fill already in flight still answers its
// waiters, but its entry is no longer in the catalog, so it is not kept.
func (c *digestCatalog) reset() {
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
}

// DigestStats reports the digest catalog's activity: how many digests
// were built or fetched, and how many planner/pruner lookups were
// answered from the catalog.
type DigestStats struct {
	Fetches int64 `json:"digestFetches"`
	Hits    int64 `json:"digestHits"`
}

// DigestStats returns the instance's digest catalog counters.
func (in *Instance) DigestStats() DigestStats {
	in.dig.mu.Lock()
	defer in.dig.mu.Unlock()
	return DigestStats{Fetches: in.dig.fetches, Hits: in.dig.hits}
}

// SourceDigest returns the source's digest, building or fetching it on
// first use after a catalog reset; lookups that arrive while the first
// build runs wait for it (or for ctx). It fails open: an undigestable
// source, a failed fetch or a cancelled wait yields nil (planning asks
// the source for its estimate, pruning stays off, keyword search skips the
// source), and a failed build is negative-cached until the next reset.
// Fetches open a "digest" span under ctx's trace so the (potentially
// remote) build shows up in the query's span tree; catalog hits cost
// nothing.
func (in *Instance) SourceDigest(ctx context.Context, s source.DataSource) *digest.Digest {
	if s == nil {
		return nil
	}
	c := &in.dig
	c.mu.Lock()
	if e, ok := c.entries[s.URI()]; ok {
		c.hits++
		c.mu.Unlock()
		digestHitTotal.Inc()
		select {
		case <-e.ready:
			return e.d
		case <-ctx.Done():
			return nil
		}
	}
	e := &digestEntry{ready: make(chan struct{})}
	if c.entries == nil {
		c.entries = make(map[string]*digestEntry)
	}
	c.entries[s.URI()] = e
	c.fetches++
	c.mu.Unlock()
	digestFetchTotal.Inc()
	defer close(e.ready)

	// Build/fetch outside the lock: a slow remote /digest round trip
	// must not serialize unrelated sources' lookups.
	sp := obs.SpanFromContext(ctx).StartChild("digest")
	sp.SetAttr("source", s.URI())
	d, err := digest.ForSource(s, digest.DefaultBudget())
	sp.End()
	if err == nil {
		e.d = d
	}
	return e.d
}
