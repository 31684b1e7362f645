package core

import (
	"context"
	"sync"

	"tatooine/internal/digest"
	"tatooine/internal/obs"
	"tatooine/internal/source"
)

// digestCatalog caches per-source digests for the planner and the
// bind-join pruner. Entries are keyed by source URI and valid for one
// mutation epoch: the first digest request after a mutation clears the
// catalog, so planning can never rank or prune against pre-mutation
// statistics. A nil entry is a negative cache — the source is
// undigestable (or its digest fetch failed) this epoch, and re-asking
// would only re-pay the scan or the round trip.
//
// The catalog sits above the per-source memo in source.Cached: for
// interposed registries the inner build/fetch is additionally memoized
// under the probe cache's own invalidation generation, so the two
// layers invalidate together (both are driven by the epoch).
type digestCatalog struct {
	mu      sync.Mutex
	epoch   uint64
	entries map[string]*digest.Digest
	fetches int64
	hits    int64
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

// sourceDigest returns the source's digest, building or fetching it on
// first use per epoch. It fails open: an undigestable source or a
// failed fetch yields nil (planning keeps the source estimate, pruning
// stays off) and is negative-cached for the epoch. Fetches open a
// "digest" span under ctx's trace so the (potentially remote) build
// shows up in the query's span tree; catalog hits cost nothing.
func (in *Instance) sourceDigest(ctx context.Context, s source.DataSource) *digest.Digest {
	if s == nil {
		return nil
	}
	epoch := in.Epoch()
	c := &in.dig
	c.mu.Lock()
	if c.entries == nil || c.epoch != epoch {
		c.entries = make(map[string]*digest.Digest)
		c.epoch = epoch
	}
	if d, ok := c.entries[s.URI()]; ok {
		c.hits++
		c.mu.Unlock()
		digestHitTotal.Inc()
		return d
	}
	c.mu.Unlock()

	// Build/fetch outside the lock: a slow remote /digest round trip
	// must not serialize unrelated sources' lookups.
	sp := obs.SpanFromContext(ctx).StartChild("digest")
	sp.SetAttr("source", s.URI())
	d, err := digest.ForSource(s, digest.DefaultBudget())
	sp.End()
	if err != nil {
		d = nil
	}
	digestFetchTotal.Inc()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.fetches++
	if c.epoch != epoch {
		// A mutation landed mid-build: the digest may describe either
		// side of it, so don't cache — the next lookup rebuilds fresh.
		return d
	}
	if prev, ok := c.entries[s.URI()]; ok {
		return prev // concurrent fill: first one in wins
	}
	c.entries[s.URI()] = d
	return d
}

// atomPruner builds the semi-join pruning matcher for a bind-join atom
// against src's digest. nil when pruning cannot apply: graph atoms
// (G's digest would be rebuilt every epoch, defeating the incremental
// saturation), atoms without parameters, sources without a digest, or
// sub-query shapes the digest cannot prune safely.
func (in *Instance) atomPruner(ctx context.Context, src source.DataSource, a Atom, extra map[string]string) *digest.ParamMatcher {
	if a.Kind == GraphAtom || len(a.Sub.InVars) == 0 {
		return nil
	}
	d := in.sourceDigest(ctx, src)
	if d == nil {
		return nil
	}
	return digest.NewParamMatcher(d, a.Sub, in.prefixesFor(extra))
}

// refineAtomRows tightens an atom's planner row estimate with the
// source's digest statistics (exact counts, distinct counts, numeric
// histograms). The refined estimate replaces an unknown base and can
// only lower a known one — digests summarize the same data the source
// estimated from, so agreement means the smaller bound is the safer
// ranking signal.
func (in *Instance) refineAtomRows(ctx context.Context, a Atom, extra map[string]string, base int) int {
	if a.SourceVar != "" || a.Kind == GraphAtom {
		return base
	}
	s, err := in.sources.Resolve(a.SourceURI)
	if err != nil {
		return base
	}
	d := in.sourceDigest(ctx, s)
	if d == nil {
		return base
	}
	refined, ok := digest.RefineEstimate(d, a.Sub, in.prefixesFor(extra))
	if !ok {
		return base
	}
	if base >= 0 && refined > base {
		return base
	}
	return refined
}
