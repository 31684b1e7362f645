package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tatooine/internal/rdf"
	"tatooine/internal/reason"
	"tatooine/internal/source"
	"tatooine/internal/store"
)

// Instance is a mixed instance I = (G, D): the custom
// application-dependent RDF graph G plus a registry of data sources D
// (Definition 2.1 of the paper).
//
// The paper's instances are dynamic — journalists keep loading new
// tweets, INSEE tables and discovered endpoints mid-session — so the
// instance carries a monotonically increasing epoch: every mutation
// through the instance API (AddTriples, RemoveTriples, AddSource,
// DropSource, Invalidate, InvalidateSource) bumps it, and the
// mediator's result cache in internal/server is validated against it,
// so a mutation can never be answered with pre-mutation state. The
// digest catalog is reset only by the calls that announce a changed
// source (see digestCatalog).
//
// The saturation G∞ is not epoch-invalidated: under WithSaturation the
// instance feeds graph deltas straight into an incremental reasoner
// (internal/reason) that maintains the materialized G∞ in O(delta)
// instead of recomputing it from scratch on every epoch move.
type Instance struct {
	graph    *rdf.Graph
	sources  *source.Registry
	prefixes map[string]string
	saturate bool
	epoch    atomic.Uint64 // bumped by every mutation

	// satMu serializes graph mutations (so the base graph and the
	// reasoner's maintained G∞ cannot diverge under concurrent mutators)
	// and guards the saturation state below. Queries hold it only long
	// enough to grab a graph pointer.
	satMu  sync.Mutex
	engine *reason.Engine // maintained G∞ (built on first saturated query)

	// dig caches per-source digests for digest-driven planning,
	// bind-join semi-join pruning and keyword search.
	dig digestCatalog

	// Persistence (nil for in-memory instances; see persist.go): the
	// store holding G, G∞ and the catalog, and the first storage error
	// (guarded by satMu).
	st    *store.Store
	cat   *store.Keyspace
	stErr error
	// storeOpts is consumed by Open before the store exists (set via
	// WithStoreOptions); unused on in-memory instances.
	storeOpts store.Options
}

// InstanceOption configures an Instance.
type InstanceOption func(*Instance)

// WithStoreOptions tunes the backing store a persistent instance opens
// — most usefully Pager.CacheSize, the hard cap on resident clean
// pages (the `-page-cache-mb` flag ends up here). Ignored by
// NewInstance and in-memory instances.
func WithStoreOptions(o store.Options) InstanceOption {
	return func(in *Instance) { in.storeOpts = o }
}

// WithPrefixes registers prefix declarations usable in BGP texts of
// queries against this instance.
func WithPrefixes(p map[string]string) InstanceOption {
	return func(in *Instance) {
		for k, v := range p {
			in.prefixes[k] = v
		}
	}
}

// WithSaturation makes graph atoms evaluate over G∞ (the RDFS
// saturation of G), the paper's answer semantics. The saturation is
// materialized lazily on the first saturated query and from then on
// maintained incrementally: AddTriples / RemoveTriples feed their delta
// into a reason.Engine (semi-naive insert rules, delete-and-rederive),
// so a mutation costs O(consequences-of-the-delta) instead of a full
// G∞ recompute. Mutate through the instance API — Graph().Add bypasses
// both the epoch and the reasoner; use Invalidate to force a rebuild
// after out-of-band writes.
func WithSaturation() InstanceOption {
	return func(in *Instance) { in.saturate = true }
}

// NewInstance creates a mixed instance around a custom graph. A nil
// graph starts empty.
func NewInstance(g *rdf.Graph, opts ...InstanceOption) *Instance {
	if g == nil {
		g = rdf.NewGraph()
	}
	in := &Instance{
		graph:    g,
		sources:  source.NewRegistry(),
		prefixes: make(map[string]string),
	}
	for _, o := range opts {
		o(in)
	}
	return in
}

// Graph returns the custom RDF graph G. Direct writes through it do
// not bump the instance epoch and are invisible to the incremental
// reasoner; callers that mutate mid-session should use AddTriples /
// RemoveTriples so dependent caches and the maintained G∞ notice.
func (in *Instance) Graph() *rdf.Graph { return in.graph }

// Sources returns the source registry D.
func (in *Instance) Sources() *source.Registry { return in.sources }

// Prefixes returns the instance's prefix declarations.
func (in *Instance) Prefixes() map[string]string { return in.prefixes }

// Epoch returns the instance's mutation epoch. It starts at 0 and
// increases monotonically with every mutation; result caches derived
// from the instance key against it.
func (in *Instance) Epoch() uint64 { return in.epoch.Load() }

// bump advances the epoch, invalidating every epoch-checked cache.
func (in *Instance) bump() uint64 { return in.epoch.Add(1) }

// AddTriples inserts triples into the custom graph G and returns how
// many were new. The batch is applied atomically with respect to
// concurrent readers, the actual delta is propagated into the
// maintained G∞, and any insertion bumps the epoch so
// epoch-keyed result caches miss instead of serving pre-mutation rows.
// The epoch moves only after the saturation is maintained: a request
// that observes the new epoch can never read a G∞ that predates the
// mutation.
func (in *Instance) AddTriples(ts []rdf.Triple) int {
	in.satMu.Lock()
	added := in.graph.AddBatch(ts)
	if len(added) > 0 {
		if in.engine != nil {
			in.engine.ApplyInsert(added)
		}
		in.bump()
		in.persistLocked()
	}
	in.satMu.Unlock()
	return len(added)
}

// RemoveTriples deletes triples from G and returns how many were
// present; the actual delta is retracted from the maintained G∞
// (delete-and-rederive) and any deletion bumps the epoch.
func (in *Instance) RemoveTriples(ts []rdf.Triple) int {
	in.satMu.Lock()
	removed := in.graph.RemoveBatch(ts)
	if len(removed) > 0 {
		if in.engine != nil {
			in.engine.ApplyDelete(removed)
		}
		in.bump()
		in.persistLocked()
	}
	in.satMu.Unlock()
	return len(removed)
}

// AddSource registers a data source, resets the digest catalog and
// bumps the epoch: queries whose answers could now include the new
// source must not be served from a pre-registration cache entry. The
// graph is untouched, so the maintained G∞ is not recomputed.
func (in *Instance) AddSource(s source.DataSource) error {
	if err := in.sources.Register(s); err != nil {
		return err
	}
	in.dig.reset()
	in.bump()
	in.satMu.Lock()
	in.persistLocked()
	in.satMu.Unlock()
	return nil
}

// DropSource removes the source registered under uri, discarding its
// interposed probe cache with it, resets the digest catalog and bumps
// the epoch so cached results that involved the source are not served
// after the drop. It reports whether a source was removed.
func (in *Instance) DropSource(uri string) bool {
	if !in.sources.Deregister(uri) {
		return false
	}
	in.dig.reset()
	in.bump()
	in.satMu.Lock()
	in.persistLocked()
	in.satMu.Unlock()
	return true
}

// Invalidate force-expires every cache derived from the instance: it
// flushes the interposed per-source probe caches (returning how many
// result entries they dropped) and the digest catalog, rebuilds the
// incrementally maintained G∞ from the base graph (out-of-band Graph()
// writes become visible), and bumps the epoch so epoch-keyed result
// caches miss. Use it when sources or the graph mutated underneath the
// mediator without going through the instance API. The epoch bumps
// even when nothing was cached — the caller asked for a hard reset and
// the bump is what guarantees it downstream.
func (in *Instance) Invalidate() (epoch uint64, probeEntries int) {
	probeEntries = in.sources.InvalidateCaches()
	in.dig.reset()
	in.satMu.Lock()
	if in.engine != nil {
		in.engine.Rebuild()
	}
	epoch = in.bump()
	in.persistLocked()
	in.satMu.Unlock()
	return epoch, probeEntries
}

// InvalidateSource flushes the probe cache of a single source
// (registered, or dynamically discovered and currently memoized),
// resets the digest catalog and bumps the epoch, so the source's
// memoized probes, its digest and any whole-query results built on
// them stop being served. Sources are looked up without consulting the
// fallback resolver — invalidating a URI must never dial it — so a URI
// with no materialized source (which necessarily has no cache to
// flush) is an error.
func (in *Instance) InvalidateSource(uri string) (epoch uint64, probeEntries int, err error) {
	s, ok := in.sources.Lookup(uri)
	if !ok {
		return in.Epoch(), 0, fmt.Errorf("core: no materialized source for URI %q", uri)
	}
	if inv, ok := s.(source.Invalidator); ok {
		probeEntries = inv.Invalidate()
	}
	in.dig.reset()
	return in.bump(), probeEntries, nil
}

// SaturationStats is the shape of the mediator's /stats "saturation"
// block, shared with the incremental reasoner.
type SaturationStats = reason.Stats

// SaturationStats reports how G∞ is being maintained: the mode ("off"
// or "delta"), how many implicit triples are materialized, and the
// delta-apply / full-recompute counters behind the mediator's /stats
// saturation block.
func (in *Instance) SaturationStats() reason.Stats {
	if !in.saturate {
		return reason.Stats{Mode: "off"}
	}
	in.satMu.Lock()
	defer in.satMu.Unlock()
	if in.engine == nil {
		return reason.Stats{Mode: "delta"}
	}
	return in.engine.Stats()
}

// queryGraph returns the graph BGPs evaluate over. Unsaturated
// instances serve G directly. Saturated instances serve the
// incrementally maintained G∞ (built on first use, then kept fresh by
// AddTriples/RemoveTriples — no per-query staleness check needed
// because maintenance happens synchronously with the mutation).
func (in *Instance) queryGraph() *rdf.Graph {
	if !in.saturate {
		return in.graph
	}
	in.satMu.Lock()
	defer in.satMu.Unlock()
	if in.engine == nil {
		in.engine = in.newEngineLocked()
		// The initial saturation is derived state, but committing it now
		// is what makes the next boot warm (Adopt, no recompute).
		in.persistLocked()
	}
	return in.engine.Graph()
}

// graphSource wraps G as an internal DataSource so the planner and
// executor treat graph atoms uniformly with source atoms. extra prefix
// declarations (from a query's PREFIX clauses) extend the instance's.
func (in *Instance) graphSource(extra map[string]string) source.DataSource {
	return source.NewRDFSource("tatooine:G", in.queryGraph()).WithPrefixes(in.prefixesFor(extra))
}

// prefixesFor merges the instance prefixes with query-local ones.
func (in *Instance) prefixesFor(extra map[string]string) map[string]string {
	if len(extra) == 0 {
		return in.prefixes
	}
	merged := make(map[string]string, len(in.prefixes)+len(extra))
	for k, v := range in.prefixes {
		merged[k] = v
	}
	for k, v := range extra {
		merged[k] = v
	}
	return merged
}

// Query parses and executes a textual CMQ with default options.
func (in *Instance) Query(text string) (*QueryResult, error) {
	q, _, err := ParseCMQ(text)
	if err != nil {
		return nil, err
	}
	return in.Execute(q)
}

// ResolveSource resolves a URI against the instance's registry
// (including its remote-fallback resolver, enabling dynamic discovery).
func (in *Instance) ResolveSource(uri string) (source.DataSource, error) {
	s, err := in.sources.Resolve(uri)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return s, nil
}
