// Package reason maintains a materialized RDFS saturation G∞ under
// graph deltas, so a mutation-heavy mediator no longer pays a full
// recompute per epoch move.
//
// The paper (§2.1) defines a query's answer against G∞ — the base
// graph plus every RDFS-entailed triple. Recomputing G∞ from scratch
// (rdf.Saturate: clone the graph, run the fixpoint) is linear in the
// whole instance, which after PR 3's epoch-based invalidation meant a
// single-triple insert made the very next query pay seconds of
// redundant work on a large graph. Engine instead owns the materialized
// saturation and maintains it incrementally:
//
//   - ApplyInsert is rdf.Propagate seeded with the delta: each new
//     triple meets the rules table in every premise position, joined
//     against the saturated graph, and fresh conclusions re-enter the
//     frontier until the fixpoint. The same loop, seeded with the whole
//     graph, is the batch saturation, so an insert never needs a
//     whole-graph pass.
//
//   - ApplyDelete implements delete-and-rederive (DRed): trace the
//     over-deletion cone of consequences transitively reachable from
//     the deleted triples (rdf.DeltaConsequences, the same table read
//     forward; explicit base facts are skipped, they survive on their
//     own), re-derive READ-ONLY the cone members that still have a
//     well-founded derivation from surviving triples
//     (rdf.DerivableExcept, the table read backward, bottom-up to a
//     fixpoint), and only then delete the remainder from the live
//     graph. Two conditions fall back to a full recompute: a deleted
//     *schema* triple (its loss can invalidate derivations anywhere),
//     and an over-deletion cone exceeding Config.MaxDeleteFraction of
//     the saturated graph (re-checking most of the graph costs more
//     than recomputing it).
//
// The maintained graph is served live to queries. Visibility during an
// apply is monotone in the direction of the mutation: an insert only
// ever adds entailed triples, and a delete only ever removes
// no-longer-entailed ones (survivors are resurrected before any
// removal) — so a query overlapping an apply sees at worst a partially
// applied delta, never a state in which a triple entailed both before
// and after the mutation is missing. Epoch-keyed result caches stay
// safe because the instance bumps its epoch only after the apply
// completes.
package reason

import (
	"sync"
	"time"

	"tatooine/internal/rdf"
)

// DefaultMaxDeleteFraction bounds DRed's over-deletion cone relative to
// the saturated graph before ApplyDelete falls back to a full recompute.
const DefaultMaxDeleteFraction = 0.25

// minDeleteCone is the absolute cone size below which DRed never falls
// back: on small graphs a fraction rounds down to nearly nothing and
// re-deriving a handful of triples is always cheaper than a recompute.
const minDeleteCone = 64

// Config tunes an Engine.
type Config struct {
	// MaxDeleteFraction is the over-deletion cone size, as a fraction of
	// the saturated graph, beyond which ApplyDelete abandons DRed and
	// recomputes from scratch. Zero means DefaultMaxDeleteFraction;
	// values >= 1 never fall back on cone size.
	MaxDeleteFraction float64
}

// Stats snapshots an engine's maintenance counters. It doubles as the
// "saturation" block of the mediator's /stats (core.Instance fills the
// same shape when saturation is off).
type Stats struct {
	// Mode is "delta" (incrementally maintained) or "off" (no
	// saturation).
	Mode string `json:"mode"`
	// Derived is the number of implicit triples currently materialized
	// (saturated size minus base size).
	Derived int `json:"derived"`
	// DeltaApplies counts mutations absorbed incrementally.
	DeltaApplies int64 `json:"deltaApplies"`
	// FullRecomputes counts full saturations: the initial build, DRed
	// fallbacks, and forced rebuilds.
	FullRecomputes int64 `json:"fullRecomputes"`
	// LastApply is the duration of the most recent apply (or rebuild).
	LastApply time.Duration `json:"lastApplyNs"`
}

// Engine wraps a base graph plus its materialized RDFS saturation and
// keeps the two consistent under deltas. The base graph is shared with
// the caller (core.Instance mutates it first, then feeds the delta in);
// the saturated graph is owned by the engine but read concurrently by
// queries, which is safe because rdf.Graph locks internally. The engine
// never replaces its saturated graph: every rebuild edits it in place.
type Engine struct {
	mu   sync.Mutex
	base *rdf.Graph
	sat  *rdf.Graph
	cfg  Config

	deltaApplies   int64
	fullRecomputes int64
	lastApply      time.Duration
}

// New builds an engine over base, computing the initial saturation into
// a fresh in-memory graph (counted as the first full recompute).
func New(base *rdf.Graph, cfg Config) *Engine {
	e := Adopt(base, rdf.NewGraph(), cfg)
	e.rebuildLocked()
	return e
}

// Adopt builds an engine that maintains sat as the saturation of base,
// computing nothing. A persistent instance passes its stored G∞: on a
// warm restart sat is the exact saturation of base and maintenance
// resumes with zero recompute; on a cold one sat is empty and the
// caller follows with Rebuild. The caller asserts sat is the exact
// saturation of base (or calls Rebuild); nothing is verified.
func Adopt(base, sat *rdf.Graph, cfg Config) *Engine {
	if cfg.MaxDeleteFraction <= 0 {
		cfg.MaxDeleteFraction = DefaultMaxDeleteFraction
	}
	return &Engine{base: base, sat: sat, cfg: cfg}
}

// Graph returns the maintained saturation G∞. Callers must treat it as
// read-only; it stays the engine's one graph for the engine's lifetime.
func (e *Engine) Graph() *rdf.Graph {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sat
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Mode:           "delta",
		Derived:        e.sat.Size() - e.base.Size(),
		DeltaApplies:   e.deltaApplies,
		FullRecomputes: e.fullRecomputes,
		LastApply:      e.lastApply,
	}
}

// Rebuild recomputes the saturation from the base graph. Used when the
// base was mutated behind the engine's back (core.Instance.Invalidate's
// contract).
func (e *Engine) Rebuild() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebuildLocked()
}

// rebuildLocked brings the maintained graph to exactly the saturation
// of base, in place. An empty graph (the initial build) is filled by
// copying base in and saturating it. Otherwise the from-scratch
// saturation is computed in memory and diffed in: missing triples are
// added before stale ones are removed, so a concurrent reader sees the
// same monotone transition as a DRed apply — a triple entailed before
// and after the rebuild is never missing.
func (e *Engine) rebuildLocked() {
	start := time.Now()
	if e.sat.Size() == 0 {
		e.base.CopyTo(e.sat)
		rdf.SaturateInPlace(e.sat)
	} else {
		want := rdf.Saturate(e.base)
		var add, stale []rdf.Triple
		for _, t := range want.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}) {
			if !e.sat.Contains(t) {
				add = append(add, t)
			}
		}
		e.sat.AddBatch(add)
		for _, t := range e.sat.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}) {
			if !want.Contains(t) {
				stale = append(stale, t)
			}
		}
		e.sat.RemoveBatch(stale)
	}
	e.fullRecomputes++
	e.lastApply = time.Since(start)
}

// ApplyInsert absorbs triples just added to the base graph: they are
// added to the saturation and their consequences propagated semi-naive
// style, seeded only from the delta frontier. ts should be the actual
// delta (triples that were new to the base); triples whose consequences
// are already materialized cost one containment check each.
func (e *Engine) ApplyInsert(ts []rdf.Triple) {
	if len(ts) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()
	rdf.Propagate(e.sat, ts)
	e.deltaApplies++
	e.lastApply = time.Since(start)
}

// ApplyDelete absorbs triples just removed from the base graph using
// delete-and-rederive. ts should be the actual delta (triples that were
// present in the base). Falls back to a full recompute when a schema
// triple was deleted or the over-deletion cone exceeds
// Config.MaxDeleteFraction of the saturated graph.
func (e *Engine) ApplyDelete(ts []rdf.Triple) {
	if len(ts) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range ts {
		if rdf.SchemaTriple(t) {
			e.rebuildLocked()
			return
		}
	}
	start := time.Now()

	// Over-delete: the cone of consequences transitively reachable from
	// the deleted triples, computed against the pre-deletion saturation
	// (a sound over-approximation: support that is itself doomed still
	// extends the cone). Explicit base facts are never coned — they
	// survive on their own and keep their consequences justified.
	maxCone := int(e.cfg.MaxDeleteFraction * float64(e.sat.Size()))
	if maxCone < minDeleteCone {
		maxCone = minDeleteCone
	}
	cone := make(map[rdf.Triple]struct{}, len(ts))
	var frontier []rdf.Triple
	for _, t := range ts {
		if !e.sat.Contains(t) {
			continue
		}
		cone[t] = struct{}{}
		frontier = append(frontier, t)
	}
	for len(frontier) > 0 {
		var next []rdf.Triple
		for _, t := range frontier {
			rdf.DeltaConsequences(e.sat, t, func(c rdf.Triple) {
				if _, ok := cone[c]; ok {
					return
				}
				if !e.sat.Contains(c) || e.base.Contains(c) {
					return
				}
				cone[c] = struct{}{}
				next = append(next, c)
			})
		}
		if len(cone) > maxCone {
			e.rebuildLocked()
			return
		}
		frontier = next
	}

	// Re-derive READ-ONLY before mutating anything: resurrect cone
	// members bottom-up — a member survives if one rule application
	// supports it from triples outside the (shrinking) dead set — until
	// a fixpoint. Mutual-support cycles with no external justification
	// are never resurrected. Only then delete what remains dead. Because
	// survivors never leave the live graph, a concurrent query can only
	// ever observe the genuinely retracted triples disappearing — never
	// a still-entailed triple missing mid-apply.
	dead := cone
	for changed := true; changed; {
		changed = false
		for t := range dead {
			if rdf.DerivableExcept(e.sat, t, dead) {
				delete(dead, t)
				changed = true
			}
		}
	}
	for t := range dead {
		e.sat.Remove(t)
	}
	e.deltaApplies++
	e.lastApply = time.Since(start)
}
