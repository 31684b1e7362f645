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
//   - ApplyInsert runs the semi-naive rules seeded only from the delta:
//     each inserted triple is joined against the saturated graph in
//     both premise positions of every rule (rdf.DeltaConsequences), and
//     fresh conclusions re-enter the frontier until the fixpoint. New
//     schema triples (subClassOf, subPropertyOf, domain, range) trigger
//     the targeted re-closure of exactly the affected hierarchy slices
//     — never a whole-graph pass.
//
//   - ApplyDelete implements delete-and-rederive (DRed): trace the
//     over-deletion cone of consequences transitively reachable from
//     the deleted triples (skipping explicit base facts, which survive
//     on their own), re-derive READ-ONLY the cone members that still
//     have a well-founded derivation from surviving triples
//     (rdf.DerivableExcept, bottom-up to a fixpoint), and only then
//     delete the remainder from the live graph. Two conditions fall
//     back to a full recompute: a deleted *schema* triple (its loss
//     can invalidate derivations anywhere), and an over-deletion cone
//     exceeding Config.MaxDeleteFraction of the saturated graph
//     (re-checking most of the graph costs more than recomputing it).
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
	// SatFactory, when non-nil, supplies the empty graph a full rebuild
	// saturates into — the hook a persistent instance uses to keep G∞ on
	// durable storage (each rebuild gets a fresh store-backed graph).
	// Nil means rebuilds clone the base into a new in-memory graph.
	SatFactory func() *rdf.Graph
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
// queries, which is safe because rdf.Graph locks internally.
type Engine struct {
	mu   sync.Mutex
	base *rdf.Graph
	sat  *rdf.Graph
	cfg  Config

	deltaApplies   int64
	fullRecomputes int64
	lastApply      time.Duration
}

// New builds an engine over base, computing the initial saturation
// (counted as the first full recompute).
func New(base *rdf.Graph, cfg Config) *Engine {
	if cfg.MaxDeleteFraction <= 0 {
		cfg.MaxDeleteFraction = DefaultMaxDeleteFraction
	}
	e := &Engine{base: base, cfg: cfg}
	e.rebuildLocked()
	return e
}

// Adopt builds an engine over base that takes ownership of an ALREADY
// SATURATED graph instead of computing one — the warm-restart path: a
// persistent instance reopens its stored G∞ and resumes incremental
// maintenance with zero recompute. The caller asserts sat is the exact
// saturation of base; nothing is verified.
func Adopt(base, sat *rdf.Graph, cfg Config) *Engine {
	if cfg.MaxDeleteFraction <= 0 {
		cfg.MaxDeleteFraction = DefaultMaxDeleteFraction
	}
	return &Engine{base: base, sat: sat, cfg: cfg}
}

// Graph returns the maintained saturation G∞. Callers must treat it as
// read-only; it remains valid (as a pre-rebuild snapshot) even if the
// engine swaps it for a fresh one.
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

// Rebuild discards the maintained saturation and recomputes it from the
// base graph. Used when the base was mutated behind the engine's back
// (core.Instance.Invalidate's contract).
func (e *Engine) Rebuild() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rebuildLocked()
}

func (e *Engine) rebuildLocked() {
	start := time.Now()
	if e.cfg.SatFactory != nil {
		sat := e.cfg.SatFactory()
		e.base.CopyTo(sat)
		rdf.SaturateInPlace(sat)
		e.sat = sat
	} else {
		e.sat = rdf.Saturate(e.base).Graph
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
	e.insertLocked(ts)
	e.deltaApplies++
	e.lastApply = time.Since(start)
}

// insertLocked adds ts to the saturation and runs the delta rules to a
// fixpoint: every conclusion that was genuinely new re-enters the
// frontier, so chains (a new subClassOf edge re-typing instances that
// then feed rdfs9 again) close fully.
func (e *Engine) insertLocked(ts []rdf.Triple) {
	var frontier []rdf.Triple
	for _, t := range ts {
		if e.sat.Add(t) {
			frontier = append(frontier, t)
		}
	}
	for len(frontier) > 0 {
		var next []rdf.Triple
		for _, t := range frontier {
			rdf.DeltaConsequences(e.sat, t, func(c rdf.Triple) {
				if e.sat.Add(c) {
					next = append(next, c)
				}
			})
		}
		frontier = next
	}
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
