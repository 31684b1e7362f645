package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"tatooine/internal/source"
)

// PlanStep schedules one atom as a node of the operator DAG.
type PlanStep struct {
	// AtomIndex identifies the atom in the CMQ body.
	AtomIndex int
	// BindJoin pushes bound variable values into the sub-query as
	// parameters (the atom's InVars are available when it runs).
	BindJoin bool
	// Dynamic marks a run-time-resolved source (SourceVar designator).
	Dynamic bool
	// EstRows is the planner's result-cardinality estimate (-1 unknown).
	EstRows int
	// EstCost is the planner's total-effort estimate: access work plus
	// rows produced, with remote sources carrying their round-trip
	// overhead (-1 unknown).
	EstCost int
	// Wave is the step's dependency depth, reported by explain output
	// and ExecStats.Waves. The executor does not schedule by it: a node
	// starts as soon as its own Deps let it.
	Wave int
	// Deps indexes the steps (positions in Plan.Steps) whose outputs
	// feed this step: the producers of its InVars, plus — for dynamic
	// atoms — every earlier step, because the set of URIs to contact is
	// resolved from the full intermediate result, not a projection of
	// it.
	Deps []int
}

// Plan is a dependency-DAG execution schedule for a CMQ, honouring the
// paper's three rules (§2.3): source-designating variables are bound
// before their atoms run, atoms with disjoint dependencies overlap
// (parallelism), and cheaper atoms are scheduled first
// (selectivity-first, by estimated rows with estimated cost as the
// tie-breaker). Steps are listed in a topological order: every
// dependency of a step precedes it.
type Plan struct {
	Steps []PlanStep
	outs  [][]string // per-atom effective out variables
}

// NumWaves returns the depth of the DAG — the length of the longest
// dependency chain.
func (p *Plan) NumWaves() int {
	n := 0
	for _, s := range p.Steps {
		if s.Wave+1 > n {
			n = s.Wave + 1
		}
	}
	return n
}

// Dependents returns, per step position, the positions of the steps
// that consume its output — the reverse of PlanStep.Deps.
func (p *Plan) Dependents() [][]int {
	deps := make([][]int, len(p.Steps))
	for i, s := range p.Steps {
		for _, d := range s.Deps {
			deps[d] = append(deps[d], i)
		}
	}
	return deps
}

// StreamSink picks the node whose output the streaming executor sends
// straight into the root join's probe side (everything else becomes a
// hash-build input). It must be a node nothing depends on — otherwise
// its consumers would deadlock against the bounded sink channel — and
// among those the most expensive one wins: the slowest drain is the
// one worth overlapping with the client-facing stream. At least one
// sink always exists (the last step: dependents only point forward).
func (p *Plan) StreamSink() int {
	deps := p.Dependents()
	sink := len(p.Steps) - 1
	bestCost := -1 << 30
	for i := range p.Steps {
		if len(deps[i]) > 0 {
			continue
		}
		if c := p.Steps[i].EstCost; c >= bestCost {
			sink, bestCost = i, c
		}
	}
	return sink
}

// Explain renders the plan for humans: one line per DAG node with its
// estimated rows/cost, dependency edges and dependency depth (wave).
func (p *Plan) Explain(q *CMQ) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %s (%d nodes, depth %d)\n", q.String(), len(p.Steps), p.NumWaves())
	for i, s := range p.Steps {
		a := q.Atoms[s.AtomIndex]
		mode := "scan"
		if s.BindJoin {
			mode = "bind-join(" + strings.Join(a.Sub.InVars, ",") + ")"
		}
		if s.Dynamic {
			mode += " dynamic"
		}
		deps := "-"
		if len(s.Deps) > 0 {
			parts := make([]string, len(s.Deps))
			for j, d := range s.Deps {
				parts[j] = fmt.Sprintf("%d", d)
			}
			deps = strings.Join(parts, ",")
		}
		fmt.Fprintf(&b, "  node %d: atom %d [%s] %s rows=%d cost=%d wave %d deps=(%s) out=(%s)\n",
			i, s.AtomIndex, a.Designator(), mode, s.EstRows, s.EstCost, s.Wave, deps,
			strings.Join(p.outs[s.AtomIndex], ","))
	}
	return b.String()
}

// planQuery builds the execution DAG. Atoms are scheduled greedily:
// among the runnable atoms (designator bound, InVars produced) the
// planner prefers atoms connected by at least one shared variable to
// what is already scheduled — connected atoms narrow the intermediate
// result where disconnected ones cross-product it — and among those
// picks the smallest estimated row count (unknown estimates last,
// estimated cost breaking ties). Row estimates are tightened with the
// sources' digest statistics (exact counts, histograms — see
// internal/digest.RefineEstimate) unless opts.NoDigestPlanning; the
// source's own estimate remains the fallback and the upper bound.
// opts.NaiveOrder disables ordering entirely (one atom per wave,
// declaration order, a sequential dependency chain) for ablation
// studies.
//
// ctx bounds the estimation phase: remote sources answer estimates
// over HTTP (sequentially, one per atom), so a dead request must stop
// consulting them instead of paying up to one client timeout per
// remaining atom. An estimate cut short degrades to unknown; a context
// found dead between atoms aborts the plan.
func (in *Instance) planQuery(ctx context.Context, q *CMQ, opts ExecOptions) (*Plan, error) {
	if err := q.Validate(in.prefixesFor(q.Prefixes)); err != nil {
		return nil, err
	}
	n := len(q.Atoms)
	outs := make([][]string, n)
	for i, a := range q.Atoms {
		o, err := a.outVars(in.prefixesFor(q.Prefixes))
		if err != nil {
			return nil, err
		}
		clean := make([]string, len(o))
		for j, v := range o {
			clean[j] = strings.TrimPrefix(v, "?")
		}
		outs[i] = clean
	}

	rows := make([]int, n)
	costs := make([]int, n)
	for i, a := range q.Atoms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rows[i], costs[i] = in.estimateAtom(a, q.Prefixes)
		if !opts.NoDigestPlanning {
			rows[i] = in.refineAtomRows(ctx, a, q.Prefixes, rows[i])
		}
	}

	plan := &Plan{outs: outs}
	scheduled := make([]bool, n)
	// producer maps a bound variable to the first plan step producing it.
	producer := make(map[string]int)
	for remaining := n; remaining > 0; {
		var runnable []int
		for i, a := range q.Atoms {
			if scheduled[i] {
				continue
			}
			if a.SourceVar != "" {
				if _, ok := producer[a.SourceVar]; !ok {
					continue
				}
			}
			ok := true
			for _, iv := range a.Sub.InVars {
				if _, b := producer[strings.TrimPrefix(iv, "?")]; !b {
					ok = false
					break
				}
			}
			if ok {
				runnable = append(runnable, i)
			}
		}
		if len(runnable) == 0 {
			return nil, fmt.Errorf("core: circular dependency among atom parameters/designators")
		}

		var pick int
		if opts.NaiveOrder {
			sort.Ints(runnable)
			pick = runnable[0]
		} else {
			pick = pickAtom(runnable, q, outs, rows, costs, producer)
		}

		a := q.Atoms[pick]
		step := PlanStep{
			AtomIndex: pick,
			BindJoin:  len(a.Sub.InVars) > 0,
			Dynamic:   a.SourceVar != "",
			EstRows:   rows[pick],
			EstCost:   costs[pick],
		}
		pos := len(plan.Steps)
		switch {
		case opts.NaiveOrder:
			// Declaration order, one atom per wave, each step gated on
			// every previous one: the fully sequential ablation baseline.
			step.Wave = pos
			for d := 0; d < pos; d++ {
				step.Deps = append(step.Deps, d)
			}
		case step.Dynamic:
			// The designating URIs are resolved from the full intermediate
			// result (§2.2): restricting them to a projection of one
			// producer could contact — and fail on — URIs the complete
			// join would have filtered out.
			for d := 0; d < pos; d++ {
				step.Deps = append(step.Deps, d)
			}
		default:
			seen := make(map[int]struct{})
			for _, iv := range a.Sub.InVars {
				d := producer[strings.TrimPrefix(iv, "?")]
				if _, dup := seen[d]; !dup {
					seen[d] = struct{}{}
					step.Deps = append(step.Deps, d)
				}
			}
			sort.Ints(step.Deps)
		}
		for _, d := range step.Deps {
			if w := plan.Steps[d].Wave + 1; w > step.Wave {
				step.Wave = w
			}
		}
		plan.Steps = append(plan.Steps, step)
		scheduled[pick] = true
		remaining--
		for _, v := range outs[pick] {
			if _, dup := producer[v]; !dup {
				producer[v] = pos
			}
		}
	}
	return plan, nil
}

// pickAtom chooses the next atom to schedule: connected atoms (sharing
// a variable with something already produced) beat disconnected ones,
// then lower estimated rows beat higher (unknown last), then lower
// cost, then declaration order for determinism.
func pickAtom(runnable []int, q *CMQ, outs [][]string, rows, costs []int, producer map[string]int) int {
	connected := func(i int) bool {
		if len(producer) == 0 {
			return true // nothing scheduled yet: everything is a seed
		}
		if len(q.Atoms[i].Sub.InVars) > 0 || q.Atoms[i].SourceVar != "" {
			return true // consumes bound values by construction
		}
		for _, v := range outs[i] {
			if _, ok := producer[v]; ok {
				return true
			}
		}
		return false
	}
	key := func(i int) (int, int, int) {
		r, c := rows[i], costs[i]
		if r < 0 {
			r = 1 << 30
		}
		if c < 0 {
			c = 1 << 30
		}
		conn := 1
		if connected(i) {
			conn = 0
		}
		return conn, r, c
	}
	best := runnable[0]
	bc, br, bco := key(best)
	for _, i := range runnable[1:] {
		c, r, co := key(i)
		if c < bc || (c == bc && (r < br || (r == br && (co < bco || (co == bco && i < best))))) {
			best, bc, br, bco = i, c, r, co
		}
	}
	return best
}

// estimateAtom asks the target source for a (rows, cost) estimate.
// Dynamic sources are unknown (-1, -1): they cannot be consulted
// before the designating variable is bound.
func (in *Instance) estimateAtom(a Atom, extra map[string]string) (rows, cost int) {
	if a.SourceVar != "" {
		return -1, -1
	}
	if a.Kind == GraphAtom {
		return source.EstimateOf(in.graphSource(extra), a.Sub, len(a.Sub.InVars))
	}
	s, err := in.sources.Resolve(a.SourceURI)
	if err != nil {
		return -1, -1
	}
	return source.EstimateOf(s, a.Sub, len(a.Sub.InVars))
}
