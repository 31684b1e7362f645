package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"tatooine/internal/digest"
	"tatooine/internal/source"
	"tatooine/internal/value"
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
	// rows produced, with remote estimates carrying their round-trip
	// overhead; EstRows itself when the digest answered (-1 unknown).
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

	layout layout
	// outer is a bind join's or dynamic atom's input: its dependencies
	// joined into one chain. inPos are the InVars' positions in it, and
	// desig is a dynamic atom's designator position.
	outer chain
	inPos []int
	desig int
	// pruner skips a static bind join's bindings its source's digest
	// excludes (nil: probe every binding). A dynamic atom's source is
	// known only at run time, so it is analyzed per discovered source.
	pruner *digest.ParamMatcher
}

// mode names how the step runs: "scan" or "bind-join(?a,...)", with
// " dynamic" appended for a run-time-resolved source.
func (s PlanStep) mode(a Atom) string {
	mode := "scan"
	if s.BindJoin {
		mode = "bind-join(" + strings.Join(a.Sub.InVars, ",") + ")"
	}
	if s.Dynamic {
		mode += " dynamic"
	}
	return mode
}

// layout is a plan step's output shape, decided once at plan time. The
// columns are a prefix — the designator of a dynamic atom, then the IN
// variables of a bind join — followed by the OUT variables. A variable
// is never a second column: a prefix variable already in the prefix
// takes its value from the same outer column and is dropped, and an
// OUT variable already in the layout (repeated, an IN, the designator)
// becomes an equality check against its column.
type layout struct {
	cols  []string // output columns
	outs  []string // the atom's OUT variables, one per source-result column
	pre   []int    // prefix value positions copied into each row
	keep  []int    // source-result positions appended after them
	check [][2]int // (source-result position, output column) that must be equal
}

func newLayout(a Atom, outs []string) layout {
	var prefix []string
	if a.SourceVar != "" {
		prefix = append(prefix, a.SourceVar)
	}
	for _, iv := range a.Sub.InVars {
		prefix = append(prefix, strings.TrimPrefix(iv, "?"))
	}
	l := layout{outs: outs}
	for i, v := range prefix {
		if !slices.Contains(l.cols, v) {
			l.cols = append(l.cols, v)
			l.pre = append(l.pre, i)
		}
	}
	for i, o := range outs {
		if j := slices.Index(l.cols, o); j >= 0 {
			l.check = append(l.check, [2]int{i, j})
			continue
		}
		l.cols = append(l.cols, o)
		l.keep = append(l.keep, i)
	}
	return l
}

// rows applies the layout to a source result under prefix — nothing for
// a scan, the parameter tuple for a probe, the URI plus the tuple (if
// any) for a dynamic source — allocating one row per output row.
func (l *layout) rows(a Atom, prefix value.Row, res *source.Result) ([]value.Row, error) {
	if len(res.Cols) != len(l.outs) {
		return nil, fmt.Errorf("core: atom %s returned %d columns for %d OUT variables",
			a.Designator(), len(res.Cols), len(l.outs))
	}
	var out []value.Row
next:
	for _, r := range res.Rows {
		for _, c := range l.check {
			var want value.Value
			if j := c[1]; j < len(l.pre) {
				want = prefix[l.pre[j]]
			} else {
				want = r[l.keep[j-len(l.pre)]]
			}
			if !value.Equal(r[c[0]], want) {
				continue next
			}
		}
		row := make(value.Row, 0, len(l.cols))
		for _, p := range l.pre {
			row = append(row, prefix[p])
		}
		for _, p := range l.keep {
			row = append(row, r[p])
		}
		out = append(out, row)
	}
	return out, nil
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

	root   chain  // the final join over every step's output
	finish finish // the head, DISTINCT, ORDER BY and LIMIT over root
}

// joinStep is one hash join of a chain: the plan step whose output is
// the build side, the key positions on both sides, and the build-side
// positions appended to each probe row.
type joinStep struct {
	build    int
	leftKey  []int
	rightKey []int
	pass     []int
}

// chain is a left-deep hash-join chain: the stream step's output
// probes the joins in order. Each join's build side is the first
// remaining one sharing a column with what is joined so far, and a
// cross product happens only when nothing connects.
type chain struct {
	stream int
	joins  []joinStep
	cols   []string // output columns
}

// newChain joins the outputs of the steps in inputs, stream among
// them, into one chain.
func newChain(steps []PlanStep, stream int, inputs []int) chain {
	c := chain{stream: stream, cols: steps[stream].layout.cols}
	builds := slices.DeleteFunc(slices.Clone(inputs), func(i int) bool { return i == stream })
	for len(builds) > 0 {
		pick := 0 // nothing connects: unavoidable cross product
		for j, b := range builds {
			if slices.ContainsFunc(steps[b].layout.cols, func(v string) bool { return slices.Contains(c.cols, v) }) {
				pick = j
				break
			}
		}
		var j joinStep
		j, c.cols = joinOn(c.cols, steps[builds[pick]].layout.cols)
		j.build = builds[pick]
		c.joins = append(c.joins, j)
		builds = slices.Delete(builds, pick, pick+1)
	}
	return c
}

// joinOn is the natural join of left and right columns: the shared
// columns are the keys, in left order, and the output is left followed
// by right's other columns.
func joinOn(left, right []string) (joinStep, []string) {
	var j joinStep
	for i, v := range left {
		if k := slices.Index(right, v); k >= 0 {
			j.leftKey = append(j.leftKey, i)
			j.rightKey = append(j.rightKey, k)
		}
	}
	cols := slices.Clip(left)
	for k, v := range right {
		if !slices.Contains(left, v) {
			j.pass = append(j.pass, k)
			cols = append(cols, v)
		}
	}
	return j, cols
}

// finish is the plan's finishing stage over the root chain's columns:
// a projection (proj) or a grouped aggregation (group, aggs), then the
// sort position in the result columns (-1 without ORDER BY). pushLimit
// puts LIMIT below the projection.
type finish struct {
	cols      []string // result columns
	proj      []int
	group     []int
	aggs      []aggItem
	sort      int
	pushLimit bool
}

// newFinish resolves the head against the root chain's columns. The
// query was validated, so every name is there.
func newFinish(q *CMQ, in []string) finish {
	f := finish{sort: -1,
		pushLimit: q.Limit > 0 && !q.Distinct && q.OrderBy == "" && len(q.HeadItems) == 0}
	if len(q.HeadItems) > 0 {
		for _, g := range q.GroupBy {
			f.group = append(f.group, slices.Index(in, g))
		}
		for _, it := range q.HeadItems {
			f.aggs = append(f.aggs, aggItem{agg: it.Agg, pos: slices.Index(in, it.Var)})
			f.cols = append(f.cols, it.Name())
		}
	} else {
		f.cols = q.Head
		if len(f.cols) == 0 {
			f.cols = in
		}
		for _, v := range f.cols {
			f.proj = append(f.proj, slices.Index(in, v))
		}
	}
	if q.OrderBy != "" {
		f.sort = slices.Index(f.cols, q.OrderBy)
	}
	return f
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
// one worth overlapping with the client-facing stream. A
// digest-answered cost is its row count, with no scan work or remote
// overhead, so a local atom can outrank a slower remote one here. At
// least one sink always exists (the last step: dependents only point
// forward).
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
		deps := "-"
		if len(s.Deps) > 0 {
			parts := make([]string, len(s.Deps))
			for j, d := range s.Deps {
				parts[j] = fmt.Sprintf("%d", d)
			}
			deps = strings.Join(parts, ",")
		}
		fmt.Fprintf(&b, "  node %d: atom %d [%s] %s rows=%d cost=%d wave %d deps=(%s) out=(%s)\n",
			i, s.AtomIndex, a.Designator(), s.mode(a), s.EstRows, s.EstCost, s.Wave, deps,
			strings.Join(s.layout.outs, ","))
	}
	return b.String()
}

// planQuery builds the execution DAG. Atoms are scheduled greedily:
// among the runnable atoms (designator bound, InVars produced) the
// planner prefers atoms connected by at least one shared variable to
// what is already scheduled — connected atoms narrow the intermediate
// result where disconnected ones cross-product it — and among those
// picks the smallest estimated row count (unknown estimates last,
// estimated cost breaking ties). Estimates come from the sources'
// catalog digests first (exact counts, histograms — see
// internal/digest.Analyze) and from the source's own Estimator only
// where the digest cannot answer (see analyzeAtom). The same digest
// analysis gives each static bind join its pruner.
//
// ctx bounds the estimation phase: a digest fetch or a remote
// estimate is a round trip, so a dead request must stop consulting
// sources instead of paying up to one client timeout per remaining
// atom. An estimate cut short degrades to unknown; a context found
// dead between atoms aborts the plan.
func (in *Instance) planQuery(ctx context.Context, q *CMQ) (*Plan, error) {
	outs, err := q.validate(in.prefixesFor(q.Prefixes))
	if err != nil {
		return nil, err
	}
	n := len(q.Atoms)
	rows := make([]int, n)
	costs := make([]int, n)
	pruners := make([]*digest.ParamMatcher, n)
	for i, a := range q.Atoms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rows[i], costs[i], pruners[i] = in.analyzeAtom(ctx, a, q.Prefixes)
	}

	plan := &Plan{}
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

		pick := pickAtom(runnable, q, outs, rows, costs, producer)

		a := q.Atoms[pick]
		step := PlanStep{
			AtomIndex: pick,
			BindJoin:  len(a.Sub.InVars) > 0,
			Dynamic:   a.SourceVar != "",
			EstRows:   rows[pick],
			EstCost:   costs[pick],
			layout:    newLayout(a, outs[pick]),
			pruner:    pruners[pick],
		}
		pos := len(plan.Steps)
		switch {
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
		if step.BindJoin || step.Dynamic {
			// The most downstream dependency streams; the others are
			// build sides.
			step.outer = newChain(plan.Steps, slices.Max(step.Deps), step.Deps)
			for _, iv := range a.Sub.InVars {
				step.inPos = append(step.inPos, slices.Index(step.outer.cols, strings.TrimPrefix(iv, "?")))
			}
			step.desig = slices.Index(step.outer.cols, a.SourceVar)
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
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	plan.root = newChain(plan.Steps, plan.StreamSink(), all)
	plan.finish = newFinish(q, plan.root.cols)
	return plan, nil
}

// pickAtom chooses the next atom to schedule: connected atoms (sharing
// a variable with something already produced) beat disconnected ones,
// then lower estimated rows beat higher (unknown last), then lower
// cost, then declaration order for determinism. Digest-answered atoms
// cost their row count, so an equal-row tie between two of them does
// not favour the local source.
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

// analyzeAtom returns an atom's (rows, cost) estimate and its pruner.
// The source's catalog digest answers first (digest.Analyze, one pass
// over the sub-query): when it estimates the sub-query, its row count
// is the estimate and its cost, and the source is not consulted (for a
// remote source, no round trip). Graph atoms, and shapes the digest
// refuses (XPath, joins, aggregates), ask the source's Estimator.
// Graph atoms are never pruned: G's digest would be rebuilt on every
// graph write. Dynamic sources are unknown (-1, -1) and unpruned here:
// they cannot be consulted before the designating variable is bound.
func (in *Instance) analyzeAtom(ctx context.Context, a Atom, extra map[string]string) (rows, cost int, _ *digest.ParamMatcher) {
	if a.SourceVar != "" {
		return -1, -1, nil
	}
	if a.Kind == GraphAtom {
		rows, cost = source.EstimateOf(in.graphSource(extra), a.Sub, len(a.Sub.InVars))
		return rows, cost, nil
	}
	s, err := in.sources.Resolve(a.SourceURI)
	if err != nil {
		return -1, -1, nil
	}
	an := digest.Analyze(in.SourceDigest(ctx, s), a.Sub, in.prefixesFor(extra))
	if an.Estimated {
		return an.Rows, an.Rows, an.Matcher
	}
	rows, cost = source.EstimateOf(s, a.Sub, len(a.Sub.InVars))
	return rows, cost, an.Matcher
}
