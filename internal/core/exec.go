package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tatooine/internal/obs"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// ExecOptions tune query execution.
type ExecOptions struct {
	// Parallel lets each bind join keep up to MaxFanout probe dispatches
	// in flight. False is MaxFanout = 1: probes run one at a time, while
	// independent DAG nodes still overlap.
	Parallel bool
	// MaxFanout bounds bind-join concurrency. Zero or negative derives
	// the bound from the host via DefaultMaxFanout.
	MaxFanout int
	// ProbeBatch is the bind-join batch size: when the source supports
	// batched probes (source.BatchProber) the distinct outer tuples are
	// chunked into batches of this size and each batch ships as one
	// native sub-query. 0 uses DefaultProbeBatch; 1 or negative forces
	// per-tuple probes (the pre-batching behavior). With a Tuner set,
	// ProbeBatch only seeds the per-source adaptive size.
	ProbeBatch int
	// Tuner, when non-nil, adapts the effective per-source batch size
	// from observed batch round-trip latency (see BatchTuner). Share
	// one tuner across queries so sizes converge over traffic.
	Tuner *BatchTuner
	// NaiveOrder disables selectivity-based ordering (ablation E6):
	// atoms run in declaration order, each starting only after the
	// previous one finished.
	NaiveOrder bool
	// NoDigestPlanning disables digest-driven planning and semi-join
	// pruning ("tatooine serve -digest-planning=false", ablation): atom
	// row estimates fall back to the sources' own guesses, bind joins
	// probe every distinct outer binding, and no Bloom filters ship with
	// batched probes. Results are identical either way.
	NoDigestPlanning bool
	// JoinMemBudget bounds each residual hash join's build-side memory,
	// in bytes ("tatooine serve -join-mem-budget"). A build side that
	// outgrows it spills to a Grace-style partitioned on-disk join —
	// same row multiset, bounded memory. Zero or negative disables
	// spilling (builds stay fully in memory).
	JoinMemBudget int64
}

// DefaultProbeBatch is the bind-join batch size when ExecOptions leaves
// ProbeBatch at zero.
const DefaultProbeBatch = 64

// DefaultMaxFanout derives the bind-join fan-out bound from the host:
// probes are I/O-bound (they mostly wait on remote sources), so twice
// GOMAXPROCS, clamped to [8, 64] so a one-core container still
// overlaps round trips and a large host does not stampede a remote.
func DefaultMaxFanout() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 64 {
		n = 64
	}
	return n
}

// NodeStats reports what one DAG node actually did, next to what the
// planner predicted, so estimate drift is visible per query.
type NodeStats struct {
	Atom    int `json:"atom"`    // index in the CMQ body
	EstRows int `json:"estRows"` // planner cardinality estimate (-1 unknown)
	EstCost int `json:"estCost"` // planner effort estimate (-1 unknown)
	Rows    int `json:"rows"`    // rows the node actually produced
}

// ExecStats reports what an execution did.
type ExecStats struct {
	SubQueries  int // native sub-query invocations (a batched probe counts once)
	RowsFetched int // rows returned by sources before residual joins
	Waves       int // DAG depth (longest dependency chain)
	BindJoins   int // atoms executed as bind joins
	BatchProbes int // batched bind-join dispatches (each also counts one SubQuery)
	Dynamic     int // distinct dynamically-resolved sources contacted
	// PrunedProbes counts distinct bind-join parameter tuples skipped
	// because the target's digest proved they cannot match — probes that
	// paid no round trip at all (digest semi-join pruning).
	PrunedProbes int
	// SpilledJoins counts residual hash joins whose build side exceeded
	// ExecOptions.JoinMemBudget and ran as partitioned on-disk joins;
	// SpilledBytes is the total bytes they wrote to spill files.
	SpilledJoins int
	SpilledBytes int64

	// Nodes lists per-DAG-node estimated vs actual rows, in schedule
	// order.
	Nodes []NodeStats `json:"Nodes,omitempty"`
	// BatchSizes records the effective bind-join batch size used per
	// source URI (adaptive when a Tuner is set, ProbeBatch otherwise).
	BatchSizes map[string]int `json:"BatchSizes,omitempty"`
}

// QueryResult is the outcome of a CMQ execution.
type QueryResult struct {
	Cols  []string
	Rows  []value.Row
	Stats ExecStats
	Plan  *Plan
	// Trace is the query's span tree — the "execute" subtree covering
	// planning, digest fetches, every DAG node and every probe chunk.
	// When the caller's context already carried a span (a traced server
	// request) the subtree is part of that larger trace and shares its
	// trace ID.
	Trace *obs.SpanData
}

// Execute runs a CMQ over the instance with default options
// (parallelism on).
func (in *Instance) Execute(q *CMQ) (*QueryResult, error) {
	return in.ExecuteOpts(q, ExecOptions{Parallel: true})
}

// ExecuteOpts runs a CMQ with explicit options and no caller context.
func (in *Instance) ExecuteOpts(q *CMQ, opts ExecOptions) (*QueryResult, error) {
	return in.ExecuteContext(context.Background(), q, opts)
}

// ExecuteContext runs a CMQ with explicit options under ctx. The
// context is threaded through the whole operator DAG into every probe:
// cancelling it (a disconnected HTTP client, a deadline) stops
// scheduled nodes from launching, refuses further probe fan-out, and
// aborts in-flight federation round trips mid-request.
func (in *Instance) ExecuteContext(ctx context.Context, q *CMQ, opts ExecOptions) (*QueryResult, error) {
	sr, err := in.ExecuteStream(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	return sr.drain()
}

// newExecutor normalizes the options, plans the query and wires an
// executor — the front half of ExecuteStream.
// The executor's "execute" span joins the context's trace when one is
// there (a traced server request) and roots a fresh trace otherwise, so
// every execution produces a span tree.
func (in *Instance) newExecutor(ctx context.Context, q *CMQ, opts ExecOptions) (*executor, error) {
	switch {
	case !opts.Parallel:
		opts.MaxFanout = 1
	case opts.MaxFanout <= 0:
		opts.MaxFanout = DefaultMaxFanout()
	}
	if opts.ProbeBatch == 0 {
		opts.ProbeBatch = DefaultProbeBatch
	}
	ctx, span, _ := obs.EnsureSpan(ctx, "execute")
	pctx, psp := obs.StartSpan(ctx, "plan")
	plan, err := in.planQuery(pctx, q, opts)
	psp.End()
	if err != nil {
		span.End()
		return nil, err
	}
	psp.SetAttr("nodes", strconv.Itoa(len(plan.Steps)))
	return &executor{in: in, q: q, plan: plan, opts: opts, ctx: ctx, span: span,
		nodeRows: make([]int, len(plan.Steps))}, nil
}

// finalStats assembles the per-node estimate-vs-actual report into the
// accumulated counters. Call once, after every node finished.
func (ex *executor) finalStats() ExecStats {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.stats.Waves = ex.plan.NumWaves()
	ex.stats.Nodes = nil
	for i, s := range ex.plan.Steps {
		ex.stats.Nodes = append(ex.stats.Nodes, NodeStats{
			Atom: s.AtomIndex, EstRows: s.EstRows, EstCost: s.EstCost, Rows: ex.nodeRows[i],
		})
	}
	return ex.stats
}

type executor struct {
	in   *Instance
	q    *CMQ
	plan *Plan
	opts ExecOptions
	// ctx is the caller's context; runDAGStream narrows it to a
	// cancellable child so one node's failure stops its siblings' probes.
	ctx context.Context

	// span is the execution's root span ("execute"): node spans, probe
	// chunks and digest fetches hang off it. Never nil.
	span *obs.Span

	stats    ExecStats
	nodeRows []int      // actual rows per plan step (indexed by step position)
	mu       sync.Mutex // guards stats
}

func (ex *executor) addStats(subQueries, rows int) {
	ex.mu.Lock()
	ex.stats.SubQueries += subQueries
	ex.stats.RowsFetched += rows
	ex.mu.Unlock()
}

func (ex *executor) recordBatchSize(uri string, size int) {
	ex.mu.Lock()
	if ex.stats.BatchSizes == nil {
		ex.stats.BatchSizes = make(map[string]int)
	}
	ex.stats.BatchSizes[uri] = size
	ex.mu.Unlock()
	probeBatchSize.With(uri).Set(int64(size))
}

// joinOrder orders relations for a left-deep join chain: smallest
// first, then greedily the smallest relation sharing a column with
// what is already joined — disconnected relations (cross products)
// only when nothing connected remains.
func joinOrder(rels []*Relation) []*Relation {
	if len(rels) <= 1 {
		return rels
	}
	rest := append([]*Relation(nil), rels...)
	sort.SliceStable(rest, func(i, j int) bool { return len(rest[i].Rows) < len(rest[j].Rows) })

	ordered := []*Relation{rest[0]}
	joined := make(map[string]struct{})
	add := func(r *Relation) {
		ordered = append(ordered, r)
		for _, c := range r.Cols {
			joined[c] = struct{}{}
		}
	}
	for _, c := range rest[0].Cols {
		joined[c] = struct{}{}
	}
	rest = rest[1:]
	for len(rest) > 0 {
		pick := -1
		for i, r := range rest {
			for _, c := range r.Cols {
				if _, ok := joined[c]; ok {
					pick = i
					break
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			pick = 0 // nothing connects: unavoidable cross product
		}
		add(rest[pick])
		rest = append(rest[:pick], rest[pick+1:]...)
	}
	return ordered
}

// newJoin builds a hash join under the executor's memory policy: with
// JoinMemBudget set, an oversized build side spills to disk and the
// spill surfaces in ExecStats and the process metrics.
func (ex *executor) newJoin(left, right Iterator) Iterator {
	if ex.opts.JoinMemBudget <= 0 {
		return NewHashJoin(left, right)
	}
	counted := false
	return NewHashJoinBudget(left, right, ex.opts.JoinMemBudget, func(bytes int64) {
		ex.mu.Lock()
		if !counted {
			counted = true
			ex.stats.SpilledJoins++
			spilledJoinsTotal.Inc()
		}
		ex.stats.SpilledBytes += bytes
		ex.mu.Unlock()
		spilledBytesTotal.Add(bytes)
	})
}

// joinPipeline chains relations into one left-deep streaming hash-join
// pipeline: the first relation streams, every later one is hashed as a
// build side.
func (ex *executor) joinPipeline(ordered []*Relation) Iterator {
	it := Iterator(NewScan(ordered[0]))
	for _, r := range ordered[1:] {
		it = ex.newJoin(it, NewScan(r))
	}
	return it
}

// scanSource executes an unparameterized sub-query — one native scan —
// under a child span, observing its round trip into the per-source
// probe histogram.
func (ex *executor) scanSource(src source.DataSource, a Atom, sp *obs.Span) (*source.Result, error) {
	ssp := sp.StartChild("scan")
	ssp.SetAttr("source", src.URI())
	start := time.Now()
	res, err := source.ExecuteWith(ex.ctx, src, a.Sub, nil)
	ssp.End()
	if err != nil {
		return nil, err
	}
	probeSeconds.With(src.URI()).ObserveSince(start)
	ex.addStats(1, len(res.Rows))
	return res, nil
}

func (ex *executor) atomSource(a Atom) (source.DataSource, error) {
	if a.Kind == GraphAtom {
		return ex.in.graphSource(ex.q.Prefixes), nil
	}
	return ex.in.ResolveSource(a.SourceURI)
}

// runDynamic resolves the designating variable's distinct values from
// the outer relation and ships the sub-query to each discovered source:
// a scan, or — for an atom with IN variables — a bind join over the
// outer rows that designate that source. Output rows carry the
// designator column first, so they join back to the rows that mentioned
// their source (§2.2's per-embedding source resolution).
func (ex *executor) runDynamic(a Atom, outs []string, rel *Relation, emit func([]value.Row) error, sp *obs.Span) error {
	ci := rel.colIndex(a.SourceVar)
	if ci < 0 {
		return fmt.Errorf("core: dynamic source variable ?%s not in intermediate relation", a.SourceVar)
	}
	byURI := make(map[string][]value.Row)
	for _, row := range rel.Rows {
		if !row[ci].IsNull() {
			byURI[row[ci].Str()] = append(byURI[row[ci].Str()], row)
		}
	}
	ex.mu.Lock()
	ex.stats.Dynamic += len(byURI)
	ex.mu.Unlock()

	for _, uri := range slices.Sorted(maps.Keys(byURI)) {
		src, err := ex.in.ResolveSource(uri)
		if err != nil {
			return fmt.Errorf("core: dynamic source ?%s: %w", a.SourceVar, err)
		}
		tag := value.NewString(uri)
		tagged := func(rows []value.Row) error {
			out := make([]value.Row, len(rows))
			for i, r := range rows {
				out[i] = append(append(make(value.Row, 0, 1+len(r)), tag), r...)
			}
			return emit(out)
		}
		if len(a.Sub.InVars) > 0 {
			outer := NewScan(&Relation{Cols: rel.Cols, Rows: byURI[uri]})
			if err := ex.streamBindJoin(src, a, outs, outer, tagged, sp); err != nil {
				return err
			}
			continue
		}
		res, err := ex.scanSource(src, a, sp)
		if err != nil {
			return err
		}
		part, err := atomRelation(res, outs)
		if err != nil {
			return err
		}
		if err := tagged(part.Rows); err != nil {
			return err
		}
	}
	return nil
}

// paramTuple is one distinct combination of bind-join parameter values.
type paramTuple struct {
	key    string
	params value.Row
}

// bindSpec is the column plumbing of one bind join, computed once from
// the atom and the outer input's columns: which outer positions feed
// the sub-query parameters, what the output columns are, and how a
// probe result filters back into output rows.
type bindSpec struct {
	ins      []string // parameter variable names, in InVars order
	inPos    []int    // their positions in the outer input
	cols     []string // output columns: ins, then outs not among ins
	outKeep  []int    // positions in the sub-result to append
	outCheck []struct{ resPos, insPos int }
	outs     []string
	atom     Atom
}

// newBindSpec resolves the atom's InVars against the outer columns and
// lays out the output relation. Output columns: InVars first, then
// OutVars not already among the InVars (overlaps are equality-checked
// instead of duplicated).
func newBindSpec(a Atom, outs []string, outerCols []string) (*bindSpec, error) {
	sp := &bindSpec{atom: a, outs: outs}
	sp.ins = make([]string, len(a.Sub.InVars))
	sp.inPos = make([]int, len(sp.ins))
	for i, iv := range a.Sub.InVars {
		sp.ins[i] = strings.TrimPrefix(iv, "?")
		p, ok := indexOf(outerCols, sp.ins[i])
		if !ok {
			return nil, fmt.Errorf("core: bind-join variable ?%s not in intermediate relation", sp.ins[i])
		}
		sp.inPos[i] = p
	}
	sp.cols = append([]string(nil), sp.ins...)
	for i, o := range outs {
		if j, dup := indexOf(sp.ins, o); dup {
			sp.outCheck = append(sp.outCheck, struct{ resPos, insPos int }{i, j})
			continue
		}
		sp.cols = append(sp.cols, o)
		sp.outKeep = append(sp.outKeep, i)
	}
	return sp, nil
}

// extract pulls one outer row's parameter tuple; ok=false skips the
// row (a NULL never binds a parameter).
func (sp *bindSpec) extract(row value.Row) (paramTuple, bool) {
	params := make(value.Row, len(sp.inPos))
	for i, p := range sp.inPos {
		if row[p].IsNull() {
			return paramTuple{}, false
		}
		params[i] = row[p]
	}
	return paramTuple{params.Key(), params}, true
}

// filterRows turns one tuple's sub-result into output rows: the
// overlap columns are equality-checked against the tuple, the rest
// appended after the tuple's parameter values.
func (sp *bindSpec) filterRows(t paramTuple, res *source.Result) ([]value.Row, error) {
	if len(res.Cols) != len(sp.outs) {
		if len(res.Cols) == 0 && len(res.Rows) == 0 {
			// A schema-less empty result: how a federation endpoint answers
			// a probe it pruned server-side against its digest.
			return nil, nil
		}
		return nil, fmt.Errorf("core: atom %s returned %d columns for %d OUT variables",
			sp.atom.Designator(), len(res.Cols), len(sp.outs))
	}
	var local []value.Row
	for _, r := range res.Rows {
		ok := true
		for _, ch := range sp.outCheck {
			if !value.Equal(r[ch.resPos], t.params[ch.insPos]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		row := make(value.Row, 0, len(sp.cols))
		row = append(row, t.params...)
		for _, p := range sp.outKeep {
			row = append(row, r[p])
		}
		local = append(local, row)
	}
	return local, nil
}

// batchProbeRows ships one chunk of parameter tuples as a single
// batched sub-query and returns the merged per-tuple result rows.
// Successful round trips feed the adaptive tuner when one is
// configured.
func (ex *executor) batchProbeRows(bp source.BatchProber, a Atom, spec *bindSpec, chunk []paramTuple,
	sp *obs.Span) (_ []value.Row, unsupported bool, _ error) {

	if len(chunk) == 0 {
		// A fully-pruned chunk never reaches the wire, so there is no
		// round trip to make and no RTT signal for the tuner to learn
		// from.
		return nil, false, nil
	}
	sets := make([]value.Row, len(chunk))
	for i, t := range chunk {
		sets[i] = t.params
	}
	csp := sp.StartChild("probe-batch")
	csp.SetAttr("source", bp.URI())
	csp.SetAttr("tuples", strconv.Itoa(len(chunk)))
	start := time.Now()
	results, err := source.ExecuteBatchWith(ex.ctx, bp, a.Sub, sets)
	csp.End()
	if err != nil {
		if errors.Is(err, source.ErrBatchUnsupported) {
			return nil, true, nil
		}
		return nil, false, err
	}
	probeSeconds.With(bp.URI()).ObserveSince(start)
	if ex.opts.Tuner != nil {
		ex.opts.Tuner.Observe(bp.URI(), time.Since(start))
	}
	if len(results) != len(chunk) {
		return nil, false, fmt.Errorf("core: atom %s: batched probe returned %d results for %d tuples",
			a.Designator(), len(results), len(chunk))
	}
	rows := 0
	var merged []value.Row
	for i, res := range results {
		if res == nil {
			return nil, false, fmt.Errorf("core: atom %s: batched probe returned a nil result", a.Designator())
		}
		rows += len(res.Rows)
		local, err := spec.filterRows(chunk[i], res)
		if err != nil {
			return nil, false, err
		}
		merged = append(merged, local...)
	}
	ex.mu.Lock()
	ex.stats.SubQueries++
	ex.stats.BatchProbes++
	ex.stats.RowsFetched += rows
	ex.mu.Unlock()
	return merged, false, nil
}

// atomRelation renames a source result's columns to the atom's OUT
// variables. Repeated OUT variables become an equality filter plus a
// single column.
func atomRelation(res *source.Result, outs []string) (*Relation, error) {
	if len(res.Cols) != len(outs) {
		return nil, fmt.Errorf("core: sub-query returned %d columns for %d OUT variables", len(res.Cols), len(outs))
	}
	// Detect repeats.
	first := make(map[string]int)
	var keep []int
	var checks [][2]int // (pos, firstPos) equality requirements
	for i, o := range outs {
		if j, dup := first[o]; dup {
			checks = append(checks, [2]int{i, j})
			continue
		}
		first[o] = i
		keep = append(keep, i)
	}
	out := &Relation{}
	for _, i := range keep {
		out.Cols = append(out.Cols, outs[i])
	}
	for _, r := range res.Rows {
		ok := true
		for _, c := range checks {
			if !value.Equal(r[c[0]], r[c[1]]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		row := make(value.Row, 0, len(keep))
		for _, i := range keep {
			row = append(row, r[i])
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// finishIter chains the finishing operators — head projection (or
// grouped aggregation), distinct, order, limit — over the body
// pipeline. When the query is non-distinct, unordered and
// non-aggregating, the limit pushes BELOW the projection: the bound
// cuts the body pipeline (and, streaming, cancels upstream probes)
// before any per-row projection work, not after.
func (ex *executor) finishIter(input Iterator) Iterator {
	it := input
	pushLimit := ex.q.Limit > 0 && !ex.q.Distinct && ex.q.OrderBy == "" && len(ex.q.HeadItems) == 0
	if pushLimit {
		it = NewLimit(it, ex.q.Limit)
	}
	if len(ex.q.HeadItems) > 0 {
		it = NewAggregate(it, ex.q.GroupBy, ex.q.HeadItems)
	} else {
		head := ex.q.Head
		if len(head) == 0 {
			head = input.Cols()
		}
		it = NewProject(it, head)
	}
	if ex.q.Distinct {
		it = NewDistinct(it)
	}
	if ex.q.OrderBy != "" {
		it = NewSort(it, ex.q.OrderBy, ex.q.OrderDesc)
	}
	if ex.q.Limit > 0 && !pushLimit {
		it = NewLimit(it, ex.q.Limit)
	}
	return it
}
