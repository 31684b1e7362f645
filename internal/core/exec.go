package core

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"tatooine/internal/digest"
	"tatooine/internal/obs"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// ExecOptions tune query execution. The bind-join batch size
// (DefaultProbeBatch) and the atom order (planQuery's rules) are fixed.
type ExecOptions struct {
	// Parallel lets each bind join keep up to DefaultMaxFanout probe
	// dispatches in flight. False keeps one: probes run one at a time,
	// while independent DAG nodes still overlap.
	Parallel bool
	// JoinMemBudget bounds each residual hash join's build-side memory,
	// in bytes ("tatooine serve -join-mem-budget"). A build side that
	// outgrows it spills to a Grace-style partitioned on-disk join —
	// same row multiset, bounded memory. Zero or negative disables
	// spilling (builds stay fully in memory).
	JoinMemBudget int64
}

// DefaultProbeBatch is the bind-join batch size: a source that supports
// batched probes (source.BatchProber) receives the distinct outer
// tuples in chunks of this many, each chunk one native sub-query. It is
// large enough that a bind join's surviving tuples normally travel as
// one batch — one round trip to a remote — so the fan-out matters only
// for larger joins and for partial chunks an outer input that would
// block flushes early.
const DefaultProbeBatch = 1024

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

// newExecutor plans the query and wires an executor — the front half
// of ExecuteStream.
// The executor's "execute" span joins the context's trace when one is
// there (a traced server request) and roots a fresh trace otherwise, so
// every execution produces a span tree.
func (in *Instance) newExecutor(ctx context.Context, q *CMQ, opts ExecOptions) (*executor, error) {
	ctx, span, _ := obs.EnsureSpan(ctx, "execute")
	pctx, psp := obs.StartSpan(ctx, "plan")
	plan, err := in.planQuery(pctx, q)
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

// newJoin builds the hash join j under the executor's memory policy:
// with JoinMemBudget set, an oversized build side spills to disk and
// the spill surfaces in ExecStats and the process metrics.
func (ex *executor) newJoin(left, right Iterator, j joinStep) Iterator {
	counted := false
	return newHashJoin(left, right, j, ex.opts.JoinMemBudget, func(bytes int64) {
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

// ship sends atom a's sub-query to src in one source call and returns
// its rows laid out by l. With no tuples it is a scan, a batch of one
// empty tuple whose rows are headed by prefix. batched tells a
// bind-join batch ("probe-batch", counted in BatchProbes) from a lone
// probe. Each dispatch gets its own child span of sp, observes its
// round trip into the per-source probe histogram and counts as one
// sub-query.
func (ex *executor) ship(src source.DataSource, a Atom, l *layout, prefix value.Row, ts []paramTuple,
	batched bool, sp *obs.Span) ([]value.Row, error) {

	name := "probe"
	switch {
	case batched:
		name = "probe-batch"
	case len(ts) == 0:
		name, ts = "scan", []paramTuple{{prefix: prefix}}
	}
	csp := sp.StartChild(name)
	csp.SetAttr("source", src.URI())
	if batched {
		csp.SetAttr("tuples", strconv.Itoa(len(ts)))
	}
	start := time.Now()
	sets := make([]value.Row, len(ts))
	for i, t := range ts {
		sets[i] = t.params
	}
	results, err := source.ExecuteBatchWith(ex.ctx, src, a.Sub, sets)
	csp.End()
	if err != nil {
		return nil, err
	}
	probeSeconds.With(src.URI()).ObserveSince(start)
	out, rows, err := l.rows(a, ts, results)
	if err != nil {
		return nil, err
	}
	ex.mu.Lock()
	ex.stats.SubQueries++
	if batched {
		ex.stats.BatchProbes++
	}
	ex.stats.RowsFetched += rows
	ex.mu.Unlock()
	return out, nil
}

// atomSource resolves the source an atom executes against: the graph
// under the query's prefixes, or the registered source its URI names.
func (in *Instance) atomSource(a Atom, prefixes map[string]string) (source.DataSource, error) {
	if a.Kind == GraphAtom {
		return in.graphSource(prefixes), nil
	}
	return in.ResolveSource(a.SourceURI)
}

// runDynamic resolves the designating variable's distinct values from
// the outer rows and ships the sub-query to each discovered source:
// a scan, or — for an atom with IN variables — a bind join over the
// outer rows that designate that source. The URI heads the layout's
// prefix, so output rows join back to the rows that mentioned their
// source (§2.2's per-embedding source resolution).
func (ex *executor) runDynamic(s PlanStep, outer []value.Row, emit func([]value.Row) error, sp *obs.Span) error {
	a := ex.q.Atoms[s.AtomIndex]
	byURI := make(map[string][]value.Row)
	for _, row := range outer {
		if u := row[s.desig]; !u.IsNull() {
			byURI[u.Str()] = append(byURI[u.Str()], row)
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
		head := value.Row{value.NewString(uri)}
		if s.BindJoin {
			s.pruner = digest.Analyze(ex.in.SourceDigest(ex.ctx, src), a.Sub, ex.in.prefixesFor(ex.q.Prefixes)).Matcher
			if err := ex.streamBindJoin(src, s, head, newScan(byURI[uri]), emit, sp); err != nil {
				return err
			}
			continue
		}
		rows, err := ex.ship(src, a, &s.layout, head, nil, false, sp)
		if err != nil {
			return err
		}
		if err := emit(rows); err != nil {
			return err
		}
	}
	return nil
}

// paramTuple is one distinct combination of bind-join parameter values,
// with the layout prefix they head output rows with.
type paramTuple struct {
	key    string
	prefix value.Row // head values (a dynamic atom's URI), then params
	params value.Row // the sub-query parameters: a suffix of prefix
}

// binder pulls parameter tuples out of a bind join's outer rows.
type binder struct {
	head  value.Row // prefix values ahead of the parameters
	inPos []int     // the InVars' positions in the outer input
}

// extract pulls one outer row's parameter tuple; ok=false skips the
// row (a NULL never binds a parameter).
func (b *binder) extract(row value.Row) (paramTuple, bool) {
	prefix := make(value.Row, len(b.head), len(b.head)+len(b.inPos))
	copy(prefix, b.head)
	for _, p := range b.inPos {
		if row[p].IsNull() {
			return paramTuple{}, false
		}
		prefix = append(prefix, row[p])
	}
	params := prefix[len(b.head):]
	return paramTuple{params.Key(), prefix, params}, true
}

// finishIter chains the plan's finishing operators — head projection
// (or grouped aggregation), distinct, order, limit — over the body
// pipeline. When the query is non-distinct, unordered and
// non-aggregating, the limit pushes BELOW the projection: the bound
// cuts the body pipeline (and, streaming, cancels upstream probes)
// before any per-row projection work, not after.
func (ex *executor) finishIter(it Iterator) Iterator {
	f := &ex.plan.finish
	if f.pushLimit {
		it = newLimit(it, ex.q.Limit)
	}
	if len(f.aggs) > 0 {
		it = newAggregate(it, f.group, f.aggs)
	} else {
		it = newProject(it, f.proj)
	}
	if ex.q.Distinct {
		it = newDistinct(it)
	}
	if f.sort >= 0 {
		it = newSort(it, f.sort, ex.q.OrderDesc)
	}
	if ex.q.Limit > 0 && !f.pushLimit {
		it = newLimit(it, ex.q.Limit)
	}
	return it
}
