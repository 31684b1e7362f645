package core

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"tatooine/internal/obs"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// StreamBatchRows is the row granularity of StreamingResult.NextBatch
// (and thus of one NDJSON flush): batches are capped at this size but
// flush early whenever the pipeline would block, so the first rows
// reach the consumer at upstream latency, not at batch-fill latency.
const StreamBatchRows = 64

// streamChanBatches bounds the sink node's channel: the producer runs
// at most this many batches ahead of the consumer before Send blocks
// (backpressure all the way into the probe fan-out, whose jobs hold
// their fan-out slots while blocked on emit).
const streamChanBatches = 4

// errStreamDone marks a producer stopped because the consumer
// cancelled the stream — a LIMIT reached its bound or the client went
// away — not because anything failed.
var errStreamDone = errors.New("core: stream consumer gone")

// ExecuteStream runs a CMQ and returns its result as a stream of row
// batches instead of a materialized relation: the first batch is
// available as soon as the first rows clear the pipeline, while
// upstream nodes are still probing. The caller must Close the result
// (Close is idempotent; a full drain still requires it).
func (in *Instance) ExecuteStream(ctx context.Context, q *CMQ, opts ExecOptions) (*StreamingResult, error) {
	ex, err := in.newExecutor(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	return ex.runDAGStream(), nil
}

// StreamingResult is a query result consumed incrementally: NextBatch
// until it returns an empty batch (end of result), then Stats for the
// final counters; Close releases the pipeline and is what propagates
// early abandonment upstream (in-flight probes are cancelled, not
// drained). Not safe for concurrent use.
type StreamingResult struct {
	// Cols are the result column names, fixed before the first row.
	Cols []string
	// Plan is the executed plan.
	Plan *Plan

	ex  *executor
	run *streamRun
	it  Iterator // finishing chain over the root join

	stats     ExecStats
	trace     *obs.SpanData
	statsDone bool
	opened    bool
	done      bool
	closed    bool
}

// NextBatch returns the next rows of the result, up to StreamBatchRows
// per call but flushing earlier whenever the pipeline would block — a
// caller writing batches to a wire delivers the first rows at
// first-probe latency. An empty batch signals the end of the result; a
// non-nil error ends the stream (rows already returned stand).
func (r *StreamingResult) NextBatch() ([]value.Row, error) {
	if r.done || r.closed {
		return nil, nil
	}
	if !r.opened {
		r.opened = true
		if err := r.it.Open(); err != nil {
			return nil, r.fail(err)
		}
	}
	var batch []value.Row
	for len(batch) < StreamBatchRows {
		row, ok, err := r.it.Next()
		if err != nil {
			return nil, r.fail(err)
		}
		if !ok {
			r.done = true
			r.shutdown()
			break
		}
		batch = append(batch, row)
		if !iterBuffered(r.it) {
			break // flush what we have rather than block for a full batch
		}
	}
	return batch, nil
}

// fail shuts the pipeline down and returns the most informative error:
// the pipeline's recorded root cause when the iterator surfaced only
// its cancellation fallout.
func (r *StreamingResult) fail(err error) error {
	r.shutdown()
	if pe := r.run.err(); pe != nil && !errors.Is(pe, errStreamDone) {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return pe
		}
	}
	return err
}

// shutdown tears the pipeline down: the iterator chain closes (which
// cancels the sink stream), the pipeline context cancels (stopping
// in-flight probes that nothing will read — LIMIT early termination
// lands here), and every node goroutine is awaited, so no probe
// goroutine outlives the result. Idempotent.
func (r *StreamingResult) shutdown() {
	if r.statsDone {
		return
	}
	r.it.Close()
	r.run.cancel()
	r.run.wg.Wait()
	r.stats = r.ex.finalStats()
	r.ex.span.End()
	r.trace = r.ex.span.Data()
	r.statsDone = true
}

// Close ends consumption, cancelling whatever still runs upstream.
// Required after a drain too; idempotent.
func (r *StreamingResult) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.shutdown()
	return nil
}

// Stats returns the execution counters: final once the stream ended
// (drained, failed or closed), a live snapshot of the counters —
// without the per-node report — while streaming.
func (r *StreamingResult) Stats() ExecStats {
	if r.statsDone {
		return r.stats
	}
	r.ex.mu.Lock()
	defer r.ex.mu.Unlock()
	return r.ex.stats
}

// Trace returns the execution's span tree: complete once the stream
// ended (drained, failed or closed), nil while it still runs — a
// streaming server sends it as part of the trailer, after the rows.
func (r *StreamingResult) Trace() *obs.SpanData { return r.trace }

// drain consumes the whole stream into a QueryResult — how
// ExecuteContext is served.
func (r *StreamingResult) drain() (*QueryResult, error) {
	defer r.Close()
	res := &QueryResult{Cols: r.Cols, Plan: r.Plan}
	for {
		batch, err := r.NextBatch()
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			break
		}
		res.Rows = append(res.Rows, batch...)
	}
	res.Stats = r.Stats()
	res.Trace = r.Trace()
	return res, nil
}

// streamRun is the shared state of one streaming DAG execution: the
// per-node handoffs, the failure side-band and the producer goroutines.
type streamRun struct {
	ex     *executor
	sink   int           // plan step streaming into the root join
	bufs   []*nodeBuffer // progressive outputs of the non-sink nodes
	stream *BatchStream  // the sink node's bounded output
	cancel context.CancelFunc
	wg     sync.WaitGroup

	errMu    sync.Mutex
	firstErr error
}

// fail records the first failure and cancels the pipeline context, so
// sibling nodes stop probing instead of finishing work nobody reads.
func (r *streamRun) fail(err error) {
	r.errMu.Lock()
	if r.firstErr == nil && err != nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
	r.cancel()
}

func (r *streamRun) err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

// runDAGStream launches the plan as a tuple-streaming pipeline: every
// node runs in its own goroutine immediately, consuming its
// dependencies' outputs through progressive cursors — a downstream
// bind join fires its first probe batch as soon as the upstream's
// first rows land, not when the upstream materializes. The sink node
// (no dependents, most expensive) feeds a bounded BatchStream that the
// root hash join probes row by row; every other node's output doubles
// as a hash-build input of that join.
func (ex *executor) runDAGStream() *StreamingResult {
	steps := ex.plan.Steps
	pctx, cancel := context.WithCancel(ex.ctx)
	ex.ctx = pctx // every probe observes sibling failures and consumer abandonment alike

	run := &streamRun{ex: ex, sink: ex.plan.root.stream, cancel: cancel,
		bufs: make([]*nodeBuffer, len(steps))}
	for i := range steps {
		if i == run.sink {
			run.stream = NewBatchStream(streamChanBatches)
		} else {
			run.bufs[i] = newNodeBuffer()
		}
	}

	for i := range steps {
		run.wg.Add(1)
		go func(i int) {
			defer run.wg.Done()
			run.runNode(i)
		}(i)
	}

	// The root chain: the sink's live stream probes hash joins whose
	// build sides are the other nodes' outputs (their Open blocks until
	// those nodes complete — the builds overlap with the sink's drain,
	// which is where the time-to-first-row win comes from).
	it := ex.finishIter(run.chainIter(&ex.plan.root))
	return &StreamingResult{Cols: ex.plan.finish.cols, Plan: ex.plan, ex: ex, run: run, it: it}
}

// chainIter builds a plan-time join chain over the nodes' outputs.
func (r *streamRun) chainIter(c *chain) Iterator {
	it := r.output(c.stream)
	for _, j := range c.joins {
		it = r.ex.newJoin(it, r.output(j.build), j)
	}
	return it
}

// output reads node i's output from the start: the sink's live stream
// or a cursor over the node's progressive buffer.
func (r *streamRun) output(i int) Iterator {
	if i == r.sink {
		return &chunkIterator{in: r.stream, cancel: r.stream.Cancel}
	}
	return &chunkIterator{in: r.bufs[i].cursor(r.ex.ctx)}
}

// runNode produces one plan step's output, closing its handoff with
// the node's terminal status whatever happens.
func (r *streamRun) runNode(i int) {
	ex := r.ex
	s := ex.plan.Steps[i]
	sp := ex.span.StartChild("node")
	sp.SetAttr("atom", strconv.Itoa(s.AtomIndex))
	sp.SetAttr("target", ex.q.Atoms[s.AtomIndex].Designator())
	defer sp.End()
	var produced atomic.Int64
	emit := func(rows []value.Row) error {
		if len(rows) == 0 {
			return nil
		}
		produced.Add(int64(len(rows)))
		if i == r.sink {
			if !r.stream.Send(ex.ctx, rows) {
				if err := ex.ctx.Err(); err != nil {
					return err
				}
				return errStreamDone
			}
			return nil
		}
		r.bufs[i].emit(rows)
		return nil
	}
	err := r.produce(s, emit, sp)
	ex.nodeRows[i] = int(produced.Load())
	if err != nil {
		r.fail(err)
	}
	if i == r.sink {
		r.stream.Close(err)
	} else {
		r.bufs[i].close(err)
	}
}

// produce evaluates one step, pushing output rows through emit as they
// become available.
func (r *streamRun) produce(s PlanStep, emit func([]value.Row) error, sp *obs.Span) error {
	ex := r.ex
	a := ex.q.Atoms[s.AtomIndex]

	if s.Dynamic {
		// Dynamic resolution needs the complete outer result: the set of
		// URIs to contact comes from all of it (§2.2), so this node waits
		// for its dependencies to finish.
		outer, err := Materialize(r.chainIter(&s.outer))
		if err != nil {
			return err
		}
		return ex.runDynamic(s, outer, emit, sp)
	}
	src, err := ex.in.atomSource(a, ex.q.Prefixes)
	if err != nil {
		return err
	}
	if s.BindJoin {
		ex.mu.Lock()
		ex.stats.BindJoins++
		ex.mu.Unlock()
		return ex.streamBindJoin(src, s, nil, r.chainIter(&s.outer), emit, sp)
	}
	rows, err := ex.ship(src, a, &s.layout, nil, nil, false, sp)
	if err != nil {
		return err
	}
	return emit(rows)
}

// streamBindJoin executes the atom once per distinct combination of its
// InVars values in the outer input, pushing the values as sub-query
// parameters. It consumes the outer input incrementally, deduplicates
// parameter tuples on the fly, and dispatches probe jobs under the
// fan-out bound as soon as a chunk fills — or earlier, with whatever is
// pending, when the outer input would block. When the source supports
// batched probes (source.BatchProber), a chunk of DefaultProbeBatch
// tuples ships as ONE native sub-query; otherwise each tuple is a
// probe. Probe results emit as they land; with the sink's
// bounded stream downstream, a blocked emit holds the job's fan-out
// slot, so backpressure reaches the probe dispatch itself.
func (ex *executor) streamBindJoin(src source.DataSource, s PlanStep, head value.Row,
	outer Iterator, emit func([]value.Row) error, sp *obs.Span) error {

	a := ex.q.Atoms[s.AtomIndex]
	if err := outer.Open(); err != nil {
		outer.Close()
		return err
	}
	defer outer.Close()
	bind := binder{head: head, inPos: s.inPos}

	// chunk is the dispatch granularity: DefaultProbeBatch for
	// batch-capable sources, a single tuple otherwise.
	batchable := source.CanBatch(src)
	chunk := 1
	if batchable {
		chunk = DefaultProbeBatch
	}

	fanout := 1
	if ex.opts.Parallel {
		fanout = DefaultMaxFanout()
	}
	sem := make(chan struct{}, fanout)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var jobErr error
	var failed atomic.Bool
	setErr := func(err error) {
		errMu.Lock()
		if jobErr == nil {
			jobErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}

	// dispatch ships one chunk as a probe job under the fan-out; false
	// tells the consume loop to stop feeding (failure or cancellation).
	dispatch := func(ts []paramTuple, batched bool) bool {
		if failed.Load() {
			return false
		}
		select {
		case sem <- struct{}{}:
		case <-ex.ctx.Done():
			setErr(ex.ctx.Err())
			return false
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if failed.Load() {
				return
			}
			rows, err := ex.ship(src, a, &s.layout, nil, ts, batched, sp)
			if err == nil {
				err = emit(rows)
			}
			if err != nil {
				setErr(err)
			}
		}()
		return true
	}

	seen := make(map[string]struct{})
	var pending []paramTuple
	total := 0  // distinct surviving tuples so far; a lone tuple ships as a plain probe
	pruned := 0 // distinct tuples the digest excluded
	aborted := false
	flush := func(partial bool) bool {
		for len(pending) > 0 && (partial || len(pending) >= chunk) {
			n := min(chunk, len(pending))
			ts := pending[:n:n]
			pending = pending[n:]
			if !dispatch(ts, batchable && total > 1) {
				return false
			}
		}
		return true
	}
	for {
		if failed.Load() {
			aborted = true
			break
		}
		if len(pending) >= chunk {
			if !flush(false) {
				aborted = true
				break
			}
		} else if len(pending) > 0 && total > 1 && !iterBuffered(outer) {
			// The outer would block: fire what is pending now rather than
			// hold the first probes hostage to a full chunk.
			if !flush(true) {
				aborted = true
				break
			}
		}
		row, ok, err := outer.Next()
		if err != nil {
			wg.Wait()
			errMu.Lock()
			defer errMu.Unlock()
			if jobErr != nil {
				return jobErr
			}
			return err
		}
		if !ok {
			break
		}
		t, ok := bind.extract(row)
		if !ok {
			continue
		}
		if _, dup := seen[t.key]; dup {
			continue
		}
		seen[t.key] = struct{}{}
		// Digest semi-join pruning: a binding the digest excludes never
		// enters a chunk, so a fully pruned chunk never dispatches.
		if !s.pruner.MayMatch(t.params) {
			pruned++
			continue
		}
		pending = append(pending, t)
		total++
	}
	if pruned > 0 {
		ex.mu.Lock()
		ex.stats.PrunedProbes += pruned
		ex.mu.Unlock()
	}
	if !aborted {
		flush(true)
	}
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	return jobErr
}
