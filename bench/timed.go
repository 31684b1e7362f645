package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tatooine/internal/digest"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// sourceCall is one call into an interposed source: which substrate, when,
// and how many rows came back.
type sourceCall struct {
	layer string // fulltext, relstore or xmlstore
	iv    interval
	// tuples is how many parameter tuples a probe shipped (1 for a plain
	// Execute); 0 marks an Estimate or Digest call, which counts towards the
	// time spent in the source but is not a probe.
	tuples int
	rows   int
}

// callLog collects source calls while enabled. The traced run has one client,
// so everything logged between reset and take belongs to one query.
type callLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	calls []sourceCall
}

func (l *callLog) record(layer string, start time.Time, tuples, rows int) {
	end := time.Now()
	l.mu.Lock()
	l.calls = append(l.calls, sourceCall{layer: layer, iv: interval{start, end}, tuples: tuples, rows: rows})
	l.mu.Unlock()
}

// take returns the calls logged since the last take.
func (l *callLog) take() []sourceCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.calls
	l.calls = nil
	return out
}

// layerOf names the substrate package behind a source URI.
func layerOf(uri string) string {
	switch {
	case strings.HasPrefix(uri, "solr://"):
		return "fulltext"
	case strings.HasPrefix(uri, "xml://"):
		return "xmlstore"
	default:
		return "relstore"
	}
}

// timedSource is the base of the timing decorator: the DataSource methods
// plus Unwrap, which digest.ForSource and source.CanBatch follow to reach the
// wrapped source. Optional capabilities are added by timed() only when the
// wrapped source has them, because the executor and the planner choose
// different paths by type assertion: a decorator that always offered
// ExecuteBatch or Digest would change the probes the traced run counts.
type timedSource struct {
	source.DataSource
	log   *callLog
	layer string
}

func (t *timedSource) Unwrap() source.DataSource { return t.DataSource }

func (t *timedSource) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	if !t.log.on.Load() {
		return t.DataSource.Execute(q, params)
	}
	start := time.Now()
	res, err := t.DataSource.Execute(q, params)
	t.log.record(t.layer, start, 1, resultRows(res))
	return res, err
}

func resultRows(rs ...*source.Result) int {
	n := 0
	for _, r := range rs {
		if r != nil {
			n += len(r.Rows)
		}
	}
	return n
}

type timedBatch struct{ t *timedSource }

func (b timedBatch) ExecuteBatch(q source.SubQuery, sets []value.Row) ([]*source.Result, error) {
	bp := b.t.DataSource.(source.BatchProber)
	if !b.t.log.on.Load() {
		return bp.ExecuteBatch(q, sets)
	}
	start := time.Now()
	res, err := bp.ExecuteBatch(q, sets)
	b.t.log.record(b.t.layer, start, len(sets), resultRows(res...))
	return res, err
}

type timedEstimate struct{ t *timedSource }

func (e timedEstimate) Estimate(q source.SubQuery, numParams int) (rows, cost int) {
	est := e.t.DataSource.(source.Estimator)
	if !e.t.log.on.Load() {
		return est.Estimate(q, numParams)
	}
	start := time.Now()
	rows, cost = est.Estimate(q, numParams)
	e.t.log.record(e.t.layer, start, 0, 0)
	return rows, cost
}

type timedContext struct{ t *timedSource }

func (c timedContext) ExecuteContext(ctx context.Context, q source.SubQuery, params []value.Value) (*source.Result, error) {
	ce := c.t.DataSource.(source.ContextExecutor)
	if !c.t.log.on.Load() {
		return ce.ExecuteContext(ctx, q, params)
	}
	start := time.Now()
	res, err := ce.ExecuteContext(ctx, q, params)
	c.t.log.record(c.t.layer, start, 1, resultRows(res))
	return res, err
}

func (c timedContext) ExecuteBatchContext(ctx context.Context, q source.SubQuery, sets []value.Row) ([]*source.Result, error) {
	cb := c.t.DataSource.(source.ContextBatchProber)
	if !c.t.log.on.Load() {
		return cb.ExecuteBatchContext(ctx, q, sets)
	}
	start := time.Now()
	res, err := cb.ExecuteBatchContext(ctx, q, sets)
	c.t.log.record(c.t.layer, start, len(sets), resultRows(res...))
	return res, err
}

type timedDigest struct{ t *timedSource }

func (d timedDigest) Digest(b digest.Budget) (*digest.Digest, error) {
	dg := d.t.DataSource.(digest.Digester)
	if !d.t.log.on.Load() {
		return dg.Digest(b)
	}
	start := time.Now()
	out, err := dg.Digest(b)
	d.t.log.record(d.t.layer, start, 0, 0)
	return out, err
}

// capabilities lists the optional interfaces a source implements, in the
// order timed() switches on.
func capabilities(s source.DataSource) (batch, est, ctx, ctxBatch, dig bool) {
	_, batch = s.(source.BatchProber)
	_, est = s.(source.Estimator)
	_, ctx = s.(source.ContextExecutor)
	_, ctxBatch = s.(source.ContextBatchProber)
	_, dig = s.(digest.Digester)
	return
}

// timed wraps s so that calls into it are logged while log is on. The result
// implements BatchProber, Estimator, ContextExecutor, ContextBatchProber and
// digest.Digester exactly when s does. The four capability sets are those of
// the repository's sources (plain, XMLSource, the batching local adapters,
// federation.Client); any other set is refused rather than approximated.
func timed(s source.DataSource, log *callLog) (source.DataSource, error) {
	t := &timedSource{DataSource: s, log: log, layer: layerOf(s.URI())}
	batch, est, ctx, ctxBatch, dig := capabilities(s)
	switch {
	case !batch && !est && !ctx && !ctxBatch && !dig:
		return t, nil
	case !batch && est && !ctx && !ctxBatch && !dig:
		return struct {
			*timedSource
			timedEstimate
		}{t, timedEstimate{t}}, nil
	case batch && est && !ctx && !ctxBatch && !dig:
		return struct {
			*timedSource
			timedBatch
			timedEstimate
		}{t, timedBatch{t}, timedEstimate{t}}, nil
	case batch && est && ctx && ctxBatch && dig:
		return struct {
			*timedSource
			timedBatch
			timedEstimate
			timedContext
			timedDigest
		}{t, timedBatch{t}, timedEstimate{t}, timedContext{t}, timedDigest{t}}, nil
	}
	return nil, fmt.Errorf("bench: source %s has a capability set the timing decorator does not reproduce (batch=%v estimate=%v context=%v contextBatch=%v digest=%v)",
		s.URI(), batch, est, ctx, ctxBatch, dig)
}
