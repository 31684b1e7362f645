package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/pager"
	"tatooine/internal/rdf"
	"tatooine/internal/server"
	"tatooine/internal/source"
	"tatooine/internal/store"
)

// tracedOps is the fixed operation count of each workload's traced run. It
// does not scale with -seconds: the counts the run reports (sub-queries,
// round trips, commits per write) must repeat exactly from run to run.
func tracedOps(workload string, smoke bool) int {
	n := map[string]int{wlServeHot: 1500, wlServeExec: 200, wlFederated: 200, wlDurable: 340}[workload]
	if smoke {
		n = 34
	}
	return n
}

// streamPanel is how many reads the traced run streams for its first-row
// times.
const streamPanel = 20

// counters is a snapshot of every public counter the traced run reads.
type counters struct {
	srv    server.Stats
	digest core.DigestStats
	store  store.Stats
	probe  source.CacheStats
}

func (e *env) counters() counters {
	c := counters{srv: e.srv.Stats(), digest: e.in.DigestStats()}
	if st := e.in.StoreStats(); st != nil {
		c.store = *st
	}
	for _, src := range e.in.Sources().All() {
		if pc, ok := src.(*source.Cached); ok {
			s := pc.Stats()
			c.probe.Hits += s.Hits
			c.probe.Misses += s.Misses
		}
	}
	return c
}

// execRecord is one in-process execution of the traced run.
type execRecord struct {
	class string
	wall  time.Duration
	self  time.Duration
	stats core.ExecStats
	rows  int
	calls []sourceCall
}

// execTraced runs q in-process with the source log on and splits its wall
// time into time inside interposed source calls (the union of their
// intervals: a parallel bind join overlaps them) and the executor's own.
func (e *env) execTraced(q *core.CMQ, class string) (execRecord, *core.QueryResult, error) {
	e.calls.take()
	start := time.Now()
	res, err := e.in.ExecuteContext(context.Background(), q, e.serverOptions().Exec)
	wall := time.Since(start)
	if err != nil {
		return execRecord{}, nil, err
	}
	calls := e.calls.take()
	ivs := make([]interval, len(calls))
	for i, c := range calls {
		ivs[i] = c.iv
	}
	return execRecord{class: class, wall: wall, self: wall - unionDuration(ivs),
		stats: res.Stats, rows: len(res.Rows), calls: calls}, res, nil
}

// checkRows compares an in-process result with the expected digest.
func checkRows(res *core.QueryResult, want rowDigest) error {
	var got rowDigest
	for _, r := range res.Rows {
		if err := got.addRow(r); err != nil {
			return err
		}
	}
	if got != want {
		return fmt.Errorf("%d rows (sum %x), expected %d (sum %x)", got.n, got.sum, want.n, want.sum)
	}
	return nil
}

// probeSums are the ExecStats counts that must not depend on whether the
// timing decorator is installed.
type probeSums struct{ subQueries, batchProbes, prunedProbes int }

func (p *probeSums) add(s core.ExecStats) {
	p.subQueries += s.SubQueries
	p.batchProbes += s.BatchProbes
	p.prunedProbes += s.PrunedProbes
}

// traced is the state of one --trace 1 run: the set-up workload, the metrics
// gathered so far and the operations attempted and failed along the way.
type traced struct {
	cfg       runConfig
	e         *env
	want      []rowDigest
	opts      core.ExecOptions
	m         metricSet
	attempted int
	failed    int
}

func (t *traced) note(ta *tally) {
	t.attempted += ta.attempted
	t.failed += ta.failed
	for _, msg := range ta.errs {
		fmt.Fprintln(os.Stderr, "bench: failed operation:", msg)
	}
}

func (t *traced) fail(what string, err error) {
	t.failed++
	fmt.Fprintf(os.Stderr, "bench: failed operation: %s: %v\n", what, err)
}

// require fails the run when an invariant the benchmark's numbers rest on does
// not hold.
func (t *traced) require(ok bool, format string, args ...any) {
	if !ok {
		t.fail("invariant", fmt.Errorf(format, args...))
	}
}

// wrappers switches the source log and the remotes' counting on or off.
func (t *traced) wrappers(on bool) {
	t.e.calls.on.Store(on)
	for _, r := range t.e.remotes {
		r.trace.Store(on)
	}
}

// runTraced is a --trace 1 run. It measures a shorter window with every
// wrapper off (for the metrics that come from a window and to compare the
// traced run against), then turns the wrappers on and drives a fixed,
// seeded operation sequence with one client over HTTP and once more
// in-process, a streamed panel, and the scratch probes of the storage layers.
func runTraced(cfg runConfig) (*result, error) {
	ph := phasesFor(cfg.smoke)
	e, _, err := timedSetUp(cfg, true, filepath.Join(cfg.workDir, "traced"))
	if err != nil {
		return nil, err
	}
	defer func() { e.close() }()
	want, err := expectedAnswers(e.ds, e.in, e.plan.catalogue)
	if err != nil {
		return nil, err
	}
	t := &traced{cfg: cfg, e: e, want: want, opts: e.serverOptions().Exec, m: metricSet{}}

	warm, err := e.window(cfg.seed+7919, want, ph.warmUp)
	if err != nil {
		return nil, err
	}
	t.note(warm)
	satSeeded := e.in.SaturationStats()
	w, err := t.window()
	if err != nil {
		return nil, err
	}

	t.wrappers(true)
	h, err := t.httpPass()
	if err != nil {
		return nil, err
	}
	recs, err := t.inProcessPass(h.reads)
	if err != nil {
		return nil, err
	}
	t.wrappers(false)
	if err := t.compareWithReference(h.reads, recs); err != nil {
		return nil, err
	}
	t.foldExecutions(recs)
	t.foldServer(h.reads, recs, w)
	if err := t.streamPanel(h.reads); err != nil {
		return nil, err
	}
	recomputes := e.in.SaturationStats().FullRecomputes - satSeeded.FullRecomputes
	t.m["reason.full_recomputes"] = float64(recomputes)
	t.require(recomputes == 0, "%d full recomputations of the saturation after warm-up", recomputes)

	if err := t.scratchProbes(h.reads); err != nil {
		return nil, err
	}
	if err := t.restarts(ph.reopens, slices.Concat(warm.acked, w.acked, h.tally.acked)); err != nil {
		return nil, err
	}
	metrics, missing := t.m.render(perLayer)
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// window measures --seconds/2 with every wrapper off and reads the counters
// around it.
func (t *traced) window() (*tally, error) {
	e, m := t.e, t.m
	before := e.counters()
	w, err := e.window(t.cfg.seed, t.want, time.Duration(t.cfg.seconds/2*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	after := e.counters()
	t.note(w)
	reads := float64(len(w.reads))
	m["bench.window_reads"] = reads
	m["bench.window_writes"] = float64(len(w.writes))
	m["server.query_p99_ms"] = w.reads.percentile(0.99)
	// Empty samples read 0: no streamed reply, no write on this workload.
	m["ttfr_p50_ms"] = w.firsts.percentile(0.50)
	m["write_p50_ms"] = w.writes.percentile(0.50)
	m["write_p95_ms"] = w.writes.percentile(0.95)
	m["post_write_query_p50_ms"] = w.postWrite.percentile(0.50)
	requests := float64(after.srv.Requests - before.srv.Requests)
	hits := ratio(float64(after.srv.CacheHits-before.srv.CacheHits), requests)
	m["server.result_cache_hit_ratio"] = hits
	switch e.workload {
	case wlServeHot:
		t.require(hits >= 0.95, "result-cache hit ratio %.3f, serve_hot needs 0.95", hits)
	case wlServeExec, wlFederated:
		t.require(hits == 0, "result-cache hit ratio %.3f with the cache off", hits)
	}
	m["server.coalesced_frac"] = ratio(float64(after.srv.Coalesced-before.srv.Coalesced), requests)
	m["server.resp_bytes_per_query"] = ratio(float64(w.respBytes), reads)
	dHits, dFetches := float64(after.digest.Hits-before.digest.Hits), float64(after.digest.Fetches-before.digest.Fetches)
	m["digest.hit_ratio"] = ratio(dHits, dHits+dFetches)
	pHits, pMisses := float64(after.probe.Hits-before.probe.Hits), float64(after.probe.Misses-before.probe.Misses)
	m["source.probe_cache_hit_ratio"] = ratio(pHits, pHits+pMisses)
	return w, nil
}

// httpRead is one read of the traced HTTP pass.
type httpRead struct {
	q      int
	total  time.Duration
	cached bool
}

// httpPassResult is what the traced HTTP pass hands to the later phases.
type httpPassResult struct {
	reads []httpRead
	tally *tally
}

// httpPass drives the fixed, seeded sequence with one client, wrappers on. It
// samples the store's counters after every operation, which attributes page
// reads to reads and WAL bytes and commits to writes, and it reads the
// remotes' counters for the federation layer.
func (t *traced) httpPass() (*httpPassResult, error) {
	e, m := t.e, t.m
	n := tracedOps(t.cfg.workload, t.cfg.smoke)
	seq := e.plan.clientSequence(t.cfg.seed, numClients, n)
	c, err := newClient(e.ts.URL, e.plan.catalogue, e.workload == wlFederated)
	if err != nil {
		return nil, err
	}
	defer c.close()
	out := &httpPassResult{tally: newTally()}
	var clientBusy time.Duration
	var readStore, writeStore store.Stats
	var walGrowth int64
	start, satStart := e.counters(), e.in.SaturationStats()
	prev := start
	e.calls.take()
	e.loop(c, seq, t.want, func(i int) bool { return i >= n }, out.tally, func(o op, r reply) {
		now := e.counters()
		d := &writeStore
		if o.kind == opRead {
			d = &readStore
			out.reads = append(out.reads, httpRead{q: o.q, total: r.total, cached: r.cached})
		} else if g := now.store.WALBytes - prev.store.WALBytes; g > 0 {
			// A checkpoint between two samples shrinks the WAL; only
			// growth is bytes written for the write.
			walGrowth += g
		}
		d.CacheHits += now.store.CacheHits - prev.store.CacheHits
		d.CacheMisses += now.store.CacheMisses - prev.store.CacheMisses
		d.Evictions += now.store.Evictions - prev.store.Evictions
		d.Commits += now.store.Commits - prev.store.Commits
		prev = now
		for _, sc := range e.calls.take() {
			clientBusy += sc.iv.end.Sub(sc.iv.start)
		}
	})
	t.note(out.tally)
	reads, writes := float64(len(out.reads)), float64(len(out.tally.writes))
	// Every write of the sequence is followed by reads, so the digests it
	// drops are fetched again within the pass.
	m["digest.fetches_per_write"] = ratio(float64(prev.digest.Fetches-start.digest.Fetches), writes)
	m["reason.derived_per_write"] = ratio(float64(e.in.SaturationStats().Derived-satStart.Derived), writes)
	var rtts, wireBytes, serveNs, delayNs float64
	for _, r := range e.remotes {
		rtts += float64(r.requests.Load())
		wireBytes += float64(r.bytes.Load())
		serveNs += float64(r.serveNs.Load())
		delayNs += float64(r.delayNs.Load())
	}
	m["federation.rtts_per_query"] = ratio(rtts, reads)
	m["federation.bytes_per_query"] = ratio(wireBytes, reads)
	// Shares of the time federation.Client calls took: inside the remote
	// handler, in the injected delay, and the rest (encode, loopback,
	// decode) on the wire.
	m["federation.remote_frac"] = ratio(serveNs, float64(clientBusy))
	m["federation.delay_frac"] = ratio(delayNs, float64(clientBusy))
	m["federation.wire_frac"] = 0
	if len(e.remotes) > 0 {
		m["federation.wire_frac"] = 1 - m["federation.remote_frac"] - m["federation.delay_frac"]
	}
	m["pager.cache_hit_ratio"] = ratio(float64(readStore.CacheHits), float64(readStore.CacheHits+readStore.CacheMisses))
	m["pager.misses_per_query"] = ratio(float64(readStore.CacheMisses), reads)
	m["pager.evictions_per_query"] = ratio(float64(readStore.Evictions), reads)
	m["pager.wal_bytes_per_write"] = ratio(float64(walGrowth), writes)
	m["pager.commits_per_write"] = ratio(float64(writeStore.Commits), writes)
	if e.workload == wlDurable && !t.cfg.smoke {
		t.require(readStore.CacheMisses > 0, "no read missed the page cache: the data fits in it")
	}
	return out, nil
}

// inProcessPass executes the HTTP pass's reads once more through
// Instance.ExecuteContext, wrappers still on, and returns one record per
// read.
func (t *traced) inProcessPass(reads []httpRead) ([]execRecord, error) {
	e := t.e
	parsed := make(map[int]*core.CMQ)
	for _, h := range reads {
		if parsed[h.q] == nil {
			parsed[h.q] = core.MustParseCMQ(e.plan.catalogue[h.q].text)
		}
	}
	recs := make([]execRecord, 0, len(reads))
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	for _, h := range reads {
		class := e.plan.catalogue[h.q].class
		rec, res, err := e.execTraced(parsed[h.q], class)
		t.attempted++
		if err == nil {
			err = checkRows(res, t.want[h.q])
		}
		if err != nil {
			return nil, fmt.Errorf("traced in-process %s: %w", class, err)
		}
		recs = append(recs, rec)
	}
	runtime.ReadMemStats(&mem1)
	t.m["core.allocs_per_query"] = ratio(float64(mem1.Mallocs-mem0.Mallocs), float64(len(reads)))
	t.m["core.alloc_bytes_per_query"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), float64(len(reads)))
	return recs, nil
}

// compareWithReference sets the same workload up without the timing
// decorator and executes the same reads there. The probe counts must be
// identical, or the decorator changed the paths it was meant to observe and
// the run fails.
func (t *traced) compareWithReference(reads []httpRead, recs []execRecord) error {
	ref, _, err := timedSetUp(t.cfg, false, filepath.Join(t.cfg.workDir, "reference"))
	if err != nil {
		return err
	}
	defer ref.close()
	var tracedSums, refSums probeSums
	for i, h := range reads {
		res, err := ref.in.ExecuteContext(context.Background(), core.MustParseCMQ(t.e.plan.catalogue[h.q].text), t.opts)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		refSums.add(res.Stats)
		tracedSums.add(recs[i].stats)
	}
	if tracedSums != refSums {
		return fmt.Errorf("timing decorator changed the probe counts: traced %+v, unwrapped %+v", tracedSums, refSums)
	}
	return nil
}

// foldExecutions turns the in-process records into the core.* and source.*
// metrics. A class the workload's mix does not hold reads 0.
func (t *traced) foldExecutions(recs []execRecord) {
	m, n := t.m, float64(len(recs))
	var execMs, selfMs samples
	var sub, batch, pruned, fetched, resultRows, tuples, calls, callRows float64
	byClass := map[string]*samples{}
	busy := map[string]time.Duration{}
	for _, r := range recs {
		execMs.add(r.wall)
		selfMs.add(r.self)
		sub += float64(r.stats.SubQueries)
		batch += float64(r.stats.BatchProbes)
		pruned += float64(r.stats.PrunedProbes)
		fetched += float64(r.stats.RowsFetched)
		resultRows += float64(r.rows)
		if byClass[r.class] == nil {
			byClass[r.class] = &samples{}
		}
		byClass[r.class].add(r.wall)
		for _, sc := range r.calls {
			tuples += float64(sc.tuples)
			busy[sc.layer] += sc.iv.end.Sub(sc.iv.start)
			if sc.tuples > 0 {
				calls++
				callRows += float64(sc.rows)
			}
		}
	}
	m["core.exec_ms"] = execMs.percentile(0.50)
	m["core.exec_self_ms"] = selfMs.percentile(0.50)
	m["core.subqueries_per_query"] = ratio(sub, n)
	m["core.batch_probes_per_query"] = ratio(batch, n)
	m["core.pruned_probe_ratio"] = ratio(pruned, pruned+tuples)
	m["core.rows_fetched_per_result_row"] = ratio(fetched, resultRows)
	for _, class := range allClasses {
		m["core.class."+class+"_p50_ms"] = 0
		if s := byClass[class]; s != nil {
			m["core.class."+class+"_p50_ms"] = s.percentile(0.50)
		}
	}
	for _, layer := range []string{"fulltext", "relstore", "xmlstore"} {
		m["source."+layer+".busy_ms_per_query"] = ratio(ms(busy[layer]), n)
	}
	m["source.calls_per_query"] = ratio(calls, n)
	m["source.rows_per_call"] = ratio(callRows, calls)
}

// foldServer sets each traced HTTP read against the in-process execution of
// the same query: the difference is the server's. A reply served from the
// result cache executed nothing, so all of its latency is the server's. Per
// class, median execution plus median overhead, both from the one-client
// traced run, should add up to the median the wrappers-off window measured
// for that class with two clients; the largest gap is reported.
func (t *traced) foldServer(reads []httpRead, recs []execRecord, w *tally) {
	type perClass struct{ exec, overhead samples }
	var overhead, tracedHTTP samples
	classes := map[string]*perClass{}
	for i, h := range reads {
		exec := recs[i].wall
		if h.cached {
			exec = 0
		}
		overhead.add(h.total - exec)
		tracedHTTP.add(h.total)
		pc := classes[recs[i].class]
		if pc == nil {
			pc = &perClass{}
			classes[recs[i].class] = pc
		}
		pc.exec.add(exec)
		pc.overhead.add(h.total - exec)
	}
	gap := 0.0
	for _, class := range allClasses {
		pc, ws := classes[class], w.byClass[class]
		if pc == nil || ws == nil {
			continue
		}
		exec, over, p50 := pc.exec.percentile(0.50), pc.overhead.percentile(0.50), ws.percentile(0.50)
		fmt.Fprintf(os.Stderr, "bench: %s %s: execution %.3f ms + server %.3f ms traced, window median %.3f ms (n=%d)\n",
			t.cfg.workload, class, exec, over, p50, len(*ws))
		gap = max(gap, math.Abs(exec+over-p50)/p50)
	}
	windowP50 := w.reads.percentile(0.50)
	t.m["server.overhead_ms_per_query"] = overhead.percentile(0.50)
	t.m["bench.trace_overhead_frac"] = ratio(tracedHTTP.percentile(0.50)-windowP50, windowP50)
	t.m["bench.breakdown_gap_frac"] = gap
}

// streamPanel times the first row of 20 of the sequence's reads, in-process
// through ExecuteStream and over HTTP as NDJSON, under query names no result
// cache has seen.
func (t *traced) streamPanel(reads []httpRead) error {
	e := t.e
	var coreTTFR, httpTTFR samples
	var cat []query
	for i := 0; i < streamPanel; i++ {
		q := e.plan.catalogue[reads[i%len(reads)].q]
		q.text = renameQuery(q.text, fmt.Sprintf("stream%02d", i))
		cat = append(cat, q)
		start := time.Now()
		sr, err := e.in.ExecuteStream(context.Background(), core.MustParseCMQ(q.text), t.opts)
		if err != nil {
			return fmt.Errorf("stream panel: %w", err)
		}
		_, err = sr.NextBatch()
		coreTTFR.add(time.Since(start))
		sr.Close()
		if err != nil {
			return fmt.Errorf("stream panel: %w", err)
		}
	}
	c, err := newClient(e.ts.URL, cat, true)
	if err != nil {
		return err
	}
	defer c.close()
	for i := range cat {
		t.attempted++
		r, err := c.query(i)
		if err != nil {
			t.fail("stream panel", err)
			continue
		}
		httpTTFR.add(r.first)
	}
	t.m["core.ttfr_ms"] = coreTTFR.percentile(0.50)
	t.m["server.stream_overhead_ms"] = httpTTFR.percentile(0.50) - coreTTFR.percentile(0.50)
	return nil
}

// scratchProbes times private instances of the layers below the executor
// (layers.go), over the first 100 texts of the sequence where texts matter.
func (t *traced) scratchProbes(reads []httpRead) error {
	e, m := t.e, t.m
	var texts []string
	for _, h := range reads[:min(len(reads), 100)] {
		texts = append(texts, e.plan.catalogue[h.q].text)
	}
	if err := probeParseAndPlan(e.in, texts, t.opts, m); err != nil {
		return err
	}
	if err := probeBGP(e.in, texts, m); err != nil {
		return err
	}
	if err := probeDigests(e.ds, m); err != nil {
		return err
	}
	probeReason(e.ds, m)
	if err := probePager(t.cfg.workDir, m); err != nil {
		return err
	}
	treeKeys := 9 * len(e.ds.Politicians) // one key per base triple of a politician
	return probeBTree(t.cfg.workDir, treeKeys, m)
}

// restarts closes and reopens durable_mutate's store n times. It reports the
// median time from open to the first answered query, how the store uses its
// file (the database and WAL as Close leaves them, against the live base
// graph as N-Triples), and checks that no acknowledged write of this run was
// lost. Workloads without a store report 0.
func (t *traced) restarts(n int, acked []string) error {
	e, m := t.e, t.m
	for _, name := range []string{"reopen_s", "space_amp", "pager.checkpoints", "store.vacuums", "store.live_frac"} {
		m[name] = 0
	}
	if e.workload != wlDurable {
		return nil
	}
	st := e.in.StoreStats()
	m["pager.checkpoints"] = float64(st.Checkpoints)
	m["store.vacuums"] = float64(st.Vacuums)
	m["store.live_frac"] = ratio(float64(st.LiveBytes), float64(st.Pages)*pager.PageSize)
	var times []float64
	for i := 0; i < n; i++ {
		s, err := e.reopen(t.want)
		if err != nil {
			return err
		}
		times = append(times, s)
	}
	m["reopen_s"] = median(times)
	m["space_amp"] = ratio(float64(e.closedBytes), float64(len(rdf.NTriplesString(e.in.Graph()))))
	if lost := e.lostWrites(acked); lost > 0 {
		t.failed += lost
		fmt.Fprintf(os.Stderr, "bench: %d acknowledged triples are missing after reopen\n", lost)
	}
	return nil
}
