package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// numClients is the closed-loop client count of every window: one caller per
// core of the 2-core machine the bounds were measured on. A journalist's UI or
// a calling script waits for each reply before it sends the next request.
const numClients = 2

// runConfig is one invocation: a workload, a seed and how long to measure.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	workDir  string
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// tally is what a set of clients did in one phase.
type tally struct {
	elapsed   time.Duration
	reads     samples
	firsts    samples
	writes    samples
	postWrite samples
	byClass   map[string]*samples
	attempted int
	failed    int
	respBytes int64
	acked     []string // politician ids whose write was acknowledged
	errs      []string // the first few failures, for the operator
}

func newTally() *tally { return &tally{byClass: map[string]*samples{}} }

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 3 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) merge(o *tally) {
	t.reads = append(t.reads, o.reads...)
	t.firsts = append(t.firsts, o.firsts...)
	t.writes = append(t.writes, o.writes...)
	t.postWrite = append(t.postWrite, o.postWrite...)
	for c, s := range o.byClass {
		if t.byClass[c] == nil {
			t.byClass[c] = &samples{}
		}
		*t.byClass[c] = append(*t.byClass[c], *s...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.respBytes += o.respBytes
	t.acked = append(t.acked, o.acked...)
	t.errs = append(t.errs, o.errs...)
}

// writeSeq numbers the politicians the benchmark inserts, across phases.
var writeSeq atomic.Int64

func nextWriteID() string { return fmt.Sprintf("BW%07d", writeSeq.Add(1)) }

// loop is one client's closed loop over seq (wrapping around), until stop
// says so. Every reply is compared with the expected rows; a wrong answer, an
// error reply and a refused write all count as failed and add no latency.
// after, when set, sees every successful operation (a write with an empty
// reply).
func (e *env) loop(c *client, seq []op, want []rowDigest, stop func(i int) bool, t *tally, after func(o op, r reply)) {
	afterWrite := false
	for i := 0; !stop(i); i++ {
		o := seq[i%len(seq)]
		t.attempted++
		if o.kind == opWrite {
			id := nextWriteID()
			d, err := c.write(writeTriples(id))
			if err != nil {
				t.fail(err)
				continue
			}
			t.writes.add(d)
			t.acked = append(t.acked, id)
			afterWrite = true
			if after != nil {
				after(o, reply{})
			}
			continue
		}
		r, err := c.query(o.q)
		if err == nil && r.rows != want[o.q] {
			err = fmt.Errorf("wrong answer to %s: %d rows (sum %x), expected %d (sum %x)",
				e.plan.catalogue[o.q].class, r.rows.n, r.rows.sum, want[o.q].n, want[o.q].sum)
		}
		if err != nil {
			t.fail(err)
			afterWrite = false
			continue
		}
		t.reads.add(r.total)
		if r.first > 0 {
			t.firsts.add(r.first)
		}
		class := e.plan.catalogue[o.q].class
		if t.byClass[class] == nil {
			t.byClass[class] = &samples{}
		}
		t.byClass[class].add(r.total)
		t.respBytes += int64(r.bytes)
		if afterWrite {
			t.postWrite.add(r.total)
			afterWrite = false
		}
		if after != nil {
			after(o, r)
		}
	}
}

// seqLen is how many ops each client's seeded sequence holds before it wraps.
const seqLen = 1 << 15

// window runs numClients closed loops, each over its own seeded sequence and
// on its own connection, for d, and returns what the clients did together.
func (e *env) window(seed int64, want []rowDigest, d time.Duration) (*tally, error) {
	clients := make([]*client, numClients)
	for i := range clients {
		c, err := newClient(e.ts.URL, e.plan.catalogue, e.workload == wlFederated)
		if err != nil {
			return nil, err
		}
		defer c.close()
		clients[i] = c
	}
	begin := time.Now()
	deadline := begin.Add(d)
	stop := func(int) bool { return !time.Now().Before(deadline) }
	tallies := make([]*tally, numClients)
	var wg sync.WaitGroup
	for i := range clients {
		tallies[i] = newTally()
		seq := e.plan.clientSequence(seed, i, seqLen)
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.loop(clients[i], seq, want, stop, tallies[i], nil)
		}()
	}
	wg.Wait()
	total := newTally()
	total.elapsed = time.Since(begin)
	for _, t := range tallies {
		total.merge(t)
	}
	return total, nil
}

// firstAnswer posts one e1_rare query on a fresh connection and checks it.
func (e *env) firstAnswer(want []rowDigest) error {
	c, err := newClient(e.ts.URL, e.plan.catalogue[:1], false)
	if err != nil {
		return err
	}
	defer c.close()
	r, err := c.query(0)
	if err != nil {
		return err
	}
	if want != nil && r.rows != want[0] {
		return fmt.Errorf("first answer after restart is wrong: %d rows, expected %d", r.rows.n, want[0].n)
	}
	return nil
}

// reopen closes durable_mutate's instance and times a restart from nothing
// held in memory: open the store directory, register the sources, serve and
// answer one query. The store must report no error before or after.
func (e *env) reopen(want []rowDigest) (seconds float64, err error) {
	if err := e.in.StoreErr(); err != nil {
		return 0, fmt.Errorf("store error before close: %w", err)
	}
	e.ts.Close()
	err = e.in.Close()
	e.in = nil
	if err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	if e.closedBytes, err = dirBytes(e.dir); err != nil {
		return 0, err
	}
	start := time.Now()
	in, warm, err := e.ds.PersistentInstance(e.dir, e.durableOptions()...)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	e.in = in
	e.serve()
	if !warm {
		return 0, errors.New("reopen: store came back empty")
	}
	if err := e.firstAnswer(want); err != nil {
		return 0, err
	}
	seconds = time.Since(start).Seconds()
	if err := e.in.StoreErr(); err != nil {
		return 0, fmt.Errorf("store error after reopen: %w", err)
	}
	return seconds, nil
}

// lostWrites counts acknowledged triples missing from the base graph.
func (e *env) lostWrites(acked []string) int {
	lost := 0
	g := e.in.Graph()
	for _, id := range acked {
		for _, t := range writeTriples(id) {
			if !g.Contains(t) {
				lost++
			}
		}
	}
	return lost
}

// dirBytes sums the sizes of the files directly inside dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// timedSetUp sets the workload up from nothing, answers one query and
// returns how long that took. Lazy work the first query triggers
// (saturation, digests) is part of set-up, so moving it does not hide it.
func timedSetUp(cfg runConfig, traced bool, dir string) (*env, float64, error) {
	start := time.Now()
	e, err := setUp(cfg.workload, sizesFor(cfg.workload, cfg.smoke), traced, dir)
	if err != nil {
		return nil, 0, err
	}
	if err := e.firstAnswer(nil); err != nil {
		e.close()
		return nil, 0, err
	}
	return e, time.Since(start).Seconds(), nil
}

// Phase sizes that do not scale with -seconds.
const (
	setUpRepeats = 3
	reopens      = 5
	warmUp       = 3 * time.Second
)

// phases is what a run does besides its window, shrunk for the smoke test.
type phases struct {
	setUps, reopens int
	warmUp          time.Duration
}

func phasesFor(smoke bool) phases {
	if smoke {
		return phases{setUps: 1, reopens: 2, warmUp: 200 * time.Millisecond}
	}
	return phases{setUps: setUpRepeats, reopens: reopens, warmUp: warmUp}
}

// minReads and minWrites are the fewest samples a full-length window must
// yield for its percentiles to mean something (durable_mutate's writes
// included). A run that measures for less than runSeconds is not held to them.
const (
	minReads  = 2000
	minWrites = 300
)

// runEndToEnd is a --trace 0 run: set-up, warm-up, the measured window with
// every wrapper off, the durability check where the workload writes, then the
// remaining set-ups (the median set-up time is reported).
func runEndToEnd(cfg runConfig) (*result, error) {
	ph := phasesFor(cfg.smoke)
	dir := filepath.Join(cfg.workDir, "e2e")
	e, first, err := timedSetUp(cfg, false, dir)
	if err != nil {
		return nil, err
	}
	defer func() { e.close() }()
	setUps := []float64{first}

	want, err := expectedAnswers(e.ds, e.in, e.plan.catalogue)
	if err != nil {
		return nil, err
	}
	warm, err := e.window(cfg.seed+7919, want, ph.warmUp)
	if err != nil {
		return nil, err
	}
	w, err := e.window(cfg.seed, want, time.Duration(cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	// The high-water mark is read here, so that it covers one set-up and
	// the window and not the garbage of the set-ups that follow.
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	attempted, failed := warm.attempted+w.attempted, warm.failed+w.failed
	for _, msg := range append(warm.errs, w.errs...) {
		fmt.Fprintln(os.Stderr, "bench: failed operation:", msg)
	}
	if e.workload == wlDurable {
		if _, err := e.reopen(want); err != nil {
			return nil, err
		}
		if lost := e.lostWrites(append(warm.acked, w.acked...)); lost > 0 {
			failed += lost
			fmt.Fprintf(os.Stderr, "bench: %d acknowledged triples are missing after reopen\n", lost)
		}
	}
	e.close()
	for len(setUps) < ph.setUps {
		again, s, err := timedSetUp(cfg, false, dir)
		if err != nil {
			return nil, err
		}
		again.close()
		setUps = append(setUps, s)
	}

	fmt.Fprintf(os.Stderr, "bench: %s: %d reads (enough for p%g) and %d writes in the window, %d set-ups\n",
		cfg.workload, len(w.reads), 100*tailQuantile(len(w.reads)), len(w.writes), len(setUps))
	if !cfg.smoke && cfg.seconds >= runSeconds {
		if len(w.reads) < minReads || (e.workload == wlDurable && len(w.writes) < minWrites) {
			failed++
			fmt.Fprintf(os.Stderr, "bench: too few samples: the window needs %d reads (and %d writes in %s)\n", minReads, minWrites, wlDurable)
		}
	}
	m := metricSet{
		"setup_s":       median(setUps),
		"query_p50_ms":  w.reads.percentile(0.50),
		"query_p95_ms":  w.reads.percentile(0.95),
		"queries_per_s": float64(len(w.reads)) / w.elapsed.Seconds(),
		"peak_rss_mb":   rss,
	}
	metrics, missing := m.render(endToEnd)
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}
