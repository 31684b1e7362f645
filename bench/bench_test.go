package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"tatooine/internal/datagen"
	"tatooine/internal/digest"
	"tatooine/internal/federation"
	"tatooine/internal/source"
)

// TestMain lets the smoke test re-exec this test binary as the benchmark:
// runAll starts os.Executable() with childEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestPercentileAndTailRule(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {0.01, 1}} {
		if got := s.percentile(c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (samples{}).percentile(0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	if got := (samples{7}).percentile(0.99); got != 7 {
		t.Errorf("single-sample percentile = %v", got)
	}
	// The reported tail percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0.5}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestUnionDuration(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	cases := []struct {
		name string
		ivs  []interval
		want time.Duration
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{at(0), at(10)}, {at(20), at(25)}}, 15 * time.Millisecond},
		{"overlapping", []interval{{at(0), at(10)}, {at(5), at(15)}}, 15 * time.Millisecond},
		{"nested", []interval{{at(0), at(30)}, {at(5), at(10)}, {at(12), at(20)}}, 30 * time.Millisecond},
		{"unsorted touching", []interval{{at(10), at(20)}, {at(0), at(10)}}, 20 * time.Millisecond},
	}
	for _, c := range cases {
		if got := unionDuration(c.ivs); got != c.want {
			t.Errorf("%s: union = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSeededSequences(t *testing.T) {
	ds, err := datagen.Generate(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		p := planFor(w, ds.Politicians)
		a, b := p.clientSequence(5, 0, 500), p.clientSequence(5, 0, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different sequences", w)
		}
		if reflect.DeepEqual(a, p.clientSequence(6, 0, 500)) {
			t.Errorf("%s: different seeds gave the same sequence", w)
		}
		if reflect.DeepEqual(a, p.clientSequence(5, 1, 500)) {
			t.Errorf("%s: two clients got the same sequence", w)
		}
		for _, o := range a {
			if o.kind == opRead && (o.q < 0 || o.q >= len(p.catalogue)) {
				t.Fatalf("%s: op points outside the catalogue", w)
			}
		}
	}
	hot := hotCatalogue()
	texts := map[string]bool{}
	for _, q := range hot {
		texts[q.text] = true
	}
	if len(hot) != 64 || len(texts) != 64 {
		t.Errorf("serve_hot catalogue has %d entries, %d distinct; want 64", len(hot), len(texts))
	}
	// durable_mutate: every write is followed by an e1_rare read.
	p := planFor(wlDurable, ds.Politicians)
	seq := p.clientSequence(1, 0, 170)
	writes := 0
	for i, o := range seq[:len(seq)-1] {
		if o.kind == opWrite {
			writes++
			if next := seq[i+1]; next.kind != opRead || p.catalogue[next.q].class != classE1Rare {
				t.Fatalf("op after write %d is not an e1_rare read", i)
			}
		}
	}
	if writes != 10 {
		t.Errorf("170 durable ops hold %d writes, want 10", writes)
	}
}

func smokeConfig() datagen.Config {
	cfg := datagen.DefaultConfig()
	sz := sizesFor(wlServeExec, true)
	cfg.NumPoliticians, cfg.NumTweets = sz.politicians, sz.tweets
	return cfg
}

// plainSource has none of the optional capabilities.
type plainSource struct{ source.DataSource }

func TestTimedKeepsCapabilities(t *testing.T) {
	ds, err := datagen.Generate(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	rem := newRemote(source.NewRelSource(datagen.INSEEURI, ds.INSEE), 0)
	defer rem.ts.Close()
	dialed, err := federation.Dial(rem.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	srcs := []source.DataSource{
		plainSource{source.NewXMLSource(datagen.SpeechesURI, ds.Speeches)},
		source.NewXMLSource(datagen.SpeechesURI, ds.Speeches),
		source.NewDocSource(datagen.TweetsURI, ds.Tweets),
		source.NewRelSource(datagen.INSEEURI, ds.INSEE),
		dialed,
	}
	type caps struct{ batch, est, ctx, ctxBatch, dig bool }
	capsOf := func(s source.DataSource) caps {
		var c caps
		c.batch, c.est, c.ctx, c.ctxBatch, c.dig = capabilities(s)
		return c
	}
	seen := map[caps]bool{}
	for _, s := range srcs {
		w, err := timed(s, &callLog{})
		if err != nil {
			t.Fatalf("%T: %v", s, err)
		}
		if got, want := capsOf(w), capsOf(s); got != want {
			t.Errorf("%T: decorator has %+v, source has %+v", s, got, want)
		}
		if source.CanBatch(w) != source.CanBatch(s) {
			t.Errorf("%T: CanBatch differs under the decorator", s)
		}
		if u, ok := w.(interface{ Unwrap() source.DataSource }); !ok || u.Unwrap() != s {
			t.Errorf("%T: decorator does not unwrap to the source", s)
		}
		if _, isDigester := s.(digest.Digester); !isDigester {
			// Local sources are digested by unwrapping to the adapter, so
			// the decorator must be digestable exactly when the source is.
			plain, _ := digest.ForSource(s, digest.DefaultBudget())
			wrapped, err := digest.ForSource(w, digest.DefaultBudget())
			if err != nil || (plain == nil) != (wrapped == nil) {
				t.Errorf("%T: digest through the decorator: %v, nil=%v; without it nil=%v", s, err, wrapped == nil, plain == nil)
			}
		}
		seen[capsOf(s)] = true
	}
	if len(seen) != 4 {
		t.Errorf("exercised %d capability sets, want the 4 the decorator reproduces", len(seen))
	}
	// A capability set outside those is refused, not approximated.
	type batchOnly struct {
		plainSource
		timedBatch
	}
	if _, err := timed(batchOnly{plainSource: plainSource{srcs[1]}}, &callLog{}); err == nil {
		t.Error("batch-only source was wrapped")
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and spec.go one list.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n spec %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go")
	}
	if !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program assumes %d", b.RunSeconds, runSeconds)
	}
}

// TestSmoke runs every workload end to end and traced on tiny instances with
// one-second windows, and checks that the output names every workload and
// metric listed in spec.go and nothing else, with no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	dir := t.TempDir()
	t.Chdir(dir) // runs keep their scratch files under ./.bench_build
	out := filepath.Join(dir, "result.json")
	var stdout bytes.Buffer
	if err := realMain([]string{"-smoke", "-seed", "3", "-out", out}, &stdout); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, stdout.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloadNames) {
		t.Errorf("report has %d workloads, want %d", len(rep.Workloads), len(workloadNames))
	}
	for _, w := range workloadNames {
		wr, ok := rep.Workloads[w]
		if !ok {
			t.Errorf("%s missing from the report", w)
			continue
		}
		for _, part := range []struct {
			name  string
			specs []metricSpec
			res   result
		}{{"end_to_end", endToEnd, wr.EndToEnd}, {"per_layer", perLayer, wr.PerLayer}} {
			if !part.res.Correct || part.res.Failed != 0 || part.res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w, part.name, part.res.Correct, part.res.Attempted, part.res.Failed)
			}
			if len(part.res.Metrics) != len(part.specs) {
				t.Errorf("%s %s: %d metrics, want %d", w, part.name, len(part.res.Metrics), len(part.specs))
			}
			for _, s := range part.specs {
				got, ok := part.res.Metrics[s.Name]
				if !ok {
					t.Errorf("%s %s: %s missing", w, part.name, s.Name)
				} else if got.Unit != s.Unit {
					t.Errorf("%s %s: %s has unit %q, want %q", w, part.name, s.Name, got.Unit, s.Unit)
				}
				if ok && s.Bound > 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w, s.Name, got.Value)
				}
			}
		}
	}
	// A file compared with itself is within every bound.
	if err := compareFiles(out, out, &stdout); err != nil {
		t.Errorf("self-comparison: %v", err)
	}
	// A doubled latency is a regression, and so is a new failure.
	worse := *rep
	worse.Workloads = map[string]workloadResult{}
	for w, wr := range rep.Workloads {
		worse.Workloads[w] = wr
	}
	wr := worse.Workloads[wlServeHot]
	wr.EndToEnd.Metrics = map[string]measurement{}
	for k, v := range rep.Workloads[wlServeHot].EndToEnd.Metrics {
		wr.EndToEnd.Metrics[k] = v
	}
	p50 := wr.EndToEnd.Metrics["query_p50_ms"]
	p50.Value *= 2
	wr.EndToEnd.Metrics["query_p50_ms"] = p50
	worse.Workloads[wlServeHot] = wr
	data, err := json.Marshal(worse)
	if err != nil {
		t.Fatal(err)
	}
	worsePath := filepath.Join(dir, "worse.json")
	if err := os.WriteFile(worsePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(out, worsePath, &stdout); err == nil {
		t.Error("a doubled query_p50_ms compared as within bound")
	}
	if err := compareFiles(worsePath, out, &stdout); err != nil {
		t.Errorf("a halved query_p50_ms compared as a regression: %v", err)
	}
	// A metric that went missing is a finding, not a zero within bound.
	delete(wr.EndToEnd.Metrics, "query_p50_ms")
	if data, err = json.Marshal(worse); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(worsePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(out, worsePath, &stdout); err == nil {
		t.Error("a missing query_p50_ms compared as within bound")
	}
}
