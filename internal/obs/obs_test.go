package obs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := NewTrace("query")
	if root.TraceID() == "" || root.ID() == "" {
		t.Fatal("root span missing IDs")
	}
	plan := root.StartChild("plan")
	plan.SetAttr("atoms", "3")
	plan.End()
	node := root.StartChild("node")
	probe := node.StartChild("probe")
	probe.End()
	node.End()
	root.End()

	d := root.Data()
	if d == nil || d.TraceID != root.TraceID() {
		t.Fatalf("Data root trace ID = %+v", d)
	}
	if len(d.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(d.Children))
	}
	var foundProbe bool
	for _, c := range d.Children {
		if c.Name == "plan" && c.Attrs["atoms"] != "3" {
			t.Fatalf("plan attrs = %v", c.Attrs)
		}
		if c.Name == "node" {
			if len(c.Children) != 1 || c.Children[0].Name != "probe" {
				t.Fatalf("node children = %+v", c.Children)
			}
			foundProbe = true
		}
	}
	if !foundProbe {
		t.Fatal("probe span not nested under node")
	}
	if !strings.Contains(d.Render(), "probe") {
		t.Fatalf("Render missing probe:\n%s", d.Render())
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	s.End()
	if s.StartChild("c") != nil {
		t.Fatal("nil span spawned a child")
	}
	if s.TraceID() != "" || s.ID() != "" || s.Duration() != 0 || s.Data() != nil {
		t.Fatal("nil span not a no-op")
	}
}

func TestSpanCap(t *testing.T) {
	root := NewTrace("big")
	for i := 0; i < DefaultMaxSpans+10; i++ {
		root.StartChild("child").End()
	}
	d := root.Data()
	if kept := 1 + len(d.Children); kept != DefaultMaxSpans {
		t.Fatalf("kept = %d, want %d", kept, DefaultMaxSpans)
	}
	if d.Dropped != 11 { // 10 over plus the one that hit the cap
		t.Fatalf("dropped = %d, want 11", d.Dropped)
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if SpanFromContext(ctx) != nil {
		t.Fatal("empty ctx returned a span")
	}
	ctx2, s, owned := EnsureSpan(ctx, "root")
	if s == nil || !owned {
		t.Fatal("EnsureSpan should create an owned root")
	}
	if SpanFromContext(ctx2) != s {
		t.Fatal("ctx does not carry the span")
	}
	ctx3, c := StartSpan(ctx2, "child")
	if c == nil || SpanFromContext(ctx3) != c {
		t.Fatal("StartSpan did not nest")
	}
	if c.TraceID() != s.TraceID() {
		t.Fatal("child trace ID differs")
	}
	_, c2, owned2 := EnsureSpan(ctx2, "sub")
	if owned2 || c2.TraceID() != s.TraceID() {
		t.Fatal("EnsureSpan under existing trace should join it")
	}
}

func TestMetricsRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("tat_test_total", "test counter").Add(5)
	r.Gauge("tat_test_gauge", "test gauge").Add(-2)
	h := r.Histogram("tat_test_seconds", "test histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.HistogramVec("tat_test_labeled_seconds", "labeled", "source", []float64{1}).With(`s"rc\x`).Observe(0.5)

	var b strings.Builder
	r.Render(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE tat_test_total counter\n",
		"tat_test_total 5\n",
		"# TYPE tat_test_gauge gauge\n",
		"tat_test_gauge -2\n",
		"# TYPE tat_test_seconds histogram\n",
		`tat_test_seconds_bucket{le="0.1"} 1` + "\n",
		`tat_test_seconds_bucket{le="1"} 2` + "\n",
		`tat_test_seconds_bucket{le="+Inf"} 3` + "\n",
		"tat_test_seconds_sum 5.55\n",
		"tat_test_seconds_count 3\n",
		`tat_test_labeled_seconds_count{source="s\"rc\\x"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if h.Sum() != 5.55 {
		t.Fatalf("histogram sum = %g", h.Sum())
	}
}

func TestMetricsGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("tat_same_total", "x")
	b := r.Counter("tat_same_total", "x")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	v := r.HistogramVec("tat_vec_seconds", "x", "k", []float64{1})
	if v.With("a") != v.With("a") || v.With("a") == v.With("b") {
		t.Fatal("vec children not keyed by label value")
	}
}

func TestRecorderRingAndSlow(t *testing.T) {
	rec := NewRecorder(3, 10*time.Millisecond, nil)
	for i := 0; i < 5; i++ {
		rec.Record(QueryRecord{Query: strings.Repeat("q", i+1), Duration: time.Duration(i) * 4 * time.Millisecond})
	}
	records, total := rec.Snapshot()
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	if len(records) != 3 {
		t.Fatalf("ring = %d, want 3", len(records))
	}
	if records[0].Query != "qqqqq" || records[2].Query != "qqq" {
		t.Fatalf("order wrong: %q ... %q", records[0].Query, records[2].Query)
	}
	if !records[0].Slow || records[2].Slow {
		t.Fatalf("slow flags wrong: %+v", records)
	}

	var nilRec *Recorder
	nilRec.Record(QueryRecord{}) // must not panic
	if _, n := nilRec.Snapshot(); n != 0 {
		t.Fatal("nil recorder not empty")
	}
}

func TestWrapJoinsAndEchoesTrace(t *testing.T) {
	var gotTrace, gotParent string
	h := Wrap("test", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := SpanFromContext(r.Context())
		gotTrace = s.TraceID()
		if f, ok := w.(http.Flusher); !ok {
			t.Error("wrapped writer lost http.Flusher")
		} else {
			_, _ = w.Write([]byte("ok"))
			f.Flush()
		}
	}), nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/x", nil)
	req.Header.Set(TraceHeader, "00000000deadbeef")
	req.Header.Set(SpanHeader, "00000000cafef00d")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.ReadAll(resp.Body)
	resp.Body.Close()

	if gotTrace != "00000000deadbeef" {
		t.Fatalf("handler trace = %q, want joined remote trace", gotTrace)
	}
	_ = gotParent
	if resp.Header.Get(TraceHeader) != "00000000deadbeef" {
		t.Fatalf("response trace header = %q", resp.Header.Get(TraceHeader))
	}
	if resp.Header.Get(SpanHeader) == "" {
		t.Fatal("response span header missing")
	}
	if resp.Header.Get(ServerTimeHeader) == "" {
		t.Fatal("server time header missing")
	}
}
