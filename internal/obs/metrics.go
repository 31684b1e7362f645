package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format (version 0.0.4). Families are get-or-create: asking
// twice for the same name returns the same metric, so package-level
// instrumentation needs no registration phase. All metric operations
// are atomic; Registry methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Default is the process-wide registry: subsystems without their own
// handle (pager, probe caches, executors, federation clients)
// instrument against it. Servers keep their per-instance counters on
// their own Registry and serve both merged on GET /metrics.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric name: its metadata plus its children, keyed by
// label value ("" for the unlabeled single child).
type family struct {
	name, help, label string
	kind              metricKind
	buckets           []float64 // histogram families only

	mu       sync.Mutex
	children map[string]any // label value -> *Counter | *Gauge | *Histogram
	order    []string       // label values in first-seen order
}

func (r *Registry) family(name, help, label string, kind metricKind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, label: label, kind: kind,
			buckets: buckets, children: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind || f.label != label {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s/%q (was %s/%q)",
			name, kind, label, f.kind, f.label))
	}
	return f
}

func (f *family) child(labelValue string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[labelValue]; ok {
		return c
	}
	var c any
	switch f.kind {
	case counterKind:
		c = &Counter{}
	case gaugeKind:
		c = &Gauge{}
	default:
		c = newHistogram(f.buckets)
	}
	f.children[labelValue] = c
	f.order = append(f.order, labelValue)
	return c
}

// Counter registers (or finds) an unlabeled monotone counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, "", counterKind, nil).child("").(*Counter)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, "", gaugeKind, nil).child("").(*Gauge)
}

// Histogram registers (or finds) an unlabeled histogram over the given
// bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, "", histogramKind, buckets).child("").(*Histogram)
}

// HistogramVec registers a histogram family with one label dimension.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, label, histogramKind, buckets)}
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct{ v atomic.Int64 }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (cumulative on
// render, as Prometheus expects) and tracks their sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last = over the largest bound
	count  atomic.Int64
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// HistogramVec is the labeled Histogram family: it hands out the
// per-label-value child histogram, creating it on first use.
type HistogramVec struct{ f *family }

// With returns the histogram for one label value.
func (v *HistogramVec) With(labelValue string) *Histogram { return v.f.child(labelValue).(*Histogram) }

// atomicFloat is an atomically updated float64 (CAS on its bits).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// DurationBuckets are the exponential histogram bounds used for every
// latency metric: 100µs doubling to ~13s (18 buckets), covering a
// cache-hit probe through a many-round-trip cold federated join.
func DurationBuckets() []float64 {
	b := make([]float64, 18)
	v := 0.0001
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// Render writes the registry in Prometheus text exposition format,
// families sorted by name for stable scrapes.
func (r *Registry) Render(b *strings.Builder) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.render(b)
	}
}

func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	f.mu.Lock()
	order := append([]string(nil), f.order...)
	children := make([]any, len(order))
	for i, lv := range order {
		children[i] = f.children[lv]
	}
	f.mu.Unlock()
	for i, lv := range order {
		switch c := children[i].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, f.labelPart(lv, ""), c.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %d\n", f.name, f.labelPart(lv, ""), c.Value())
		case *Histogram:
			cum := int64(0)
			for j, bound := range c.bounds {
				cum += c.counts[j].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					f.labelPart(lv, formatFloat(bound)), cum)
			}
			cum += c.counts[len(c.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, f.labelPart(lv, "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, f.labelPart(lv, ""), formatFloat(c.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, f.labelPart(lv, ""), cum)
		}
	}
}

// labelPart renders the {label="value",le="bound"} sample suffix;
// empty when the sample carries no labels at all.
func (f *family) labelPart(labelValue, le string) string {
	var parts []string
	if f.label != "" {
		parts = append(parts, f.label+`="`+escapeLabel(labelValue)+`"`)
	}
	if le != "" {
		parts = append(parts, `le="`+le+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// Handler serves GET /metrics over the given registries, rendered in
// order (use it as Handler(serverRegistry, obs.Default) so per-server
// counters and process-wide subsystem metrics land in one scrape).
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		for _, reg := range regs {
			reg.Render(&b)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}
