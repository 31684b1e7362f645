// Package obs is TATOOINE's dependency-free observability layer:
// per-query span trees carried through context.Context (and across
// processes via X-Tat-* headers), an atomic counter/gauge/histogram
// registry rendered in Prometheus text format, and a flight recorder
// keeping the last N completed query traces with a slow-query log.
//
// The package depends only on the standard library, so every layer of
// the stack — pager, sources, federation, executors, server — can
// instrument itself without import cycles.
package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"time"
)

// Wire headers for cross-process trace propagation: a mediator stamps
// its outgoing federation calls with the query's trace and the calling
// span, and a federation endpoint (sourced, or another mediator) joins
// that trace so remote server-side time is attributed distinctly from
// wire RTT.
const (
	// TraceHeader carries the 16-hex-digit trace ID on requests (set by
	// clients) and responses (echoed by joined servers).
	TraceHeader = "X-Tat-Trace-Id"
	// SpanHeader carries the calling span's ID on requests — the remote
	// server's root span becomes its child — and the server-side root
	// span's ID on responses, so the client can attribute remote time.
	SpanHeader = "X-Tat-Span-Id"
	// ServerTimeHeader reports, on responses, the nanoseconds the
	// server spent before writing the response header. A client
	// subtracts it from its observed call duration to split remote
	// compute from wire RTT.
	ServerTimeHeader = "X-Tat-Server-Ns"
)

// DefaultMaxSpans bounds the spans one trace retains. Traces of large
// fan-out queries keep the first spans and count the rest as dropped,
// so tracing cost stays bounded no matter the probe count.
const DefaultMaxSpans = 512

// Trace collects the spans of one query (or one server request). All
// methods are safe for concurrent use — probe fan-out creates spans
// from many goroutines.
type Trace struct {
	id string

	mu      sync.Mutex
	spans   []*Span
	dropped int
	max     int
}

// Span is one timed operation inside a trace. The zero of the type is
// never used: a nil *Span is the universal no-op — every method is
// nil-safe, so call sites never guard on "is tracing on".
type Span struct {
	t      *Trace
	id     string
	parent string
	name   string
	start  time.Time

	// guarded by t.mu
	dur   time.Duration // 0 while open
	ended bool
	attrs map[string]string
}

func newID() string { return fmt.Sprintf("%016x", rand.Uint64()) }

// NewTrace starts a fresh trace and returns its root span.
func NewTrace(name string) *Span {
	return JoinTrace(name, newID(), "")
}

// JoinTrace starts a trace that continues a remote caller's: the root
// span carries the caller's trace ID and is parented under the caller's
// span, so a mediator's federation probe and the sourced handler that
// served it render as one tree.
func JoinTrace(name, traceID, parentSpanID string) *Span {
	if traceID == "" {
		traceID = newID()
	}
	t := &Trace{id: traceID, max: DefaultMaxSpans}
	s := &Span{t: t, id: newID(), parent: parentSpanID, name: name, start: time.Now()}
	t.spans = append(t.spans, s)
	return s
}

// TraceID returns the span's trace ID ("" on the nil no-op span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.t.id
}

// ID returns the span's ID ("" on the nil no-op span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// StartChild opens a child span. On a nil receiver — or when the trace
// is at its span cap, which only counts the drop — it returns nil, the
// no-op span, so deep call chains need no tracing-enabled checks.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	if len(t.spans) >= t.max {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	c := &Span{t: t, id: newID(), parent: s.id, name: name, start: time.Now()}
	t.spans = append(t.spans, c)
	t.mu.Unlock()
	return c
}

// SetAttr attaches a key/value attribute to the span. Nil-safe.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = val
	s.t.mu.Unlock()
}

// End closes the span, fixing its duration. Idempotent and nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.t.mu.Unlock()
}

// Duration returns the span's duration — elapsed-so-far while open,
// zero on the nil span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// SpanData is the serializable form of a span subtree — the "trace"
// block of a query response and the flight recorder's payload.
type SpanData struct {
	TraceID     string            `json:"traceId,omitempty"` // set on the subtree root only
	SpanID      string            `json:"spanId"`
	Parent      string            `json:"parent,omitempty"` // set on the root when it continues a remote span
	Name        string            `json:"name"`
	StartUnixNs int64             `json:"startUnixNs"`
	DurationNs  int64             `json:"durationNs"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Children    []*SpanData       `json:"children,omitempty"`
	Dropped     int               `json:"droppedSpans,omitempty"` // root only: spans over the trace cap
}

// Data assembles the subtree rooted at the span into its serializable
// form. Open spans report elapsed-so-far. Nil-safe (returns nil).
func (s *Span) Data() *SpanData {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	byParent := make(map[string][]*Span, len(t.spans))
	for _, sp := range t.spans {
		byParent[sp.parent] = append(byParent[sp.parent], sp)
	}
	var build func(sp *Span) *SpanData
	build = func(sp *Span) *SpanData {
		dur := sp.dur
		if !sp.ended {
			dur = time.Since(sp.start)
		}
		d := &SpanData{
			SpanID:      sp.id,
			Name:        sp.name,
			StartUnixNs: sp.start.UnixNano(),
			DurationNs:  int64(dur),
		}
		if len(sp.attrs) > 0 {
			d.Attrs = make(map[string]string, len(sp.attrs))
			for k, v := range sp.attrs {
				d.Attrs[k] = v
			}
		}
		for _, c := range byParent[sp.id] {
			d.Children = append(d.Children, build(c))
		}
		return d
	}
	root := build(s)
	root.TraceID = t.id
	root.Parent = s.parent
	root.Dropped = t.dropped
	return root
}

// Render formats the span tree for humans: one line per span, indented
// by depth, with durations and sorted attributes.
func (d *SpanData) Render() string {
	if d == nil {
		return ""
	}
	var b strings.Builder
	if d.TraceID != "" {
		fmt.Fprintf(&b, "trace %s\n", d.TraceID)
	}
	var walk func(n *SpanData, depth int)
	walk = func(n *SpanData, depth int) {
		fmt.Fprintf(&b, "%s%s  %s", strings.Repeat("  ", depth), n.Name,
			time.Duration(n.DurationNs).Round(time.Microsecond))
		if len(n.Attrs) > 0 {
			keys := make([]string, 0, len(n.Attrs))
			for k := range n.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "  %s=%s", k, n.Attrs[k])
			}
		}
		if n.Dropped > 0 {
			fmt.Fprintf(&b, "  (+%d spans dropped)", n.Dropped)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(d, 0)
	return b.String()
}

// ---------- context plumbing ----------

type spanKey struct{}

// ContextWithSpan returns ctx carrying the span; retrieve it with
// SpanFromContext. A nil span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil (the no-op
// span) when there is none.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's span and returns a context
// carrying the child. Without a span in ctx it is a no-op: the original
// context and the nil span come back.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := SpanFromContext(ctx).StartChild(name)
	if s == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, s), s
}

// EnsureSpan is StartSpan for entry points: when ctx has no trace yet a
// fresh one is started (owned=true tells the caller it must End the
// span and owns the whole trace).
func EnsureSpan(ctx context.Context, name string) (_ context.Context, _ *Span, owned bool) {
	if parent := SpanFromContext(ctx); parent != nil {
		c, s := StartSpan(ctx, name)
		return c, s, false
	}
	s := NewTrace(name)
	return ContextWithSpan(ctx, s), s, true
}
