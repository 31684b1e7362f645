package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tatooine/internal/core"
	"tatooine/internal/federation"
	"tatooine/internal/obs"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/server"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// collectSpans flattens a span tree depth-first.
func collectSpans(d *obs.SpanData) []*obs.SpanData {
	if d == nil {
		return nil
	}
	out := []*obs.SpanData{d}
	for _, c := range d.Children {
		out = append(out, collectSpans(c)...)
	}
	return out
}

// TestTracePropagation runs a federated query against a real sourced
// style endpoint and checks cross-process trace propagation: the
// mediator's X-Tat-Trace-Id reaches the remote, the remote's span joins
// the client's trace, and the client's remote-call span splits its
// duration into server-side time and wire time that fit inside the
// observed span duration.
func TestTracePropagation(t *testing.T) {
	db := relstore.NewDatabase("insee")
	loadTable(t, db, relstore.Schema{Name: "chomage", Columns: []relstore.Column{
		{Name: "dept", Type: value.String}, {Name: "taux", Type: value.Float}}},
		[]any{"75", 8.4}, []any{"92", 7.2})
	fed := federation.Handler(source.NewRelSource("sql://insee", db))

	var mu sync.Mutex
	var remoteTraceIDs []string
	remote := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(obs.TraceHeader); id != "" {
			mu.Lock()
			remoteTraceIDs = append(remoteTraceIDs, id)
			mu.Unlock()
		}
		fed.ServeHTTP(w, r)
	}))
	defer remote.Close()

	g := rdf.NewGraph()
	g.AddAll(rdf.MustParse(`
@prefix : <http://t.example/> .
:p1 a :politician ; :position :headOfState ; :electedIn "75" .
:p2 a :politician ; :position :deputy ; :electedIn "92" .
`))
	in := core.NewInstance(g, core.WithPrefixes(map[string]string{"": "http://t.example/"}))
	c, err := federation.Dial(remote.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.AddSource(c); err != nil {
		t.Fatal(err)
	}

	srv := server.New(in, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(server.QueryRequest{Query: testQuery, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/cmq", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr cmqReply
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Error != "" {
		t.Fatalf("query failed: %s", qr.Error)
	}
	if len(qr.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(qr.Rows))
	}
	if qr.Trace == nil {
		t.Fatal("no trace block on a traced request")
	}
	if qr.Trace.TraceID == "" {
		t.Fatal("trace block has no trace ID")
	}
	// The /cmq response also advertises the trace on its headers (the
	// obs middleware echoes what it joined or started).
	if got := resp.Header.Get(obs.TraceHeader); got != qr.Trace.TraceID {
		t.Fatalf("response %s = %q, trace block says %q", obs.TraceHeader, got, qr.Trace.TraceID)
	}

	// Every traced remote call carried the mediator's trace ID to the
	// endpoint — the remote spans joined the SAME trace.
	mu.Lock()
	gotIDs := append([]string(nil), remoteTraceIDs...)
	mu.Unlock()
	if len(gotIDs) == 0 {
		t.Fatal("remote endpoint saw no traced request")
	}
	for _, id := range gotIDs {
		if id != qr.Trace.TraceID {
			t.Fatalf("remote saw trace %q, client trace is %q", id, qr.Trace.TraceID)
		}
	}

	// The client-side remote-call span records the remote's root span ID
	// and splits observed latency into server-side vs wire time; both
	// must fit inside the span's own duration.
	var remoteSpans []*obs.SpanData
	for _, sp := range collectSpans(qr.Trace) {
		if strings.HasPrefix(sp.Name, "remote ") {
			remoteSpans = append(remoteSpans, sp)
		}
	}
	if len(remoteSpans) == 0 {
		t.Fatal("no remote call spans in the trace")
	}
	for _, sp := range remoteSpans {
		if sp.Attrs["remoteSpan"] == "" {
			t.Fatalf("remote span %q has no remoteSpan attr: %v", sp.Name, sp.Attrs)
		}
		serverNs, err := strconv.ParseInt(sp.Attrs["serverNs"], 10, 64)
		if err != nil {
			t.Fatalf("remote span %q serverNs attr: %v", sp.Name, err)
		}
		if serverNs <= 0 {
			t.Fatalf("remote span %q serverNs = %d, want > 0", sp.Name, serverNs)
		}
		total := serverNs
		if w := sp.Attrs["wireNs"]; w != "" {
			wireNs, err := strconv.ParseInt(w, 10, 64)
			if err != nil {
				t.Fatalf("remote span %q wireNs attr: %v", sp.Name, err)
			}
			total += wireNs
		}
		// serverNs + wireNs is the observed RTT, which the span fully
		// contains (it closes after the response header is read).
		if total > sp.DurationNs {
			t.Fatalf("remote span %q: serverNs+wireNs = %dns exceeds span duration %dns",
				sp.Name, total, sp.DurationNs)
		}
	}
}

// TestStreamTraceTrailer checks the NDJSON path: a traced streamed
// query ends with a trailer record carrying the span tree.
func TestStreamTraceTrailer(t *testing.T) {
	in, _ := fixture(t)
	srv := server.New(in, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(server.QueryRequest{Query: testQuery, Stream: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/cmq", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var last streamRecord
	rows := 0
	for dec.More() {
		var rec streamRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Error != "" {
			t.Fatalf("stream failed: %s", rec.Error)
		}
		if rec.Row != nil {
			rows++
		}
		last = rec
	}
	if rows != 1 {
		t.Fatalf("streamed rows = %d, want 1", rows)
	}
	if last.Stats == nil {
		t.Fatal("stream did not end with a stats trailer")
	}
	if last.Trace == nil {
		t.Fatal("traced stream trailer has no trace")
	}
	if last.Trace.TraceID == "" {
		t.Fatal("trailer trace has no trace ID")
	}
	var names []string
	for _, sp := range collectSpans(last.Trace) {
		names = append(names, sp.Name)
	}
	if !strings.Contains(strings.Join(names, " "), "node") {
		t.Fatalf("trailer trace has no node spans: %v", names)
	}
}
