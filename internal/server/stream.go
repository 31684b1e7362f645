package server

import (
	"net/http"
	"strings"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/obs"
	"tatooine/internal/value"
)

// StreamRecord is one line of a streamed POST /cmq response
// (Content-Type application/x-ndjson): exactly one JSON object per
// line, exactly one of the fields below populated per record. The
// sequence on the wire is
//
//	{"cols": [...]}                 header: result column names
//	{"row": [...]}                  one record per result row, flushed
//	                                in executor batches as they land
//	{"stats": {...}, "cached": b}   trailer: final execution counters
//	                                (plus "trace" — the execution's
//	                                span tree — when the request asked
//	                                for one)
//
// and a failure after the header — the status line is long since on
// the wire — ends the stream with a terminal
//
//	{"error": "..."}
//
// record instead of the trailer; rows already delivered stand (they
// are correct, just incomplete). Errors detected before execution
// starts (parse, planning) are still ordinary JSON 4xx responses.
// The header and row records are written by hand, so their one field
// is there even when it is empty: a header with no columns reads
// {"cols":[]} and a row with no columns {"row":[]}.
type StreamRecord struct {
	Cols   []string        `json:"cols,omitempty"`
	Row    value.Row       `json:"row,omitempty"`
	Stats  *core.ExecStats `json:"stats,omitempty"`
	Cached *bool           `json:"cached,omitempty"`
	Trace  *obs.SpanData   `json:"trace,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// wantsNDJSON reports whether the request negotiated a streamed
// response through its Accept header.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// handleStreamCMQ answers POST /cmq as an NDJSON stream: rows go out
// as the executor produces them (first rows at first-probe latency,
// while upstream bind joins are still probing), the client
// disconnecting cancels the whole pipeline through the request
// context, and a LIMIT satisfied early stops upstream probes the same
// way. A result-cache hit replays the cached rows in the same framing,
// so clients speak one protocol; a miss executes directly under the
// request context — streamed executions are not coalesced and their
// results are not cached (the rows leave as they arrive; buffering
// them for the cache would reintroduce materialization).
func (s *Server) handleStreamCMQ(w http.ResponseWriter, r *http.Request, q *core.CMQ, req QueryRequest) {
	s.streamed.Add(1)
	s.inFlightStreams.Add(1)
	s.inFlightQueries.Add(1)
	start := time.Now()
	defer func() {
		s.inFlightStreams.Add(-1)
		s.inFlightQueries.Add(-1)
		s.querySeconds.ObserveSince(start)
	}()

	key, _ := s.generationKey(q.CanonicalKey())
	if res, ok := s.cacheGet(key); ok {
		s.hits.Add(1)
		sw := newStreamWriter(w)
		defer sw.close()
		sw.header(res.Cols)
		for i := 0; i < len(res.Rows); i += core.StreamBatchRows {
			end := min(i+core.StreamBatchRows, len(res.Rows))
			sw.rows(res.Rows[i:end])
			if i == 0 {
				s.ttfrSeconds.ObserveSince(start)
			}
		}
		if len(res.Rows) == 0 {
			s.ttfrSeconds.ObserveSince(start)
		}
		s.recorder.Record(obs.QueryRecord{Query: req.Query, Start: start,
			Duration: time.Since(start), Rows: len(res.Rows), Streamed: true, CacheHit: true})
		// A cache hit executed nothing: zeroed stats, like the JSON path.
		sw.trailer(&core.ExecStats{}, true, nil)
		return
	}
	s.misses.Add(1)

	sr, err := s.in.ExecuteStream(r.Context(), q, s.opts.Exec)
	if err != nil {
		// Nothing is on the wire yet: planning errors stay ordinary JSON.
		s.errors.Add(1)
		s.recorder.Record(obs.QueryRecord{Query: req.Query, Start: start,
			Duration: time.Since(start), Streamed: true, Err: err.Error()})
		writeQuery(w, http.StatusUnprocessableEntity, QueryResponse{Error: err.Error()})
		return
	}
	defer sr.Close()

	sw := newStreamWriter(w)
	defer sw.close()
	sw.header(sr.Cols)
	rows, first := 0, true
	for {
		batch, err := sr.NextBatch()
		if err != nil {
			s.errors.Add(1)
			s.recorder.Record(obs.QueryRecord{Query: req.Query, Start: start,
				Duration: time.Since(start), Rows: rows, Streamed: true,
				Err: err.Error(), Trace: sr.Trace()})
			sw.fail(err)
			return
		}
		if len(batch) == 0 {
			break
		}
		if first {
			s.ttfrSeconds.ObserveSince(start)
			first = false
		}
		rows += len(batch)
		sw.rows(batch)
	}
	if first {
		// Empty result: the trailer is the first (and only) payload.
		s.ttfrSeconds.ObserveSince(start)
	}
	stats := sr.Stats()
	s.countExecution(stats)
	trace := sr.Trace() // complete: the stream has ended
	s.recorder.Record(obs.QueryRecord{Query: req.Query, Start: start,
		Duration: time.Since(start), Rows: rows, Streamed: true, Trace: trace})
	if !req.Trace {
		trace = nil
	}
	sw.trailer(&stats, false, trace)
}

// streamWriter frames StreamRecords onto the wire, flushing after
// every call so each executor batch reaches the client immediately
// instead of sitting in the ResponseWriter's buffer until the handler
// returns. Close it when the stream ends.
type streamWriter struct {
	f  http.Flusher
	jw *value.JSONWriter
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	f, _ := w.(http.Flusher)
	return &streamWriter{f: f, jw: value.NewJSONWriter(w)}
}

func (sw *streamWriter) flush() {
	_ = sw.jw.Flush()
	if sw.f != nil {
		sw.f.Flush()
	}
}

func (sw *streamWriter) close() { _ = sw.jw.Close() }

func (sw *streamWriter) header(cols []string) {
	if cols == nil {
		cols = []string{}
	}
	sw.jw.Raw(`{"cols":`)
	sw.jw.Strings(cols)
	sw.jw.Raw("}\n")
	sw.flush()
}

func (sw *streamWriter) rows(rows []value.Row) {
	for _, row := range rows {
		sw.jw.Raw(`{"row":`)
		sw.jw.Row(row)
		sw.jw.Raw("}\n")
	}
	sw.flush()
}

func (sw *streamWriter) trailer(stats *core.ExecStats, cached bool, trace *obs.SpanData) {
	sw.jw.Marshal(StreamRecord{Stats: stats, Cached: &cached, Trace: trace})
	sw.jw.Raw("\n")
	sw.flush()
}

func (sw *streamWriter) fail(err error) {
	sw.jw.Marshal(StreamRecord{Error: err.Error()})
	sw.jw.Raw("\n")
	sw.flush()
}
