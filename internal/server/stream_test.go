package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/relstore"
	"tatooine/internal/server"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// multiKeyFixture seeds an instance with several keys and a local
// relational probe target, so a streamed bind join produces several
// row batches.
func multiKeyFixture(t *testing.T, keys int) *core.Instance {
	t.Helper()
	in := core.NewInstance(nil)
	seed := relstore.NewDatabase("seed")
	if _, err := seed.Exec("CREATE TABLE seed (k TEXT)"); err != nil {
		t.Fatal(err)
	}
	probe := relstore.NewDatabase("probe")
	if _, err := probe.Exec("CREATE TABLE t (k TEXT, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if _, err := seed.Exec(fmt.Sprintf("INSERT INTO seed VALUES ('k%02d')", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := probe.Exec(fmt.Sprintf("INSERT INTO t VALUES ('k%02d', 'v%02d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.AddSource(source.NewRelSource("sql://seed", seed)); err != nil {
		t.Fatal(err)
	}
	if err := in.AddSource(source.NewRelSource("sql://probe", probe)); err != nil {
		t.Fatal(err)
	}
	return in
}

// postStream POSTs a streamed /cmq request and decodes the NDJSON
// response line by line.
func postStream(ctx context.Context, t *testing.T, srv *server.Server, query string, viaAccept bool) (int, string, []server.StreamRecord) {
	t.Helper()
	req := server.QueryRequest{Query: query, Stream: !viaAccept}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/cmq", bytes.NewReader(body)).WithContext(ctx)
	r.Header.Set("Content-Type", "application/json")
	if viaAccept {
		r.Header.Set("Accept", "application/x-ndjson")
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, r)
	var records []server.StreamRecord
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var sr server.StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &sr); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		records = append(records, sr)
	}
	return rec.Code, rec.Header().Get("Content-Type"), records
}

// splitRecords classifies a streamed response into its framing parts
// and asserts the sequencing: header first, rows in the middle,
// exactly one terminator (trailer or error) last.
func splitRecords(t *testing.T, records []server.StreamRecord) (cols []string, rows []value.Row, trailer, errRec *server.StreamRecord) {
	t.Helper()
	if len(records) == 0 {
		t.Fatal("empty stream")
	}
	if records[0].Cols == nil {
		t.Fatalf("first record is not the header: %+v", records[0])
	}
	cols = records[0].Cols
	last := records[len(records)-1]
	switch {
	case last.Stats != nil:
		trailer = &last
	case last.Error != "":
		errRec = &last
	default:
		t.Fatalf("stream does not end with a trailer or error record: %+v", last)
	}
	for _, rec := range records[1 : len(records)-1] {
		if rec.Row == nil {
			t.Fatalf("non-row record in the middle of the stream: %+v", rec)
		}
		rows = append(rows, rec.Row)
	}
	return cols, rows, trailer, errRec
}

const streamedQuery = `
QUERY q(?k, ?v)
FROM <sql://seed> OUT(?k) { SELECT k FROM seed }
FROM <sql://probe> IN(?k) OUT(?k, ?v) { SELECT k, v FROM t WHERE k = ? }
`

// TestStreamCMQ: the NDJSON response carries the same rows as the JSON
// path — header, one record per row, stats trailer — whether requested
// through the body flag or the Accept header, and the in-flight gauge
// returns to zero.
func TestStreamCMQ(t *testing.T) {
	const keys = 9
	for _, viaAccept := range []bool{false, true} {
		in := multiKeyFixture(t, keys)
		srv := server.New(in, server.Options{
			ResultCacheSize: -1, // no cache: both requests must execute
			Exec:            core.ExecOptions{Parallel: true, ProbeBatch: 1},
		})
		status, ctype, records := postStream(context.Background(), t, srv, streamedQuery, viaAccept)
		if status != 200 || ctype != "application/x-ndjson" {
			t.Fatalf("viaAccept=%v: status %d, content-type %q", viaAccept, status, ctype)
		}
		cols, rows, trailer, errRec := splitRecords(t, records)
		if errRec != nil {
			t.Fatalf("stream failed: %q", errRec.Error)
		}
		if want := []string{"k", "v"}; len(cols) != 2 || cols[0] != want[0] || cols[1] != want[1] {
			t.Fatalf("cols = %v, want %v", cols, want)
		}
		if len(rows) != keys {
			t.Fatalf("streamed %d rows, want %d", len(rows), keys)
		}
		if trailer.Cached == nil || *trailer.Cached {
			t.Fatalf("trailer cached = %+v, want explicit false", trailer.Cached)
		}
		if trailer.Stats.SubQueries == 0 {
			t.Fatalf("trailer stats report no sub-queries: %+v", trailer.Stats)
		}
		st := srv.Stats()
		if st.Streamed != 1 || st.InFlightStreams != 0 {
			t.Fatalf("stats streamed=%d inFlight=%d, want 1/0", st.Streamed, st.InFlightStreams)
		}
		if st.SubQueries == 0 {
			t.Fatalf("server sub-query counter not updated from the stream trailer: %+v", st)
		}
	}
}

// TestStreamMatchesJSONRows: row multisets of the streamed and the
// plain JSON responses are identical.
func TestStreamMatchesJSONRows(t *testing.T) {
	in := multiKeyFixture(t, 7)
	srv := server.New(in, server.Options{
		ResultCacheSize: -1,
		Exec:            core.ExecOptions{Parallel: true, ProbeBatch: 1},
	})
	status, qr := postCMQContext(context.Background(), t, srv, streamedQuery)
	if status != 200 {
		t.Fatalf("JSON path: status %d %+v", status, qr)
	}
	_, _, records := postStream(context.Background(), t, srv, streamedQuery, false)
	_, rows, _, errRec := splitRecords(t, records)
	if errRec != nil {
		t.Fatalf("stream failed: %q", errRec.Error)
	}
	key := func(rs []value.Row) map[string]int {
		m := make(map[string]int)
		for _, r := range rs {
			m[r.Key()]++
		}
		return m
	}
	got, want := key(rows), key(qr.Rows)
	if len(got) != len(want) {
		t.Fatalf("row multiset diverges: %v vs %v", got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("row %q: streamed %d, JSON %d", k, got[k], n)
		}
	}
}

// TestStreamCacheHitReplays: a result cached by the JSON path replays
// over NDJSON in the same framing, with the trailer marking it cached.
func TestStreamCacheHitReplays(t *testing.T) {
	in := multiKeyFixture(t, 5)
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true, ProbeBatch: 1}})
	if status, qr := postCMQContext(context.Background(), t, srv, streamedQuery); status != 200 {
		t.Fatalf("priming request: status %d %+v", status, qr)
	}
	_, _, records := postStream(context.Background(), t, srv, streamedQuery, false)
	_, rows, trailer, errRec := splitRecords(t, records)
	if errRec != nil {
		t.Fatalf("replay failed: %q", errRec.Error)
	}
	if len(rows) != 5 {
		t.Fatalf("replayed %d rows, want 5", len(rows))
	}
	if trailer.Cached == nil || !*trailer.Cached {
		t.Fatalf("trailer cached = %+v, want true", trailer.Cached)
	}
	if st := srv.Stats(); st.CacheHits != 1 || st.InFlightStreams != 0 {
		t.Fatalf("stats hits=%d inFlight=%d, want 1/0", st.CacheHits, st.InFlightStreams)
	}
}

// dyingSource answers its first probe and fails every later one — a
// remote source dying mid-query.
type dyingSource struct {
	uri   string
	calls atomic.Int64
}

func (s *dyingSource) URI() string                  { return s.uri }
func (s *dyingSource) Model() source.Model          { return source.RelationalModel }
func (s *dyingSource) Languages() []source.Language { return []source.Language{source.LangSQL} }

func (s *dyingSource) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	return s.ExecuteContext(context.Background(), q, params)
}

func (s *dyingSource) ExecuteContext(ctx context.Context, q source.SubQuery, params []value.Value) (*source.Result, error) {
	if s.calls.Add(1) > 1 {
		return nil, errors.New("remote went away")
	}
	return &source.Result{Cols: []string{"k", "v"}, Rows: []value.Row{{params[0], value.NewString("v")}}}, nil
}

// TestStreamMidQueryRemoteDeath: when a remote dies after the first
// batch is already on the wire, the client receives the emitted rows
// followed by a terminal error record (the 200 status is long since
// sent), and the server leaks no in-flight stream.
func TestStreamMidQueryRemoteDeath(t *testing.T) {
	in := core.NewInstance(nil)
	seed := relstore.NewDatabase("seed")
	if _, err := seed.Exec("CREATE TABLE seed (k TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := seed.Exec(fmt.Sprintf("INSERT INTO seed VALUES ('k%d')", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.AddSource(source.NewRelSource("sql://seed", seed)); err != nil {
		t.Fatal(err)
	}
	if err := in.AddSource(&dyingSource{uri: "sql://probe"}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(in, server.Options{
		ResultCacheSize: -1,
		// Fan-out 1, per-tuple probes: the first probe's row is on the
		// wire before the second probe fails.
		Exec: core.ExecOptions{Parallel: true, ProbeBatch: 1, MaxFanout: 1},
	})
	status, _, records := postStream(context.Background(), t, srv, streamedQuery, false)
	if status != 200 {
		t.Fatalf("status %d, want 200 (error struck after the status line)", status)
	}
	_, rows, trailer, errRec := splitRecords(t, records)
	if trailer != nil || errRec == nil {
		t.Fatalf("stream must end with an error record, got trailer=%+v err=%+v", trailer, errRec)
	}
	if !strings.Contains(errRec.Error, "remote went away") {
		t.Fatalf("terminal error = %q, want the remote's failure", errRec.Error)
	}
	if len(rows) == 0 {
		t.Fatal("rows emitted before the failure must reach the client")
	}
	st := srv.Stats()
	if st.InFlightStreams != 0 {
		t.Fatalf("in-flight streams leaked: %+v", st)
	}
	if st.Errors == 0 {
		t.Fatalf("mid-stream failure not counted: %+v", st)
	}
}

// TestStreamClientDisconnectCancelsPipeline: the request context is
// the pipeline context — a client going away mid-stream cancels the
// in-flight probes instead of letting the query run for nobody.
func TestStreamClientDisconnectCancelsPipeline(t *testing.T) {
	in, probe := probeFixture(t)
	srv := server.New(in, server.Options{
		ResultCacheSize: -1,
		Exec:            core.ExecOptions{Parallel: true, ProbeBatch: 1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, records := postStream(ctx, t, srv, probeQuery, false)
		if len(records) == 0 || records[len(records)-1].Error == "" {
			t.Errorf("disconnected stream should end with an error record: %+v", records)
		}
	}()
	<-probe.started
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("disconnected stream did not unwind")
	}
	probe.mu.Lock()
	defer probe.mu.Unlock()
	if probe.cancelled != 1 || probe.completed != 0 {
		t.Errorf("probe saw cancelled=%d completed=%d, want 1/0", probe.cancelled, probe.completed)
	}
	if st := srv.Stats(); st.InFlightStreams != 0 {
		t.Fatalf("in-flight streams leaked: %+v", st)
	}
}
