package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/relstore"
	"tatooine/internal/server"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// ctxProbeSource is a context-aware probe target: each probe waits for
// release (or its context), recording whether it was cancelled.
type ctxProbeSource struct {
	uri     string
	started chan struct{} // one tick per probe entering
	release chan struct{} // closed to let probes answer

	mu        sync.Mutex
	cancelled int
	completed int
}

func (s *ctxProbeSource) URI() string                  { return s.uri }
func (s *ctxProbeSource) Model() source.Model          { return source.RelationalModel }
func (s *ctxProbeSource) Languages() []source.Language { return []source.Language{source.LangSQL} }

func (s *ctxProbeSource) Execute(q source.SubQuery, params []value.Value) (*source.Result, error) {
	return s.ExecuteContext(context.Background(), q, params)
}

func (s *ctxProbeSource) ExecuteContext(ctx context.Context, q source.SubQuery, params []value.Value) (*source.Result, error) {
	s.started <- struct{}{}
	select {
	case <-s.release:
		s.mu.Lock()
		s.completed++
		s.mu.Unlock()
		return &source.Result{Cols: []string{"k", "v"}, Rows: []value.Row{{params[0], value.NewString("v")}}}, nil
	case <-ctx.Done():
		s.mu.Lock()
		s.cancelled++
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

func probeFixture(t *testing.T) (*core.Instance, *ctxProbeSource) {
	t.Helper()
	in := core.NewInstance(nil)
	db := relstore.NewDatabase("seed")
	loadTable(t, db, relstore.Schema{Name: "seed", Columns: []relstore.Column{{Name: "k", Type: value.String}}},
		[]any{"a"})
	if err := in.AddSource(source.NewRelSource("sql://seed", db)); err != nil {
		t.Fatal(err)
	}
	probe := &ctxProbeSource{uri: "sql://probe", started: make(chan struct{}, 8), release: make(chan struct{})}
	if err := in.AddSource(probe); err != nil {
		t.Fatal(err)
	}
	return in, probe
}

const probeQuery = `
QUERY q(?k, ?v)
FROM <sql://seed> OUT(?k) { SELECT k FROM seed }
FROM <sql://probe> IN(?k) OUT(?k, ?v) { SELECT k, v FROM t WHERE k = ? }
`

func postCMQContext(ctx context.Context, t *testing.T, h *server.Server, query string) (int, cmqReply) {
	t.Helper()
	body, err := json.Marshal(server.QueryRequest{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/cmq", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, req)
	var qr cmqReply
	if err := json.NewDecoder(rec.Body).Decode(&qr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return rec.Code, qr
}

// TestRequestCancellationReachesProbes: when the only request for a
// query goes away, its in-flight probe is cancelled instead of running
// to completion with nobody waiting.
func TestRequestCancellationReachesProbes(t *testing.T) {
	in, probe := probeFixture(t)
	// ctxProbeSource has no batches: the context-aware per-tuple path.
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		status, qr := postCMQContext(ctx, t, srv, probeQuery)
		if status == 200 {
			t.Errorf("cancelled request got 200: %+v", qr)
		}
		if !strings.Contains(qr.Error, "context canceled") {
			t.Errorf("cancelled request error = %q", qr.Error)
		}
	}()
	<-probe.started
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return")
	}
	probe.mu.Lock()
	defer probe.mu.Unlock()
	if probe.cancelled != 1 || probe.completed != 0 {
		t.Errorf("probe saw cancelled=%d completed=%d, want 1/0", probe.cancelled, probe.completed)
	}
}

// TestLeaderDisconnectDoesNotPoisonFollowers: a coalesced follower
// keeps the shared execution alive when the single-flight leader's
// client disconnects — the execution is cancelled only when the LAST
// interested request goes away.
func TestLeaderDisconnectDoesNotPoisonFollowers(t *testing.T) {
	in, probe := probeFixture(t)
	srv := server.New(in, server.Options{Exec: core.ExecOptions{Parallel: true}})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		postCMQContext(leaderCtx, t, srv, probeQuery) // outcome irrelevant: the client left
	}()
	<-probe.started // the leader's execution reached the probe

	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		status, qr := postCMQContext(context.Background(), t, srv, probeQuery)
		if status != 200 || len(qr.Rows) != 1 {
			t.Errorf("follower after leader disconnect: status %d, %+v", status, qr)
		}
		if !qr.Cached {
			t.Errorf("follower should share the leader's result (cached=true): %+v", qr)
		}
	}()

	// Wait until the follower joined the flight, then disconnect the
	// leader: with one waiter left the probe must NOT be cancelled.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced onto the leader's flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelLeader()
	time.Sleep(50 * time.Millisecond) // would cancel the probe if the accounting were wrong
	close(probe.release)

	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower did not complete")
	}
	<-leaderDone
	probe.mu.Lock()
	defer probe.mu.Unlock()
	if probe.cancelled != 0 || probe.completed != 1 {
		t.Errorf("probe saw cancelled=%d completed=%d, want 0/1", probe.cancelled, probe.completed)
	}
}
