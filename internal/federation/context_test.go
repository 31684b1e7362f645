package federation

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tatooine/internal/source"
	"tatooine/internal/value"
)

// TestExecuteContextCancelAbortsInFlightRequest proves cancelling the
// query context aborts an in-flight remote probe mid-request instead
// of waiting out the remote: the handler blocks until the *server*
// sees the client disconnect, so the probe can only return promptly if
// the HTTP request really was torn down.
func TestExecuteContextCancelAbortsInFlightRequest(t *testing.T) {
	started := make(chan struct{})
	blocking := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/meta" { // let Dial through
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"uri":"sql://slow","model":"relational","languages":["sql"]}`))
			return
		}
		// Drain the body: the server only watches for a client disconnect
		// (and cancels r.Context()) once the request body is consumed.
		_, _ = io.ReadAll(r.Body)
		close(started)
		<-r.Context().Done() // blocks until the client aborts
	}))
	t.Cleanup(blocking.Close)

	c, err := Dial(blocking.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.ExecuteContext(ctx, source.SubQuery{
			Language: source.LangSQL,
			Text:     "SELECT name FROM departements WHERE code = ?",
		}, []value.Value{value.NewString("75")})
		errCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled probe returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled probe did not abort the in-flight request")
	}
}

// TestEstimateRowsAndCostOverWire checks the /estimate protocol
// carries the richer (rows, cost) estimate end to end, with the
// client adding its round-trip overhead to the cost side only.
func TestEstimateRowsAndCostOverWire(t *testing.T) {
	srv, _ := servedRelSource(t)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	q := source.SubQuery{Language: source.LangSQL, Text: "SELECT name FROM departements WHERE code = ?"}
	_, db := servedRelSource(t)
	wantRows, wantCost := source.NewRelSource("sql://insee", db).Estimate(q, 1)
	rows, cost := c.Estimate(q, 1)
	if rows != wantRows {
		t.Errorf("remote rows estimate = %d, want the source's own %d", rows, wantRows)
	}
	if cost != wantCost+RemoteCostOverhead {
		t.Errorf("remote cost estimate = %d, want %d + overhead %d", cost, wantCost, RemoteCostOverhead)
	}
	if rows == cost {
		t.Errorf("rows (%d) and cost (%d) collapsed: the richer estimate was lost on the wire", rows, cost)
	}
}
