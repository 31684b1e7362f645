package federation

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tatooine/internal/source"
	"tatooine/internal/value"
)

// sleepySource is a plain source (no batching, no context) whose every
// Execute takes 20 ms.
type sleepySource struct{ ran atomic.Int64 }

func (s *sleepySource) URI() string                  { return "sql://sleepy" }
func (s *sleepySource) Model() source.Model          { return source.RelationalModel }
func (s *sleepySource) Languages() []source.Language { return []source.Language{source.LangSQL} }
func (s *sleepySource) Execute(source.SubQuery, []value.Value) (*source.Result, error) {
	time.Sleep(20 * time.Millisecond)
	s.ran.Add(1)
	return &source.Result{Cols: []string{"v"}}, nil
}

// TestBatchStopsWhenCallerGoes: a /batch over a source that does not
// batch runs one tuple at a time, and stops once its caller has gone
// instead of running every tuple for nobody.
func TestBatchStopsWhenCallerGoes(t *testing.T) {
	src := &sleepySource{}
	srv := httptest.NewServer(Handler(src))
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([]value.Row, 20)
	for i := range sets {
		sets[i] = value.Row{value.NewInt(int64(i))}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = c.ExecuteBatchContext(ctx, source.SubQuery{Language: source.LangSQL, Text: "SELECT v FROM t WHERE v = ?"}, sets)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	srv.Close() // waits for the handler to return
	if n := src.ran.Load(); n >= int64(len(sets)) {
		t.Errorf("source ran %d of %d tuples after its caller had gone", n, len(sets))
	}
}
