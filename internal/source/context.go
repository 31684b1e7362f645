package source

import (
	"context"
	"fmt"

	"tatooine/internal/value"
)

// ContextExecutor is the optional capability of a DataSource whose
// sub-query evaluation can be bound to a context: cancelling the
// context aborts the in-flight evaluation (for a federation client,
// the underlying HTTP request) instead of letting it run to
// completion with nobody waiting for the answer. In-process sources
// generally answer too fast to bother; the capability matters for
// anything that crosses the network.
type ContextExecutor interface {
	DataSource
	// ExecuteContext is Execute bound to ctx.
	ExecuteContext(ctx context.Context, q SubQuery, params []value.Value) (*Result, error)
}

// ContextBatchProber is ContextExecutor's batched sibling: a
// BatchProber whose batch dispatch can be cancelled mid-flight.
type ContextBatchProber interface {
	BatchProber
	// ExecuteBatchContext is ExecuteBatch bound to ctx.
	ExecuteBatchContext(ctx context.Context, q SubQuery, paramSets []value.Row) ([]*Result, error)
}

// ExecuteBatchWith evaluates q under ctx once per parameter tuple and
// returns one result per tuple. It is the one way into a source: a scan
// is a batch of one empty tuple and a probe a batch of one. An
// already-cancelled context refuses the dispatch outright. A
// BatchProber gets the whole batch (with ctx threaded through when it
// is a ContextBatchProber); any other source runs ExecuteSerially. The
// answer is checked here, for every caller: a wrong number of results
// or a nil result is an error.
func ExecuteBatchWith(ctx context.Context, s DataSource, q SubQuery, paramSets []value.Row) ([]*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var results []*Result
	var err error
	switch bp := s.(type) {
	case ContextBatchProber:
		results, err = bp.ExecuteBatchContext(ctx, q, paramSets)
	case BatchProber:
		results, err = bp.ExecuteBatch(q, paramSets)
	default:
		results, err = ExecuteSerially(ctx, s, q, paramSets)
	}
	if err != nil {
		return nil, err
	}
	if len(results) != len(paramSets) {
		return nil, fmt.Errorf("source %s: %d results for %d tuples", s.URI(), len(results), len(paramSets))
	}
	for i, res := range results {
		if res == nil {
			return nil, fmt.Errorf("source %s: a nil result for tuple %d", s.URI(), i)
		}
	}
	return results, nil
}

// ExecuteSerially evaluates q once per tuple — the reference semantics
// of ExecuteBatch. It checks ctx before each tuple, so a cancelled
// query stops the loop, and threads ctx into a ContextExecutor.
// ExecuteBatchWith answers a source that does not batch with it.
func ExecuteSerially(ctx context.Context, s DataSource, q SubQuery, paramSets []value.Row) ([]*Result, error) {
	ce, _ := s.(ContextExecutor)
	out := make([]*Result, len(paramSets))
	for i, ps := range paramSets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var res *Result
		var err error
		if ce != nil {
			res, err = ce.ExecuteContext(ctx, q, ps)
		} else {
			res, err = s.Execute(q, ps)
		}
		if err != nil {
			return nil, fmt.Errorf("source: batch tuple %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}
