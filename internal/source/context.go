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

// ExecuteWith evaluates q against s under ctx: an already-cancelled
// context refuses the dispatch outright, a ContextExecutor gets the
// context threaded through (so cancellation reaches the wire), and a
// plain source executes as before — it cannot be interrupted, but the
// pre-dispatch check still stops a cancelled query from fanning out
// further probes.
func ExecuteWith(ctx context.Context, s DataSource, q SubQuery, params []value.Value) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ce, ok := s.(ContextExecutor); ok {
		return ce.ExecuteContext(ctx, q, params)
	}
	return s.Execute(q, params)
}

// ExecuteBatchWith evaluates q under ctx once per parameter tuple and
// returns one result per tuple. A BatchProber gets the whole batch (with
// ctx threaded through when it is a ContextBatchProber); any other
// source runs one ExecuteWith per tuple, so a cancelled context stops
// the loop before its next tuple.
func ExecuteBatchWith(ctx context.Context, s DataSource, q SubQuery, paramSets []value.Row) ([]*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch bp := s.(type) {
	case ContextBatchProber:
		return bp.ExecuteBatchContext(ctx, q, paramSets)
	case BatchProber:
		return bp.ExecuteBatch(q, paramSets)
	}
	out := make([]*Result, len(paramSets))
	for i, ps := range paramSets {
		res, err := ExecuteWith(ctx, s, q, ps)
		if err != nil {
			return nil, fmt.Errorf("source: batch tuple %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}
