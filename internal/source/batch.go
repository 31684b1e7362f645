package source

import "tatooine/internal/value"

// BatchProber is the optional capability of a DataSource that can
// evaluate one sub-query for many parameter tuples in a single native
// round trip (one pass over each table for SQL, multi-binding BGP
// evaluation, one pass over the index for search, one HTTP request for
// a federation client). The executor's bind join chunks its distinct
// outer tuples and dispatches whole chunks here, turning O(bindings)
// source round trips into O(bindings / batch).
type BatchProber interface {
	DataSource
	// ExecuteBatch evaluates q once per parameter tuple and returns one
	// Result per tuple, aligned with paramSets. Each per-tuple Result
	// must equal what Execute(q, paramSets[i]) would return (row order
	// within a tuple's result may differ only where Execute's own order
	// is unspecified). A sub-query the source cannot push down as one
	// batch is still answered, tuple by tuple.
	ExecuteBatch(q SubQuery, paramSets []value.Row) ([]*Result, error)
}

// CanBatch reports whether a batch sent to s reaches a source that
// takes it whole: s must implement BatchProber and any decorator chain
// (Unwrap) must bottom out in a source that does too — a Cached wrapper
// always has ExecuteBatch, but over a plain source its misses still run
// one by one. The executor uses it only to size its chunks.
func CanBatch(s DataSource) bool {
	if _, ok := s.(BatchProber); !ok {
		return false
	}
	type unwrapper interface{ Unwrap() DataSource }
	if u, ok := s.(unwrapper); ok {
		return CanBatch(u.Unwrap())
	}
	return true
}

// single unwraps the answer of a batch of one tuple.
func single(results []*Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return results[0], nil
}
