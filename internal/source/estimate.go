package source

// Estimator is the optional capability of a DataSource that can
// produce a two-dimensional cost estimate for a sub-query: the
// expected result cardinality (rows) and an abstract total execution
// effort (cost — access work plus rows produced, in comparable units
// across sources; remote sources add their round-trip overhead).
// The planner orders atoms by rows (selectivity-first) and uses cost
// to break ties and to render plans. It asks an Estimator only for
// sub-queries the source's digest cannot estimate.
type Estimator interface {
	DataSource
	// Estimate returns the expected result cardinality and the total
	// execution cost of q with numParams bound parameters. Negative
	// values mean unknown.
	Estimate(q SubQuery, numParams int) (rows, cost int)
}

// EstimateOf returns s's (rows, cost) estimate, or (-1, -1) — unknown —
// when s is not an Estimator.
func EstimateOf(s DataSource, q SubQuery, numParams int) (rows, cost int) {
	if e, ok := s.(Estimator); ok {
		return e.Estimate(q, numParams)
	}
	return -1, -1
}
