package source

import (
	"fmt"

	"tatooine/internal/relstore"
	"tatooine/internal/sqlparse"
	"tatooine/internal/value"
)

// RelSource exposes a relstore.Database as a DataSource accepting the
// SQL subset. It stands in for curated relational sources such as the
// INSEE statistics tables of the paper.
type RelSource struct {
	uri string
	db  *relstore.Database
}

// NewRelSource wraps db.
func NewRelSource(uri string, db *relstore.Database) *RelSource {
	return &RelSource{uri: uri, db: db}
}

// DB returns the underlying database.
func (s *RelSource) DB() *relstore.Database { return s.db }

// URI implements DataSource.
func (s *RelSource) URI() string { return s.uri }

// Model implements DataSource.
func (s *RelSource) Model() Model { return RelationalModel }

// Languages implements DataSource.
func (s *RelSource) Languages() []Language { return []Language{LangSQL} }

// Execute implements DataSource: params substitute '?' placeholders in
// statement order.
func (s *RelSource) Execute(q SubQuery, params []value.Value) (*Result, error) {
	if q.Language != LangSQL {
		return nil, fmt.Errorf("source %s: unsupported language %q", s.uri, q.Language)
	}
	res, err := s.db.Exec(q.Text, params...)
	if err != nil {
		return nil, err
	}
	out := &Result{Cols: res.Columns, Rows: res.Rows}
	return out, nil
}

// ExecuteBatch implements BatchProber by IN-list pushdown: each
// `col = ?` conjunct is rewritten into `col IN (v1, v2, ...)` over the
// distinct values that parameter takes across the batch, the param
// columns are appended to the projection, and the single native result
// is split back per tuple by equality on those columns. The rewrite is
// exact — the IN lists select a superset (a cross product when several
// parameters batch together) and the split keeps only rows matching
// the tuple on every parameter — so each per-tuple Result is identical
// to a per-probe Execute. Shapes whose semantics would change under
// batching (LIMIT/OFFSET, DISTINCT, grouping/aggregation, '?' outside
// a top-level `col = ?` conjunct) return ErrBatchUnsupported.
func (s *RelSource) ExecuteBatch(q SubQuery, paramSets []value.Row) (results []*Result, err error) {
	if q.Language != LangSQL {
		return nil, fmt.Errorf("source %s: unsupported language %q", s.uri, q.Language)
	}
	if len(paramSets) == 0 {
		return nil, nil
	}
	stmt, err := sqlparse.ParseSelect(q.Text)
	if err != nil {
		return nil, ErrBatchUnsupported
	}
	nParams := len(paramSets[0])
	for _, ps := range paramSets {
		if len(ps) != nParams {
			return nil, fmt.Errorf("source %s: ragged batch parameter tuples", s.uri)
		}
	}
	if !rewriteInList(stmt, nParams, paramSets) {
		return nil, ErrBatchUnsupported
	}
	res, err := s.db.ExecStmt(stmt)
	if err != nil {
		return nil, err
	}
	origN := len(res.Columns) - nParams
	cols := res.Columns[:origN]
	// Split in one pass: bucket rows by their param-column values.
	// value.Key is Equal-consistent for non-null values (ints and
	// integral floats share keys), and nulls — which Equal never
	// matches — are excluded from both sides, so the bucketed split
	// returns exactly what per-tuple value.Equal filtering would.
	buckets := make(map[string][]value.Row, len(paramSets))
	for _, row := range res.Rows {
		if value.Row(row[origN:]).HasNull() {
			continue
		}
		k := value.Row(row[origN:]).Key()
		buckets[k] = append(buckets[k], row[:origN])
	}
	out := make([]*Result, len(paramSets))
	for i, ps := range paramSets {
		r := &Result{Cols: cols}
		if !ps.HasNull() {
			r.Rows = buckets[ps.Key()]
		}
		out[i] = r
	}
	return out, nil
}

// rewriteInList rewrites stmt in place for batched evaluation: every
// '?' must appear as a top-level AND conjunct `col = ?` in WHERE; each
// such conjunct becomes `col IN (...)` over the batch's distinct
// values and the referenced columns are appended to the projection.
// It reports false when the statement shape cannot be batched exactly.
func rewriteInList(stmt *sqlparse.SelectStmt, nParams int, paramSets []value.Row) bool {
	if stmt.Star || stmt.Distinct || stmt.Limit >= 0 || stmt.Offset > 0 ||
		len(stmt.GroupBy) > 0 || stmt.Having != nil {
		return false
	}
	for _, it := range stmt.Columns {
		if sqlparse.HasAggregate(it.Expr) || sqlparse.CountParams(it.Expr) > 0 {
			return false
		}
	}
	for _, j := range stmt.Joins {
		if sqlparse.CountParams(j.On) > 0 {
			return false
		}
	}
	for _, ob := range stmt.OrderBy {
		if sqlparse.CountParams(ob.Expr) > 0 {
			return false
		}
	}
	if nParams == 0 || stmt.Where == nil {
		return nParams == 0
	}
	conjuncts := splitAnd(stmt.Where)
	paramCols := make([]*sqlparse.ColumnRef, nParams)
	seen := 0
	for ci, c := range conjuncts {
		be, isEq := c.(*sqlparse.BinaryExpr)
		if !isEq || be.Op != sqlparse.OpEq {
			if sqlparse.CountParams(c) > 0 {
				return false
			}
			continue
		}
		var p *sqlparse.Param
		var col *sqlparse.ColumnRef
		switch l := be.Left.(type) {
		case *sqlparse.Param:
			p = l
			col, _ = be.Right.(*sqlparse.ColumnRef)
		case *sqlparse.ColumnRef:
			col = l
			p, _ = be.Right.(*sqlparse.Param)
		}
		if p == nil {
			if sqlparse.CountParams(c) > 0 {
				return false
			}
			continue
		}
		if col == nil || p.Index >= nParams || paramCols[p.Index] != nil {
			return false
		}
		paramCols[p.Index] = col
		seen++
		// Distinct values this parameter takes across the batch.
		dedup := make(map[string]struct{}, len(paramSets))
		var list []sqlparse.Expr
		for _, ps := range paramSets {
			v := ps[p.Index]
			k := v.Key()
			if _, dup := dedup[k]; dup {
				continue
			}
			dedup[k] = struct{}{}
			list = append(list, &sqlparse.Literal{Val: v})
		}
		conjuncts[ci] = &sqlparse.InExpr{Needle: col, List: list}
	}
	if seen != nParams {
		return false
	}
	stmt.Where = joinAnd(conjuncts)
	items := make([]sqlparse.SelectItem, 0, len(stmt.Columns)+nParams)
	items = append(items, stmt.Columns...)
	for _, col := range paramCols {
		items = append(items, sqlparse.SelectItem{Expr: col})
	}
	stmt.Columns = items
	return true
}

// splitAnd flattens a top-level AND tree into its conjuncts.
func splitAnd(e sqlparse.Expr) []sqlparse.Expr {
	if be, ok := e.(*sqlparse.BinaryExpr); ok && be.Op == sqlparse.OpAnd {
		return append(splitAnd(be.Left), splitAnd(be.Right)...)
	}
	return []sqlparse.Expr{e}
}

// joinAnd rebuilds an AND tree from conjuncts.
func joinAnd(conjuncts []sqlparse.Expr) sqlparse.Expr {
	out := conjuncts[0]
	for _, c := range conjuncts[1:] {
		out = &sqlparse.BinaryExpr{Op: sqlparse.OpAnd, Left: out, Right: c}
	}
	return out
}

// Estimate implements Estimator: rows is the selectivity-discounted
// result cardinality (the quantity bind joins and intermediate
// relations grow with), cost adds the scan work — the rows the engine
// must walk before predicates discard them — so a highly selective
// predicate over a huge table is cheap to *join with* but not free to
// *run*.
func (s *RelSource) Estimate(q SubQuery, numParams int) (rows, cost int) {
	stmt, err := sqlparse.ParseSelect(q.Text)
	if err != nil {
		return -1, -1
	}
	t := s.db.Table(stmt.From.Name)
	if t == nil {
		return -1, -1
	}
	est := t.RowCount()
	for _, j := range stmt.Joins {
		if jt := s.db.Table(j.Table.Name); jt != nil && jt.RowCount() > 0 {
			// Equi-joins keep cardinality near the larger side.
			if jt.RowCount() > est {
				est = jt.RowCount()
			}
		}
	}
	scanned := est
	if stmt.Where != nil {
		sel := selectivityFactor(stmt.Where)
		est /= sel
		if est < 1 {
			est = 1
		}
	}
	if stmt.Limit >= 0 && stmt.Limit < est {
		est = stmt.Limit
	}
	return est, scanned + est
}

// selectivityFactor estimates how much a predicate divides cardinality:
// 10 per equality conjunct, 3 per range conjunct.
func selectivityFactor(e sqlparse.Expr) int {
	switch x := e.(type) {
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case sqlparse.OpAnd:
			f := selectivityFactor(x.Left) * selectivityFactor(x.Right)
			if f > 1000 {
				f = 1000
			}
			return f
		case sqlparse.OpEq:
			return 10
		case sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe, sqlparse.OpLike:
			return 3
		case sqlparse.OpOr:
			return 2
		}
	case *sqlparse.InExpr:
		return 5
	case *sqlparse.BetweenExpr:
		return 3
	}
	return 1
}
