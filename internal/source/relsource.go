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
// statement order. It is ExecuteBatch for one tuple.
func (s *RelSource) Execute(q SubQuery, params []value.Value) (*Result, error) {
	return single(s.ExecuteBatch(q, []value.Row{params}))
}

// ExecuteBatch implements BatchProber: the SQL text is parsed once and
// relstore's ExecBatch answers every parameter tuple in one pass over
// each table; each tuple's rows become its result as they are. Text
// that is not one SELECT is refused once, with ParseSelect's error.
func (s *RelSource) ExecuteBatch(q SubQuery, paramSets []value.Row) ([]*Result, error) {
	if q.Language != LangSQL {
		return nil, fmt.Errorf("source %s: unsupported language %q", s.uri, q.Language)
	}
	stmt, err := sqlparse.ParseSelect(q.Text)
	if err != nil {
		return nil, err
	}
	cols, rows, err := s.db.ExecBatch(stmt, paramSets)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(rows))
	for i := range rows {
		out[i] = &Result{Cols: cols, Rows: rows[i]}
	}
	return out, nil
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
