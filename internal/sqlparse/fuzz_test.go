package sqlparse_test

import (
	"bytes"
	"maps"
	"math"
	"slices"
	"testing"

	"tatooine/internal/relstore"
	"tatooine/internal/sqlparse"
	"tatooine/internal/value"
)

// loadTable creates s in db and inserts rows; a cell is a Go string,
// int, float64 or bool, or nil for NULL.
func loadTable(t testing.TB, db *relstore.Database, s relstore.Schema, rows ...[]any) *relstore.Table {
	t.Helper()
	tbl, err := db.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, cells := range rows {
		row := make(value.Row, len(cells))
		for i, c := range cells {
			switch c := c.(type) {
			case string:
				row[i] = value.NewString(c)
			case int:
				row[i] = value.NewInt(int64(c))
			case float64:
				row[i] = value.NewFloat(c)
			case bool:
				row[i] = value.NewBool(c)
			}
		}
		if err := tbl.Insert(row); err != nil {
			t.Fatalf("insert into %s: %v", s.Name, err)
		}
	}
	return tbl
}

// fuzzDB is a small fixed database: two joinable tables with a NULL in
// each column kind.
func fuzzDB(t *testing.T) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase("fuzz")
	loadTable(t, db, relstore.Schema{Name: "t", PrimaryKey: []string{"k"}, Columns: []relstore.Column{
		{Name: "k", Type: value.String}, {Name: "v", Type: value.Int},
		{Name: "f", Type: value.Float}, {Name: "b", Type: value.Bool},
	}},
		[]any{"a", 1, 1.5, true}, []any{"b", -2, nil, false}, []any{"c", nil, 0.0, nil})
	loadTable(t, db, relstore.Schema{Name: "u", Columns: []relstore.Column{
		{Name: "k", Type: value.String}, {Name: "w", Type: value.String},
	}, ForeignKeys: []relstore.ForeignKey{{Column: "k", RefTable: "t", RefColumn: "k"}}},
		[]any{"a", "x"}, []any{"a", nil}, []any{"d", "y"})
	return db
}

// fuzzParams are the tuples a fuzzed statement runs with, as one batch
// and tuple by tuple: a duplicate, a NULL and −0 among them. A statement
// with more than four placeholders fails with a missing-parameter
// error.
var fuzzParams = []value.Row{
	{value.NewString("a"), value.NewInt(1), value.NewFloat(1.5), value.NewNull()},
	{value.NewInt(1), value.NewString("b"), value.NewNull(), value.NewFloat(math.Copysign(0, -1))},
	{value.NewString("a"), value.NewInt(1), value.NewFloat(1.5), value.NewNull()},
}

// FuzzParseSQL: SQL text reaches the parser from wire input (POST /batch
// and /cmq), so any input either fails to parse or yields a SELECT,
// without a panic. An accepted statement then runs on fuzzDB as one
// batch of the fuzzParams tuples and as a batch of one per tuple, again
// erring or answering without a panic, and the two agree: the batch
// fails exactly when some tuple does, with one failing tuple's error,
// and otherwise gives each tuple its own columns and rows, in order. Statements with more than three joins do not run: each join
// may multiply the rows, and the property is about crashes and
// agreement, not about cross products of the fuzzer's choosing.
// Whatever the input, fuzzDB keeps its tables and row counts: SQL text
// only reads. The INSERT and CREATE TABLE seeds must be refused.
func FuzzParseSQL(f *testing.F) {
	for _, seed := range []string{
		"SELECT dept, taux FROM chomage WHERE dept = ? AND annee = 2015",
		"SELECT k, v FROM t WHERE k = ? AND v = 1",
		"SELECT t.k, u.w FROM t JOIN u ON t.k = u.k WHERE t.k = ?",
		"SELECT DISTINCT k FROM t LEFT OUTER JOIN u ON t.k = u.k ORDER BY w DESC LIMIT 2 OFFSET 1",
		"SELECT LOWER(k), ABS(v) * 2, COALESCE(f, 0) FROM t WHERE k LIKE 'a%' OR v BETWEEN -3 AND ? ",
		"SELECT * FROM t WHERE v IS NOT NULL AND k NOT IN ('b', ?) AND NOT b = TRUE",
		"SELECT k FROM t WHERE v / 0 > 1",
		"INSERT INTO t (k, v) VALUES ('e', ?), ('f', 2)",
		"CREATE TABLE x (a VARCHAR(10) PRIMARY KEY, b TIMESTAMP, c REAL)",
		"SELECT COUNT(*) FROM t GROUP BY k HAVING SUM(v) > 1",
		"SELECT k FROM t WHERE k = 'it''s' -- comment",
		"SELECT 1.5e3, -v FROM t;",
		"SELECT k FROM t WHERE v / 0 > 1 AND k = ?",
		"SELECT k FROM t WHERE k = ? LIMIT 1",
	} {
		f.Add(seed)
	}
	want := map[string]int{"t": 3, "u": 3}
	f.Fuzz(func(t *testing.T, input string) {
		db := fuzzDB(t)
		sel, err := sqlparse.ParseSelect(input)
		if err == nil && len(sel.Joins) <= 3 {
			cols, batch, err := db.ExecBatch(sel, fuzzParams)
			var tupleErrs []string
			for i, ps := range fuzzParams {
				oneCols, one, err := db.ExecBatch(sel, []value.Row{ps})
				if err != nil {
					tupleErrs = append(tupleErrs, err.Error())
					continue
				}
				if batch != nil && (!slices.Equal(cols, oneCols) || !sameRows(batch[i], one[0])) {
					t.Errorf("%q tuple %d: batch gave %v %v, alone %v %v", input, i, cols, batch[i], oneCols, one[0])
				}
			}
			if (err != nil) != (len(tupleErrs) > 0) || err != nil && !slices.Contains(tupleErrs, err.Error()) {
				t.Errorf("%q: batch error %v, tuple errors %q", input, err, tupleErrs)
			}
		}
		got := map[string]int{}
		for _, tbl := range db.Tables() {
			got[tbl.Name()] = tbl.RowCount()
		}
		if !maps.Equal(got, want) {
			t.Errorf("%q changed the database: tables %v, want %v", input, got, want)
		}
	})
}

// sameRows reports whether a and b hold the same rows in the same
// order, value for value as the row codec writes them.
func sameRows(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(value.AppendRow(nil, a[i]), value.AppendRow(nil, b[i])) {
			return false
		}
	}
	return true
}
