package sqlparse_test

import (
	"testing"

	"tatooine/internal/relstore"
	"tatooine/internal/sqlparse"
	"tatooine/internal/value"
)

// fuzzDB is a small fixed database: two joinable tables with a NULL in
// each column kind.
func fuzzDB(t *testing.T) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase("fuzz")
	for _, q := range []string{
		"CREATE TABLE t (k TEXT PRIMARY KEY, v INT, f FLOAT, b BOOL)",
		"CREATE TABLE u (k TEXT, w TEXT, FOREIGN KEY (k) REFERENCES t(k))",
		"INSERT INTO t VALUES ('a', 1, 1.5, TRUE), ('b', -2, NULL, FALSE), ('c', NULL, 0.0, NULL)",
		"INSERT INTO u VALUES ('a', 'x'), ('a', NULL), ('d', 'y')",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// fuzzParams binds the '?' placeholders of a fuzzed statement; a
// statement with more placeholders fails with a missing-parameter error.
var fuzzParams = []value.Value{
	value.NewString("a"), value.NewInt(1), value.NewFloat(1.5), value.NewNull(),
}

// FuzzParseSQL: SQL text reaches the parser from wire input (POST /batch
// and /cmq), so any input either fails to parse or yields a statement,
// without a panic; an accepted statement then runs on fuzzDB, again
// erring or answering without a panic. Statements with more than three
// joins do not run: each join may multiply the rows, and the property
// is about crashes, not about cross products of the fuzzer's choosing.
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
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := sqlparse.Parse(input)
		if err != nil {
			return
		}
		if sel, ok := stmt.(*sqlparse.SelectStmt); ok && len(sel.Joins) > 3 {
			return
		}
		fuzzDB(t).ExecStmt(stmt, fuzzParams...)
	})
}
