package relstore

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"tatooine/internal/sqlparse"
	"tatooine/internal/value"
)

// loadTable creates s in db and inserts rows; a cell is a Go string,
// int, float64 or bool, or nil for NULL.
func loadTable(t testing.TB, db *Database, s Schema, rows ...[]any) *Table {
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

// result is one statement's answer for one tuple.
type result struct {
	Columns []string
	Rows    []value.Row
}

// exec parses query and runs it as a batch of one tuple.
func exec(db *Database, query string, params ...value.Value) (*result, error) {
	stmt, err := sqlparse.ParseSelect(query)
	if err != nil {
		return nil, err
	}
	cols, rows, err := db.ExecBatch(stmt, []value.Row{params})
	if err != nil {
		return nil, err
	}
	return &result{cols, rows[0]}, nil
}

// electionsDB builds a small INSEE/Ministry-of-Interior style database:
// departements, election results, and agricultural production (the
// paper's running relational examples).
func electionsDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("insee")
	loadTable(t, db, Schema{Name: "departements", PrimaryKey: []string{"code"}, Columns: []Column{
		{Name: "code", Type: value.String}, {Name: "name", Type: value.String}, {Name: "population", Type: value.Int},
	}},
		[]any{"75", "Paris", 2187526},
		[]any{"92", "Hauts-de-Seine", 1609306},
		[]any{"29", "Finistere", 909028})
	loadTable(t, db, Schema{Name: "resultats", Columns: []Column{
		{Name: "dept", Type: value.String}, {Name: "year", Type: value.Int},
		{Name: "party", Type: value.String}, {Name: "votes", Type: value.Int},
	},
		PrimaryKey:  []string{"dept", "year", "party"},
		ForeignKeys: []ForeignKey{{Column: "dept", RefTable: "departements", RefColumn: "code"}},
	},
		[]any{"75", 2015, "PS", 350000}, []any{"75", 2015, "LR", 420000},
		[]any{"92", 2015, "PS", 210000}, []any{"92", 2015, "LR", 380000},
		[]any{"29", 2015, "PS", 180000}, []any{"29", 2015, "LR", 120000},
		[]any{"75", 2012, "PS", 500000}, []any{"75", 2012, "LR", 390000})
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := electionsDB(t)
	res, err := exec(db, "SELECT name, population FROM departements WHERE code = '75'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Paris" {
		t.Errorf("rows: %+v", res.Rows)
	}
	if res.Columns[0] != "name" || res.Columns[1] != "population" {
		t.Errorf("columns: %v", res.Columns)
	}
}

func TestInsertTypeChecking(t *testing.T) {
	tbl := loadTable(t, NewDatabase("d"), Schema{Name: "t", Columns: []Column{
		{Name: "n", Type: value.Int}, {Name: "s", Type: value.String},
	}})
	// String that parses as int is coerced.
	if err := tbl.Insert(value.Row{value.NewString("42"), value.NewString("ok")}); err != nil {
		t.Errorf("coercible insert: %v", err)
	}
	tbl.Scan(func(r value.Row) bool {
		if r[0].Kind() != value.Int || r[0].Int() != 42 {
			t.Errorf("coerced cell: %v (%v)", r[0], r[0].Kind())
		}
		return true
	})
	// Non-numeric string into INT fails.
	if err := tbl.Insert(value.Row{value.NewString("abc"), value.NewString("ok")}); err == nil {
		t.Error("expected type error")
	}
	// Wrong arity fails.
	if err := tbl.Insert(value.Row{value.NewInt(1)}); err == nil {
		t.Error("expected arity error")
	}
}

func TestPrimaryKeyEnforced(t *testing.T) {
	db := electionsDB(t)
	dept := value.Row{value.NewString("75"), value.NewString("Dup"), value.NewInt(1)}
	if err := db.Table("departements").Insert(dept); err == nil {
		t.Error("duplicate PK accepted")
	}
	// Composite PK: same dept+year different party is fine.
	res := db.Table("resultats")
	eelv := value.Row{value.NewString("75"), value.NewInt(2015), value.NewString("EELV"), value.NewInt(90000)}
	if err := res.Insert(eelv); err != nil {
		t.Errorf("composite PK false positive: %v", err)
	}
	ps := value.Row{value.NewString("75"), value.NewInt(2015), value.NewString("PS"), value.NewInt(1)}
	if err := res.Insert(ps); err == nil {
		t.Error("composite PK duplicate accepted")
	}
}

func TestForeignKeyValidation(t *testing.T) {
	_, err := NewDatabase("d").CreateTable(Schema{
		Name:        "a",
		Columns:     []Column{{Name: "x", Type: value.Int}},
		ForeignKeys: []ForeignKey{{Column: "x", RefTable: "missing", RefColumn: "y"}},
	})
	if err == nil {
		t.Error("FK to missing table accepted")
	}
}

func TestWherePredicates(t *testing.T) {
	db := electionsDB(t)
	cases := []struct {
		q    string
		want int
	}{
		{"SELECT * FROM resultats WHERE year = 2015", 6},
		{"SELECT * FROM resultats WHERE year = 2015 AND party = 'PS'", 3},
		{"SELECT * FROM resultats WHERE votes > 300000", 5},
		{"SELECT * FROM resultats WHERE votes BETWEEN 100000 AND 200000", 2},
		{"SELECT * FROM resultats WHERE party IN ('PS', 'EELV')", 4},
		{"SELECT * FROM resultats WHERE party NOT IN ('PS')", 4},
		{"SELECT * FROM departements WHERE name LIKE 'P%'", 1},
		{"SELECT * FROM departements WHERE name LIKE '%e%'", 2},
		{"SELECT * FROM departements WHERE name LIKE '_aris'", 1},
		{"SELECT * FROM resultats WHERE NOT year = 2015", 2},
		{"SELECT * FROM resultats WHERE year = 2012 OR party = 'LR'", 5},
	}
	for _, c := range cases {
		res, err := exec(db, c.q)
		if err != nil {
			t.Errorf("%q: %v", c.q, err)
			continue
		}
		if len(res.Rows) != c.want {
			t.Errorf("%q: %d rows, want %d", c.q, len(res.Rows), c.want)
		}
	}
}

func TestParamSubstitution(t *testing.T) {
	db := electionsDB(t)
	res, err := exec(db, "SELECT name FROM departements WHERE code = ?", value.NewString("92"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Hauts-de-Seine" {
		t.Errorf("param query: %+v", res.Rows)
	}
	if _, err := exec(db, "SELECT name FROM departements WHERE code = ?"); err == nil {
		t.Error("missing param accepted")
	}
}

func TestJoinHash(t *testing.T) {
	db := electionsDB(t)
	res, err := exec(db, `SELECT d.name, r.party, r.votes
		FROM resultats r JOIN departements d ON r.dept = d.code
		WHERE r.year = 2015 ORDER BY r.votes DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("join rows: %d", len(res.Rows))
	}
	if res.Rows[0][2].Int() != 420000 || res.Rows[0][0].Str() != "Paris" {
		t.Errorf("top row: %+v", res.Rows[0])
	}
}

func TestLeftJoin(t *testing.T) {
	db := NewDatabase("d")
	loadTable(t, db, Schema{Name: "a", Columns: []Column{{Name: "id", Type: value.Int}, {Name: "name", Type: value.String}}},
		[]any{1, "one"}, []any{2, "two"}, []any{3, "three"})
	loadTable(t, db, Schema{Name: "b", Columns: []Column{{Name: "aid", Type: value.Int}, {Name: "label", Type: value.String}}},
		[]any{1, "x"}, []any{1, "y"})
	res, err := exec(db, `SELECT a.name, b.label FROM a LEFT JOIN b ON a.id = b.aid ORDER BY a.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("left join rows: %d: %+v", len(res.Rows), res.Rows)
	}
	// Rows for id 2 and 3 must have NULL labels.
	nulls := 0
	for _, r := range res.Rows {
		if r[1].IsNull() {
			nulls++
		}
	}
	if nulls != 2 {
		t.Errorf("null-padded rows: %d, want 2", nulls)
	}
}

// TestJoinHashKeysByEqual: the equi-join's hash table keys values as
// value.Equal compares them, so it finds the pairs the nested loop
// finds: −0 with 0 and an INT with an integral FLOAT, but no NULL or
// NaN.
func TestJoinHashKeysByEqual(t *testing.T) {
	db := NewDatabase("d")
	loadTable(t, db, Schema{Name: "a", Columns: []Column{{Name: "x", Type: value.Float}}},
		[]any{math.Copysign(0, -1)}, []any{2.0}, []any{math.NaN()}, []any{nil})
	loadTable(t, db, Schema{Name: "b", Columns: []Column{{Name: "y", Type: value.Int}, {Name: "f", Type: value.Float}}},
		[]any{0, math.NaN()}, []any{2, nil}, []any{nil, nil})
	for _, q := range []string{
		"SELECT a.x, b.y FROM a JOIN b ON a.x = b.y",
		"SELECT a.x, b.f FROM a JOIN b ON a.x = b.f",
	} {
		hash, err := exec(db, q)
		if err != nil {
			t.Fatal(err)
		}
		loop, err := exec(db, q+" + 0")
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(hash.Rows) != fmt.Sprint(loop.Rows) {
			t.Errorf("%s: hash join %v, nested loop %v", q, hash.Rows, loop.Rows)
		}
	}
}

func TestNestedLoopJoinNonEqui(t *testing.T) {
	db := electionsDB(t)
	res, err := exec(db, `SELECT d.name FROM departements d
		JOIN resultats r ON r.votes > d.population`)
	if err != nil {
		t.Fatal(err)
	}
	// Finistere pop 909028: no votes exceed it; others are larger. Actually
	// votes max 500000 < min population 909028, so empty.
	if len(res.Rows) != 0 {
		t.Errorf("non-equi join rows: %d", len(res.Rows))
	}
}

func TestDistinctRows(t *testing.T) {
	db := electionsDB(t)
	res, err := exec(db, `SELECT DISTINCT party FROM resultats ORDER BY party`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "LR" {
		t.Errorf("distinct: %+v", res.Rows)
	}
}

func TestOrderByMultipleKeysAndOffset(t *testing.T) {
	db := electionsDB(t)
	res, err := exec(db, `SELECT dept, year, votes FROM resultats
		ORDER BY year DESC, votes ASC LIMIT 3 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if res.Rows[0][1].Int() != 2015 || res.Rows[0][2].Int() != 180000 {
		t.Errorf("offset row: %+v", res.Rows[0])
	}
}

func TestOrderByUnprojectedColumn(t *testing.T) {
	db := electionsDB(t)
	res, err := exec(db, `SELECT name FROM departements ORDER BY population DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "Paris" || res.Rows[2][0].Str() != "Finistere" {
		t.Errorf("order by unprojected: %+v", res.Rows)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := electionsDB(t)
	res, err := exec(db, `SELECT LOWER(name), UPPER(code), LENGTH(name) FROM departements WHERE code = '29'`)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].Str() != "finistere" || r[1].Str() != "29" || r[2].Int() != 9 {
		t.Errorf("functions: %+v", r)
	}
}

func TestArithmeticProjection(t *testing.T) {
	db := electionsDB(t)
	res, err := exec(db, `SELECT votes * 2 AS double, votes / 1000 FROM resultats WHERE dept = '29' AND party = 'LR'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 240000 {
		t.Errorf("arith: %+v", res.Rows[0])
	}
	if res.Rows[0][1].Float() != 120 {
		t.Errorf("div: %+v", res.Rows[0])
	}
}

func TestDivisionByZero(t *testing.T) {
	db := electionsDB(t)
	for _, q := range []string{
		"SELECT votes / 0 FROM resultats",
		"SELECT dept FROM resultats WHERE votes / 0 > 1",
		"SELECT dept FROM resultats WHERE dept = ? AND votes / 0 > 1",
	} {
		if _, err := exec(db, q, value.NewString("75")); err == nil {
			t.Errorf("%s: division by zero accepted", q)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := NewDatabase("d")
	loadTable(t, db, Schema{Name: "a", Columns: []Column{{Name: "id", Type: value.Int}}}, []any{1})
	loadTable(t, db, Schema{Name: "b", Columns: []Column{{Name: "id", Type: value.Int}}}, []any{1})
	if _, err := exec(db, "SELECT id FROM a JOIN b ON a.id = b.id"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column: %v", err)
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	db := electionsDB(t)
	if _, err := exec(db, "SELECT x FROM nope"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := exec(db, "SELECT nope FROM departements"); err == nil {
		t.Error("unknown column accepted")
	}
}

// TestUnknownNameIsAnErrorWithoutRows: names bind before any row is
// read, so an unknown column, function or arity, or a missing
// parameter, fails the statement whether or not a row reaches it — on
// an empty table, and behind a conjunct no row passes. In a bind join,
// which tuples reach the source must not decide whether it fails.
func TestUnknownNameIsAnErrorWithoutRows(t *testing.T) {
	db := NewDatabase("d")
	schema := func(name string) Schema {
		return Schema{Name: name, Columns: []Column{{Name: "k", Type: value.String}}}
	}
	loadTable(t, db, schema("empty"))
	loadTable(t, db, schema("one"), []any{"a"})
	for q, want := range map[string]string{
		"SELECT nosuch FROM empty":                               `unknown column "nosuch"`,
		"SELECT k FROM empty WHERE nosuch = 1":                   `unknown column "nosuch"`,
		"SELECT k FROM empty ORDER BY nosuch":                    `unknown column "nosuch"`,
		"SELECT NOFUNC(k) FROM empty":                            `unknown function "NOFUNC"`,
		"SELECT LOWER(k, k) FROM empty":                          "LOWER expects 1 argument(s), got 2",
		"SELECT empty.k FROM empty JOIN one ON empty.k = one.no": `unknown column "one.no"`,
		"SELECT k FROM empty WHERE k = ?":                        "missing parameter 0",
		"SELECT k FROM one WHERE k = 'zz' AND nosuch = 1":        `unknown column "nosuch"`,
	} {
		if _, err := exec(db, q); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %s", q, err, want)
		}
	}
}

func TestTableScanEarlyStop(t *testing.T) {
	db := electionsDB(t)
	n := 0
	db.Table("resultats").Scan(func(value.Row) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("scan visited %d", n)
	}
}

func TestIsNull(t *testing.T) {
	db := NewDatabase("d")
	loadTable(t, db, Schema{Name: "t", Columns: []Column{{Name: "a", Type: value.Int}, {Name: "b", Type: value.String}}},
		[]any{1, nil}, []any{2, "x"})
	res, err := exec(db, "SELECT a FROM t WHERE b IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("is null: %+v", res.Rows)
	}
	res, _ = exec(db, "SELECT a FROM t WHERE b IS NOT NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Errorf("is not null: %+v", res.Rows)
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	db := NewDatabase("d")
	loadTable(t, db, Schema{Name: "t", Columns: []Column{{Name: "a", Type: value.Int}}}, []any{1}, []any{nil})
	for _, q := range []string{
		"SELECT a FROM t WHERE a = NULL",
		"SELECT a FROM t WHERE a != NULL",
		"SELECT a FROM t WHERE a > NULL",
	} {
		res, err := exec(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%q: %d rows, want 0", q, len(res.Rows))
		}
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true}, // _ matches 'e' and 'l'
		{"hela", "h__lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%b%c", true},
		{"axbyc", "a%b%c", true},
		{"ac", "a%b%c", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// TestConcurrentInsertAndScan: a Table guards its own row slice and
// primary-key set, so inserts run beside Scan and beside SELECTs, which
// read the stored rows in place (a filter and a self-join here).
func TestConcurrentInsertAndScan(t *testing.T) {
	db := NewDatabase("d")
	tbl := loadTable(t, db, Schema{Name: "t", Columns: []Column{{Name: "n", Type: value.Int}}, PrimaryKey: []string{"n"}})
	done := make(chan error, 8)
	for i := 0; i < 4; i++ {
		go func(base int) {
			for j := 0; j < 50; j++ {
				if err := tbl.Insert(value.Row{value.NewInt(int64(base*50 + j))}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 4; i++ {
		go func() {
			tbl.Scan(func(value.Row) bool { return true })
			_, err := exec(db, "SELECT n FROM t WHERE n >= 0")
			if err == nil {
				_, err = exec(db, "SELECT a.n FROM t a JOIN t b ON a.n = b.n")
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if tbl.RowCount() != 200 {
		t.Errorf("rows: %d", tbl.RowCount())
	}
}

// TestDistinctOrderBy: ORDER BY sorts the source rows before DISTINCT
// drops any, so DISTINCT keeps the sorted order and the first copy of
// each output row. Under DISTINCT every key must be a selected column,
// as in PostgreSQL: a key the projection drops could order two copies
// of one output row apart.
func TestDistinctOrderBy(t *testing.T) {
	db := NewDatabase("d")
	loadTable(t, db, Schema{Name: "t", Columns: []Column{{Name: "k", Type: value.String}, {Name: "v", Type: value.Int}}},
		[]any{"a", 2}, []any{"b", 1}, []any{"a", 3})
	for q, want := range map[string]string{
		"SELECT DISTINCT k FROM t ORDER BY k DESC":             "b a",
		"SELECT DISTINCT k AS kk FROM t ORDER BY kk":           "a b",
		"SELECT DISTINCT t.k FROM t ORDER BY t.k":              "a b",
		"SELECT DISTINCT UPPER(k) FROM t ORDER BY UPPER(k)":    "A B",
		"SELECT DISTINCT k, v FROM t ORDER BY v":               "b a a",
		"SELECT DISTINCT k FROM t ORDER BY k LIMIT 1 OFFSET 1": "b",
		"SELECT k FROM t ORDER BY v":                           "b a a",
	} {
		res, err := exec(db, q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		var got []string
		for _, r := range res.Rows {
			got = append(got, r[0].Str())
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s: %v, want %s", q, got, want)
		}
	}
	if _, err := exec(db, "SELECT DISTINCT k FROM t ORDER BY v"); err == nil ||
		!strings.Contains(err.Error(), `ORDER BY key "v"`) {
		t.Errorf("DISTINCT ordered by a dropped column: err %v, want a refusal naming the key", err)
	}
}

// TestSelectLeavesTableUnchanged: SELECT reads the stored rows in
// place, without copying them, so a WHERE filter, a join and ORDER BY
// must leave every table's rows and Scan order as they were.
func TestSelectLeavesTableUnchanged(t *testing.T) {
	db := electionsDB(t)
	stored := func() []string {
		var out []string
		for _, tbl := range db.Tables() {
			tbl.Scan(func(r value.Row) bool {
				out = append(out, tbl.Name()+" "+r.Key())
				return true
			})
		}
		return out
	}
	before := stored()
	for _, q := range []string{
		"SELECT dept FROM resultats WHERE party = 'LR'",
		"SELECT code FROM departements WHERE population < 2000000 ORDER BY population DESC",
		`SELECT d.name, r.votes FROM departements d LEFT JOIN resultats r ON r.dept = d.code
			WHERE r.year = 2015 ORDER BY r.votes`,
	} {
		if _, err := exec(db, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if after := stored(); !slices.Equal(before, after) {
		t.Errorf("stored rows changed by SELECT:\nbefore %v\nafter  %v", before, after)
	}
}

// TestDuplicateKeyMessage: a duplicate primary key names the table,
// the key columns and the key values as SQL literals.
func TestDuplicateKeyMessage(t *testing.T) {
	db := electionsDB(t)
	cases := []struct {
		table string
		row   value.Row
		want  string
	}{
		{"departements", value.Row{value.NewString("75"), value.NewString("Dup"), value.NewInt(1)},
			`relstore: table "departements": duplicate primary key (code) = ('75')`},
		{"resultats", value.Row{value.NewString("75"), value.NewInt(2015), value.NewString("PS"), value.NewInt(1)},
			`relstore: table "resultats": duplicate primary key (dept, year, party) = ('75', 2015, 'PS')`},
	}
	for _, c := range cases {
		err := db.Table(c.table).Insert(c.row)
		if err == nil || err.Error() != c.want {
			t.Errorf("Insert into %s: %v, want %s", c.table, err, c.want)
		}
	}
	quoted := NewDatabase("q")
	loadTable(t, quoted, Schema{Name: "t", Columns: []Column{{Name: "k", Type: value.String}},
		PrimaryKey: []string{"k"}}, []any{"l'an"})
	err := quoted.Table("t").Insert(value.Row{value.NewString("l'an")})
	if want := `relstore: table "t": duplicate primary key (k) = ('l''an')`; err == nil || err.Error() != want {
		t.Errorf("Insert: %v, want %s", err, want)
	}
}
