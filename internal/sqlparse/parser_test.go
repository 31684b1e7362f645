package sqlparse

import (
	"errors"
	"strings"
	"testing"
)

func mustSelect(t *testing.T, q string) *SelectStmt {
	t.Helper()
	s, err := ParseSelect(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`SELECT a, "b col" FROM t WHERE x >= 10.5 AND name LIKE 'O''Brien' -- comment`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	if texts[0] != "SELECT" || kinds[0] != TokKeyword {
		t.Errorf("tok0: %v %q", kinds[0], texts[0])
	}
	found := false
	for i, tx := range texts {
		if tx == "O'Brien" && kinds[i] == TokString {
			found = true
		}
	}
	if !found {
		t.Error("escaped string literal not lexed")
	}
	if texts[len(texts)-1] != "" || kinds[len(kinds)-1] != TokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex(`SELECT "unterminated`); err == nil {
		t.Error("unterminated quoted ident should fail")
	}
	if _, err := Lex("SELECT @x"); err == nil {
		t.Error("bad character should fail")
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustSelect(t, "SELECT name, age FROM people")
	if len(s.Columns) != 2 || s.From.Name != "people" {
		t.Errorf("parsed: %+v", s)
	}
	if s.Limit != -1 {
		t.Errorf("default limit: %d", s.Limit)
	}
}

func TestParseStar(t *testing.T) {
	s := mustSelect(t, "SELECT * FROM t WHERE x = 1")
	if !s.Star {
		t.Error("star not set")
	}
	be, ok := s.Where.(*BinaryExpr)
	if !ok || be.Op != OpEq {
		t.Errorf("where: %T", s.Where)
	}
}

func TestParseJoinsAndAliases(t *testing.T) {
	s := mustSelect(t, `SELECT p.name, d.label AS dept
		FROM people p
		JOIN dept d ON p.dept_id = d.id
		LEFT JOIN region r ON d.region_id = r.id
		WHERE r.name != 'north'`)
	if s.From.Alias != "p" {
		t.Errorf("from alias: %q", s.From.Alias)
	}
	if len(s.Joins) != 2 {
		t.Fatalf("joins: %d", len(s.Joins))
	}
	if s.Joins[0].Left || !s.Joins[1].Left {
		t.Error("join kinds wrong")
	}
	if s.Columns[1].Alias != "dept" {
		t.Errorf("alias: %q", s.Columns[1].Alias)
	}
}

func TestParseGroupByHavingOrderLimit(t *testing.T) {
	s := mustSelect(t, `SELECT party, n FROM tweets
		ORDER BY n DESC, party ASC LIMIT 10 OFFSET 20`)
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Errorf("order: %+v", s.OrderBy)
	}
	if s.Limit != 10 || s.Offset != 20 {
		t.Errorf("limit/offset: %d/%d", s.Limit, s.Offset)
	}
	for _, q := range []string{
		"SELECT party FROM tweets GROUP BY party ORDER BY party",
		"SELECT party FROM tweets HAVING party = 'x' LIMIT 1",
	} {
		if _, err := ParseSelect(q); err == nil || !strings.Contains(err.Error(), "CMQ head") {
			t.Errorf("%s: err %v, want the CMQ-head refusal", q, err)
		}
	}
}

// TestParseSelectRefusesAggregation: a SQL sub-query selects, projects
// and joins; each grouping or aggregate form is refused with one error
// that names the CMQ-head spelling.
func TestParseSelectRefusesAggregation(t *testing.T) {
	for form, q := range map[string]string{
		"GROUP":  "SELECT dept FROM resultats WHERE annee = ? GROUP BY dept",
		"HAVING": "SELECT dept FROM resultats HAVING dept = '75'",
		"COUNT":  "SELECT COUNT(*) FROM resultats",
		"SUM":    "SELECT dept, SUM(voix) FROM resultats",
		"AVG":    "SELECT dept FROM resultats WHERE voix > AVG(voix)",
		"MIN":    "SELECT MIN(voix) + 1 FROM resultats",
		"MAX":    "SELECT dept FROM resultats ORDER BY MAX(voix)",
	} {
		_, err := ParseSelect(q)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err %v, want a syntax error", form, err)
		}
		want := form + " is not supported in a SQL sub-query; aggregate in the CMQ head, " +
			"as in QUERY q(?k, COUNT(?v) AS ?n) ... GROUP BY ?k"
		if se.Msg != want || !strings.Contains(q[se.Pos:], form) {
			t.Errorf("%s: %v", form, err)
		}
	}
}

// TestParseSelectRefusesWrites: SQL text is only ever read, so a
// statement that does not start with SELECT (a write or an unknown
// verb) is refused at offset 0 with one error.
func TestParseSelectRefusesWrites(t *testing.T) {
	for _, q := range []string{
		"INSERT INTO t VALUES (1)",
		"CREATE TABLE t (x INT)",
		"DELETE FROM t",
	} {
		_, err := ParseSelect(q)
		var se *SyntaxError
		if !errors.As(err, &se) || se.Pos != 0 || se.Msg != "expected SELECT: a SQL sub-query only reads" {
			t.Errorf("%s: err %v, want the SELECT-only refusal at offset 0", q, err)
		}
	}
}

func TestParseExpressions(t *testing.T) {
	s := mustSelect(t, `SELECT a FROM t WHERE
		(x + 2) * 3 > y / 4 AND name LIKE 'fr%'
		AND code IN ('75', '92', '93') AND status IS NOT NULL
		AND year BETWEEN 2014 AND 2016
		AND NOT deleted = TRUE`)
	if s.Where == nil {
		t.Fatal("no where")
	}
	str := ExprString(s.Where)
	for _, want := range []string{"LIKE", "IN ('75', '92', '93')", "IS NOT NULL", "BETWEEN 2014 AND 2016"} {
		if !strings.Contains(str, want) {
			t.Errorf("ExprString missing %q: %s", want, str)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustSelect(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := s.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("top must be OR: %v", ExprString(s.Where))
	}
	and, ok := or.Right.(*BinaryExpr)
	if !ok || and.Op != OpAnd {
		t.Errorf("right of OR must be AND: %v", ExprString(or.Right))
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	s := mustSelect(t, "SELECT a + b * c FROM t")
	add, ok := s.Columns[0].Expr.(*BinaryExpr)
	if !ok || add.Op != OpAdd {
		t.Fatalf("top must be +: %v", ExprString(s.Columns[0].Expr))
	}
	if mul, ok := add.Right.(*BinaryExpr); !ok || mul.Op != OpMul {
		t.Error("b*c must bind tighter")
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	s := mustSelect(t, "SELECT a FROM t WHERE x = -5 AND y = -2.5")
	str := ExprString(s.Where)
	if !strings.Contains(str, "-5") || !strings.Contains(str, "-2.5") {
		t.Errorf("negatives: %s", str)
	}
}

func TestParseParams(t *testing.T) {
	s := mustSelect(t, "SELECT a FROM t WHERE x = ? AND y > ?")
	var count int
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *Param:
			if x.Index != count {
				t.Errorf("param index %d, want %d", x.Index, count)
			}
			count++
		}
	}
	walk(s.Where)
	if count != 2 {
		t.Errorf("params found: %d", count)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"INSERT INTO t",
		"CREATE TABLE t",
		"CREATE TABLE t (x NOTATYPE)",
		"SELECT a FROM t JOIN u",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t; SELECT b FROM u",
		"DELETE FROM t",
	}
	for _, q := range cases {
		if _, err := ParseSelect(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestParseDistinct(t *testing.T) {
	s := mustSelect(t, "SELECT DISTINCT party FROM tweets")
	if !s.Distinct {
		t.Error("distinct not set")
	}
}

func TestParseScalarFunctions(t *testing.T) {
	s := mustSelect(t, "SELECT LOWER(name), LENGTH(name) FROM t")
	f0, ok := s.Columns[0].Expr.(*FuncExpr)
	if !ok || f0.Name != "LOWER" {
		t.Errorf("func: %+v", s.Columns[0].Expr)
	}
}

// TestHasAggregateAndColumnRefs: an aggregate over arithmetic is found at
// parse time and refused; the same arithmetic without the aggregate keeps
// its column refs in ExprString.
func TestHasAggregateAndColumnRefs(t *testing.T) {
	var se *SyntaxError
	if _, err := ParseSelect("SELECT SUM(x + y) * 2 FROM t WHERE a = 1"); !errors.As(err, &se) ||
		!strings.HasPrefix(se.Msg, "SUM is not supported in a SQL sub-query") {
		t.Errorf("aggregate over arithmetic not refused: %v", err)
	}
	s := mustSelect(t, "SELECT (x + y) * 2 FROM t WHERE a = 1")
	if got := ExprString(s.Columns[0].Expr); got != "((x + y) * 2)" {
		t.Errorf("column refs under arithmetic: %s", got)
	}
	if got := ExprString(s.Where); got != "(a = 1)" {
		t.Errorf("where: %s", got)
	}
}

func TestExprStringStable(t *testing.T) {
	s := mustSelect(t, "SELECT a FROM t WHERE x = 'it''s'")
	if got := ExprString(s.Where); got != "(x = 'it''s')" {
		t.Errorf("ExprString: %s", got)
	}
}
