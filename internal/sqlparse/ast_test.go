package sqlparse

import (
	"strings"
	"testing"

	"tatooine/internal/value"
)

func TestExprStringAllNodes(t *testing.T) {
	s := mustSelect(t, `SELECT (x + y) * 2, LOWER(c), t.d, -e, ?
	FROM t
	WHERE a IS NULL AND b IS NOT NULL AND NOT (c LIKE 'x%')
		AND d NOT IN (1, 2) AND e NOT BETWEEN 1 AND 2 AND f = 'it''s'`)
	var parts []string
	for _, it := range s.Columns {
		parts = append(parts, ExprString(it.Expr))
	}
	joined := strings.Join(parts, " | ")
	for _, want := range []string{
		"((x + y) * 2)", "LOWER(c)", "t.d", "?",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("projection rendering missing %q: %s", want, joined)
		}
	}
	where := ExprString(s.Where)
	for _, want := range []string{
		"a IS NULL", "b IS NOT NULL", "NOT ", "d NOT IN (1, 2)",
		"e NOT BETWEEN 1 AND 2", "'it''s'",
	} {
		if !strings.Contains(where, want) {
			t.Errorf("where rendering missing %q: %s", want, where)
		}
	}
}

func TestBinaryOpStrings(t *testing.T) {
	ops := map[BinaryOp]string{
		OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
		OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*",
		OpDiv: "/", OpLike: "LIKE",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("op %d: %q want %q", op, op.String(), want)
		}
	}
}

func TestTableRefBinding(t *testing.T) {
	if (TableRef{Name: "t"}).Binding() != "t" {
		t.Error("binding defaults to name")
	}
	if (TableRef{Name: "t", Alias: "x"}).Binding() != "x" {
		t.Error("alias wins")
	}
}

func TestLiteralRendering(t *testing.T) {
	if got := ExprString(&Literal{value.NewNull()}); got != "NULL" {
		t.Errorf("null literal: %q", got)
	}
	if got := ExprString(&Literal{value.NewFloat(2.5)}); got != "2.5" {
		t.Errorf("float literal: %q", got)
	}
	if got := ExprString(&Literal{value.NewBool(true)}); got != "true" {
		t.Errorf("bool literal: %q", got)
	}
}

func TestLexScientificNotationAndComments(t *testing.T) {
	toks, err := Lex("SELECT 1.5e3, 2E-2 FROM t -- trailing")
	if err != nil {
		t.Fatal(err)
	}
	var nums []string
	for _, tok := range toks {
		if tok.Kind == TokNumber {
			nums = append(nums, tok.Text)
		}
	}
	if len(nums) != 2 || nums[0] != "1.5e3" || nums[1] != "2E-2" {
		t.Errorf("scientific: %v", nums)
	}
}
