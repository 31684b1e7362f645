package sqlparse

import (
	"strings"

	"tatooine/internal/value"
)

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Columns  []SelectItem // empty means '*'
	Star     bool
	From     TableRef
	Joins    []JoinClause
	Where    Expr // nil when absent
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int // 0 when absent
}

// SelectItem is one projected expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding name: alias if present, else table name.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is an INNER or LEFT OUTER join with an ON condition.
type JoinClause struct {
	Left  bool // LEFT [OUTER] JOIN when true, INNER otherwise
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is any expression node.
type Expr interface{ expr() }

// ColumnRef references a column, optionally qualified ("t.c").
type ColumnRef struct {
	Table  string // "" when unqualified
	Column string
}

func (*ColumnRef) expr() {}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

func (*Literal) expr() {}

// Param is a positional '?' parameter, numbered from 0 in statement order.
type Param struct {
	Index int
}

func (*Param) expr() {}

// BinaryOp codes for BinaryExpr.
type BinaryOp uint8

const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpLike
)

func (op BinaryOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpLike:
		return "LIKE"
	default:
		return "?op"
	}
}

// BinaryExpr applies op to two operands.
type BinaryExpr struct {
	Op          BinaryOp
	Left, Right Expr
}

func (*BinaryExpr) expr() {}

// NotExpr negates a boolean expression.
type NotExpr struct {
	Inner Expr
}

func (*NotExpr) expr() {}

// IsNullExpr tests (NOT) NULL.
type IsNullExpr struct {
	Inner  Expr
	Negate bool
}

func (*IsNullExpr) expr() {}

// InExpr tests membership in a literal list.
type InExpr struct {
	Needle Expr
	List   []Expr
	Negate bool
}

func (*InExpr) expr() {}

// BetweenExpr tests Lo <= X <= Hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Negate    bool
}

func (*BetweenExpr) expr() {}

// FuncExpr is a scalar function call (LOWER, UPPER, LENGTH, ABS).
type FuncExpr struct {
	Name string // upper-cased
	Args []Expr
}

func (*FuncExpr) expr() {}

// Conjuncts flattens a top-level AND tree into its conjuncts.
func Conjuncts(e Expr) []Expr {
	if be, ok := e.(*BinaryExpr); ok && be.Op == OpAnd {
		return append(Conjuncts(be.Left), Conjuncts(be.Right)...)
	}
	return []Expr{e}
}

// ExprString renders an expression for debugging and plan display.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *ColumnRef:
		return x.String()
	case *Literal:
		if x.Val.Kind() == value.String {
			return "'" + strings.ReplaceAll(x.Val.Str(), "'", "''") + "'"
		}
		return x.Val.String()
	case *Param:
		return "?"
	case *BinaryExpr:
		return "(" + ExprString(x.Left) + " " + x.Op.String() + " " + ExprString(x.Right) + ")"
	case *NotExpr:
		return "NOT " + ExprString(x.Inner)
	case *IsNullExpr:
		if x.Negate {
			return ExprString(x.Inner) + " IS NOT NULL"
		}
		return ExprString(x.Inner) + " IS NULL"
	case *InExpr:
		var parts []string
		for _, e := range x.List {
			parts = append(parts, ExprString(e))
		}
		neg := ""
		if x.Negate {
			neg = " NOT"
		}
		return ExprString(x.Needle) + neg + " IN (" + strings.Join(parts, ", ") + ")"
	case *BetweenExpr:
		neg := ""
		if x.Negate {
			neg = " NOT"
		}
		return ExprString(x.X) + neg + " BETWEEN " + ExprString(x.Lo) + " AND " + ExprString(x.Hi)
	case *FuncExpr:
		var parts []string
		for _, a := range x.Args {
			parts = append(parts, ExprString(a))
		}
		return x.Name + "(" + strings.Join(parts, ", ") + ")"
	default:
		return "?expr"
	}
}
