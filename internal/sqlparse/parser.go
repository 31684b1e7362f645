package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"tatooine/internal/value"
)

// ParseSelect parses one SELECT statement, the only statement SQL text
// can carry: sources are read, never written through a query. Text
// that does not start with SELECT is refused at offset 0. A trailing
// ';' is allowed.
func ParseSelect(input string) (*SelectStmt, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	if !p.peekKeyword("SELECT") {
		return nil, &SyntaxError{0, "expected SELECT: a SQL sub-query only reads"}
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected trailing input %q", p.cur().Text)
	}
	return sel, nil
}

type sqlParser struct {
	toks    []Token
	pos     int
	nparams int
}

func (p *sqlParser) cur() Token  { return p.toks[p.pos] }
func (p *sqlParser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *sqlParser) errf(format string, args ...any) error {
	return &SyntaxError{p.cur().Pos, fmt.Sprintf(format, args...)}
}

func (p *sqlParser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *sqlParser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %q, got %q", kw, p.cur().Text)
	}
	return nil
}

func (p *sqlParser) peekOp(op string) bool {
	t := p.cur()
	return t.Kind == TokOp && t.Text == op
}

func (p *sqlParser) acceptOp(op string) bool {
	if p.peekOp(op) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, got %q", op, p.cur().Text)
	}
	return nil
}

func (p *sqlParser) expectIdent() (string, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, got %q", t.Text)
	}
	p.pos++
	return t.Text, nil
}

// ---------- SELECT ----------

func (p *sqlParser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	sel.Distinct = p.acceptKeyword("DISTINCT")

	if p.acceptOp("*") {
		sel.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.cur().Kind == TokIdent {
				item.Alias = p.cur().Text
				p.pos++
			}
			sel.Columns = append(sel.Columns, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	sel.From = from

	for {
		left := false
		switch {
		case p.acceptKeyword("JOIN"):
		case p.peekKeyword("INNER"):
			p.pos++
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		case p.peekKeyword("LEFT"):
			p.pos++
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			left = true
		default:
			goto afterJoins
		}
		tbl, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, JoinClause{Left: left, Table: tbl, On: cond})
	}
afterJoins:

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.peekKeyword("GROUP") || p.peekKeyword("HAVING") {
		return nil, p.errAggregate()
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
		if p.acceptKeyword("OFFSET") {
			off, err := p.expectInt()
			if err != nil {
				return nil, err
			}
			sel.Offset = off
		}
	}
	return sel, nil
}

func (p *sqlParser) expectInt() (int, error) {
	t := p.cur()
	if t.Kind != TokNumber {
		return 0, p.errf("expected number, got %q", t.Text)
	}
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, p.errf("expected integer, got %q", t.Text)
	}
	p.pos++
	return n, nil
}

func (p *sqlParser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.cur().Kind == TokIdent {
		ref.Alias = p.cur().Text
		p.pos++
	}
	return ref, nil
}

// ---------- expressions (precedence climbing) ----------

// parseExpr parses OR-level expressions.
func (p *sqlParser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{OpOr, left, right}
	}
	return left, nil
}

func (p *sqlParser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{OpAnd, left, right}
	}
	return left, nil
}

func (p *sqlParser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{inner}, nil
	}
	return p.parseComparison()
}

func (p *sqlParser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		negate := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Inner: left, Negate: negate}, nil
	}
	// [NOT] IN / LIKE / BETWEEN
	negate := false
	if p.peekKeyword("NOT") {
		// lookahead for NOT IN / NOT LIKE / NOT BETWEEN
		next := p.toks[p.pos+1]
		if next.Kind == TokKeyword && (next.Text == "IN" || next.Text == "LIKE" || next.Text == "BETWEEN") {
			p.pos++
			negate = true
		}
	}
	switch {
	case p.acceptKeyword("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InExpr{Needle: left, List: list, Negate: negate}, nil
	case p.acceptKeyword("LIKE"):
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e Expr = &BinaryExpr{OpLike, left, right}
		if negate {
			e = &NotExpr{e}
		}
		return e, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: left, Lo: lo, Hi: hi, Negate: negate}, nil
	}
	ops := map[string]BinaryOp{
		"=": OpEq, "!=": OpNe, "<>": OpNe,
		"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	}
	t := p.cur()
	if t.Kind == TokOp {
		if op, ok := ops[t.Text]; ok {
			p.pos++
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{op, left, right}, nil
		}
	}
	return left, nil
}

func (p *sqlParser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{OpAdd, left, right}
		case p.acceptOp("-"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{OpSub, left, right}
		default:
			return left, nil
		}
	}
}

func (p *sqlParser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{OpMul, left, right}
		case p.acceptOp("/"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{OpDiv, left, right}
		default:
			return left, nil
		}
	}
}

func (p *sqlParser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := inner.(*Literal); ok {
			switch lit.Val.Kind() {
			case value.Int:
				return &Literal{value.NewInt(-lit.Val.Int())}, nil
			case value.Float:
				return &Literal{value.NewFloat(-lit.Val.Float())}, nil
			}
		}
		return &BinaryExpr{OpSub, &Literal{value.NewInt(0)}, inner}, nil
	}
	return p.parsePrimary()
}

func (p *sqlParser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return &Literal{value.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.Text)
		}
		return &Literal{value.NewInt(i)}, nil
	case TokString:
		p.pos++
		return &Literal{value.NewString(t.Text)}, nil
	case TokParam:
		p.pos++
		e := &Param{Index: p.nparams}
		p.nparams++
		return e, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return &Literal{value.NewNull()}, nil
		case "TRUE":
			p.pos++
			return &Literal{value.NewBool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{value.NewBool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return nil, p.errAggregate()
		}
		return nil, p.errf("unexpected keyword %q", t.Text)
	case TokOp:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected token %q", t.Text)
	case TokIdent:
		p.pos++
		// Function call?
		if p.peekOp("(") {
			name := strings.ToUpper(t.Text)
			p.pos++
			var args []Expr
			if !p.peekOp(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.acceptOp(",") {
						break
					}
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &FuncExpr{Name: name, Args: args}, nil
		}
		// Qualified column?
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Column: col}, nil
		}
		return &ColumnRef{Column: t.Text}, nil
	default:
		return nil, p.errf("unexpected token %q", t.Text)
	}
}

// errAggregate refuses GROUP BY, HAVING and the aggregate calls: a SQL
// sub-query selects, projects and joins, and the mediator aggregates
// the joined result in the CMQ head for every kind of source.
func (p *sqlParser) errAggregate() error {
	return p.errf("%s is not supported in a SQL sub-query; aggregate in the CMQ head, "+
		"as in QUERY q(?k, COUNT(?v) AS ?n) ... GROUP BY ?k", p.cur().Text)
}
