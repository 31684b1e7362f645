package relstore

import (
	"fmt"
	"sort"
	"strings"

	"tatooine/internal/sqlparse"
	"tatooine/internal/value"
)

// Result is a query result: named columns and rows.
type Result struct {
	Columns []string
	Rows    []value.Row
}

// Exec parses and runs one SELECT against db; SQL text only reads, so
// tables are built with CreateTable and Table.Insert. Positional '?'
// parameters are substituted from params in order.
func (db *Database) Exec(query string, params ...value.Value) (*Result, error) {
	stmt, err := sqlparse.ParseSelect(query)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt, params...)
}

// env maps qualified/unqualified column names to positions in the
// working row, which is the concatenation of all joined tables' columns.
type env struct {
	cols []envCol
}

type envCol struct {
	binding string // table alias or name (lower-cased)
	name    string // column name (lower-cased)
}

func (e *env) addTable(binding string, schema Schema) {
	b := strings.ToLower(binding)
	for _, c := range schema.Columns {
		e.cols = append(e.cols, envCol{binding: b, name: strings.ToLower(c.Name)})
	}
}

// resolve returns the row position for a column reference.
func (e *env) resolve(ref *sqlparse.ColumnRef) (int, error) {
	tbl := strings.ToLower(ref.Table)
	name := strings.ToLower(ref.Column)
	found := -1
	for i, c := range e.cols {
		if c.name != name {
			continue
		}
		if tbl != "" && c.binding != tbl {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("relstore: ambiguous column %q", ref.String())
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("relstore: unknown column %q", ref.String())
	}
	return found, nil
}

// ExecStmt runs a parsed SELECT: joins, WHERE, ORDER BY over the source
// rows, projection, DISTINCT (keeping the first copy, so the order
// holds), then OFFSET and LIMIT. Stored rows are read in place.
func (db *Database) ExecStmt(s *sqlparse.SelectStmt, params ...value.Value) (*Result, error) {
	base := db.Table(s.From.Name)
	if base == nil {
		return nil, fmt.Errorf("relstore: unknown table %q", s.From.Name)
	}
	workEnv := &env{}
	workEnv.addTable(s.From.Binding(), base.Schema())
	rows := base.snapshot()

	// Joins, in declaration order.
	for _, j := range s.Joins {
		t := db.Table(j.Table.Name)
		if t == nil {
			return nil, fmt.Errorf("relstore: unknown table %q", j.Table.Name)
		}
		var err error
		rows, err = joinRows(rows, workEnv, t, j, params)
		if err != nil {
			return nil, err
		}
		workEnv.addTable(j.Table.Binding(), t.Schema())
	}

	// WHERE, into a new slice: rows may still be the table's own.
	if s.Where != nil {
		var filtered []value.Row
		for _, r := range rows {
			ok, err := evalBool(s.Where, workEnv, r, params)
			if err != nil {
				return nil, err
			}
			if ok {
				filtered = append(filtered, r)
			}
		}
		rows = filtered
	}

	// Projection plan.
	items := s.Columns
	if s.Star {
		// Expand '*' into every column of the env in order.
		for _, c := range workEnv.cols {
			items = append(items, sqlparse.SelectItem{
				Expr: &sqlparse.ColumnRef{Table: c.binding, Column: c.name},
			})
		}
	}
	names := make([]string, len(items))
	for i, it := range items {
		switch {
		case it.Alias != "":
			names[i] = it.Alias
		default:
			if ref, ok := it.Expr.(*sqlparse.ColumnRef); ok {
				names[i] = ref.Column
			} else {
				names[i] = sqlparse.ExprString(it.Expr)
			}
		}
	}

	if len(s.OrderBy) > 0 {
		var err error
		if rows, err = sortRows(s, items, names, workEnv, rows, params); err != nil {
			return nil, err
		}
	}

	outRows := make([]value.Row, 0, len(rows))
	var seen map[string]struct{}
	if s.Distinct {
		seen = make(map[string]struct{}, len(rows))
	}
	for _, r := range rows {
		out := make(value.Row, len(items))
		for i, it := range items {
			v, err := evalExpr(it.Expr, workEnv, r, params)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		if seen != nil {
			k := out.Key()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
		}
		outRows = append(outRows, out)
	}

	// OFFSET / LIMIT.
	outRows = outRows[min(s.Offset, len(outRows)):]
	if s.Limit >= 0 && s.Limit < len(outRows) {
		outRows = outRows[:s.Limit]
	}
	return &Result{Columns: names, Rows: outRows}, nil
}

// sortRows returns the source rows in ORDER BY order (stable). A key
// naming an output alias or column, or spelled as a select item, is
// that item's expression; any other key is evaluated on the source
// row. Under DISTINCT every key must be a select item: a key the
// projection drops could order two copies of one output row apart.
func sortRows(s *sqlparse.SelectStmt, items []sqlparse.SelectItem, names []string, workEnv *env,
	rows []value.Row, params []value.Value) ([]value.Row, error) {

	keyExprs := make([]sqlparse.Expr, len(s.OrderBy))
	for j, ob := range s.OrderBy {
		keyExprs[j] = ob.Expr
		if i := itemIndex(ob.Expr, items, names); i >= 0 {
			keyExprs[j] = items[i].Expr
		} else if s.Distinct {
			return nil, fmt.Errorf("relstore: for SELECT DISTINCT, ORDER BY key %q must be a selected column",
				sqlparse.ExprString(ob.Expr))
		}
	}
	type keyed struct {
		row  value.Row
		keys value.Row
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		keys := make(value.Row, len(keyExprs))
		for j, e := range keyExprs {
			v, err := evalExpr(e, workEnv, r, params)
			if err != nil {
				return nil, err
			}
			keys[j] = v
		}
		ks[i] = keyed{row: r, keys: keys}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, ob := range s.OrderBy {
			c, _ := value.Compare(ks[a].keys[j], ks[b].keys[j])
			if c == 0 {
				continue
			}
			if ob.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]value.Row, len(ks))
	for i := range ks {
		sorted[i] = ks[i].row
	}
	return sorted, nil
}

// itemIndex returns the select item an ORDER BY key names (an
// unqualified output alias or column name) or spells out, or -1.
func itemIndex(key sqlparse.Expr, items []sqlparse.SelectItem, names []string) int {
	if ref, ok := key.(*sqlparse.ColumnRef); ok && ref.Table == "" {
		for i, n := range names {
			if strings.EqualFold(n, ref.Column) {
				return i
			}
		}
	}
	spelled := sqlparse.ExprString(key)
	for i, it := range items {
		if sqlparse.ExprString(it.Expr) == spelled {
			return i
		}
	}
	return -1
}

// joinRows joins the working rows with table t under clause j. Equi-join
// conditions between an existing env column and a new table column
// probe a hash table on the right rows; anything else tries every right
// row. Either way ON is checked on each candidate pair.
func joinRows(left []value.Row, leftEnv *env, t *Table, j sqlparse.JoinClause, params []value.Value) ([]value.Row, error) {
	rightSchema := t.Schema()
	rightRows := t.snapshot()
	rightWidth := len(rightSchema.Columns)

	// Build the post-join env for evaluating the ON condition.
	joined := &env{cols: append([]envCol(nil), leftEnv.cols...)}
	joined.addTable(j.Table.Binding(), rightSchema)

	// Detect a single equi-join "leftcol = rightcol".
	leftPos, rightPos := detectEqui(j.On, leftEnv, joined, len(leftEnv.cols))
	var ht map[string][]value.Row
	if leftPos >= 0 {
		ht = make(map[string][]value.Row, len(rightRows))
		for _, r := range rightRows {
			k := r[rightPos].Key()
			ht[k] = append(ht[k], r)
		}
	}
	nullRight := make(value.Row, rightWidth)

	var out []value.Row
	for _, l := range left {
		candidates := rightRows
		if ht != nil {
			candidates = nil
			if !l[leftPos].IsNull() {
				candidates = ht[l[leftPos].Key()]
			}
		}
		matched := false
		for _, r := range candidates {
			combined := append(append(make(value.Row, 0, len(l)+rightWidth), l...), r...)
			ok, err := evalBool(j.On, joined, combined, params)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, combined)
				matched = true
			}
		}
		if j.Left && !matched {
			out = append(out, append(append(make(value.Row, 0, len(l)+rightWidth), l...), nullRight...))
		}
	}
	return out, nil
}

// detectEqui recognizes ON conditions of the form L = R where one side
// resolves inside the pre-join env and the other in the appended table.
// It returns row positions, or (-1, -1) when not applicable.
func detectEqui(on sqlparse.Expr, leftEnv, joined *env, leftWidth int) (int, int) {
	be, ok := on.(*sqlparse.BinaryExpr)
	if !ok || be.Op != sqlparse.OpEq {
		return -1, -1
	}
	lref, lok := be.Left.(*sqlparse.ColumnRef)
	rref, rok := be.Right.(*sqlparse.ColumnRef)
	if !lok || !rok {
		return -1, -1
	}
	lp, lerr := joined.resolve(lref)
	rp, rerr := joined.resolve(rref)
	if lerr != nil || rerr != nil {
		return -1, -1
	}
	switch {
	case lp < leftWidth && rp >= leftWidth:
		return lp, rp - leftWidth
	case rp < leftWidth && lp >= leftWidth:
		return rp, lp - leftWidth
	default:
		return -1, -1
	}
}

// ---------- expression evaluation ----------

func evalBool(e sqlparse.Expr, en *env, row value.Row, params []value.Value) (bool, error) {
	v, err := evalExpr(e, en, row, params)
	if err != nil {
		return false, err
	}
	return v.Kind() == value.Bool && v.Bool(), nil
}

func evalExpr(e sqlparse.Expr, en *env, row value.Row, params []value.Value) (value.Value, error) {
	switch x := e.(type) {
	case *sqlparse.Literal:
		return x.Val, nil
	case *sqlparse.Param:
		if x.Index >= len(params) {
			return value.Value{}, fmt.Errorf("relstore: missing parameter %d", x.Index)
		}
		return params[x.Index], nil
	case *sqlparse.ColumnRef:
		pos, err := en.resolve(x)
		if err != nil {
			return value.Value{}, err
		}
		if pos >= len(row) {
			return value.Value{}, fmt.Errorf("relstore: internal: column position out of range")
		}
		return row[pos], nil
	case *sqlparse.BinaryExpr:
		l, err := evalExpr(x.Left, en, row, params)
		if err != nil {
			return value.Value{}, err
		}
		// Short-circuit AND/OR.
		if x.Op == sqlparse.OpAnd && !(l.Kind() == value.Bool && l.Bool()) {
			return value.NewBool(false), nil
		}
		if x.Op == sqlparse.OpOr && l.Kind() == value.Bool && l.Bool() {
			return value.NewBool(true), nil
		}
		r, err := evalExpr(x.Right, en, row, params)
		if err != nil {
			return value.Value{}, err
		}
		return applyBinary(x.Op, l, r)
	case *sqlparse.NotExpr:
		v, err := evalExpr(x.Inner, en, row, params)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(!(v.Kind() == value.Bool && v.Bool())), nil
	case *sqlparse.IsNullExpr:
		v, err := evalExpr(x.Inner, en, row, params)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(v.IsNull() != x.Negate), nil
	case *sqlparse.InExpr:
		needle, err := evalExpr(x.Needle, en, row, params)
		if err != nil {
			return value.Value{}, err
		}
		found := false
		for _, le := range x.List {
			v, err := evalExpr(le, en, row, params)
			if err != nil {
				return value.Value{}, err
			}
			if value.Equal(needle, v) {
				found = true
				break
			}
		}
		return value.NewBool(found != x.Negate), nil
	case *sqlparse.BetweenExpr:
		v, err := evalExpr(x.X, en, row, params)
		if err != nil {
			return value.Value{}, err
		}
		lo, err := evalExpr(x.Lo, en, row, params)
		if err != nil {
			return value.Value{}, err
		}
		hi, err := evalExpr(x.Hi, en, row, params)
		if err != nil {
			return value.Value{}, err
		}
		cLo, _ := value.Compare(v, lo)
		cHi, _ := value.Compare(v, hi)
		in := cLo >= 0 && cHi <= 0 && !v.IsNull()
		return value.NewBool(in != x.Negate), nil
	case *sqlparse.FuncExpr:
		return evalFunc(x, en, row, params)
	default:
		return value.Value{}, fmt.Errorf("relstore: unsupported expression %T", e)
	}
}

func applyBinary(op sqlparse.BinaryOp, l, r value.Value) (value.Value, error) {
	switch op {
	case sqlparse.OpAnd:
		return value.NewBool(l.Kind() == value.Bool && l.Bool() && r.Kind() == value.Bool && r.Bool()), nil
	case sqlparse.OpOr:
		return value.NewBool((l.Kind() == value.Bool && l.Bool()) || (r.Kind() == value.Bool && r.Bool())), nil
	case sqlparse.OpEq:
		return value.NewBool(value.Equal(l, r)), nil
	case sqlparse.OpNe:
		if l.IsNull() || r.IsNull() {
			return value.NewBool(false), nil
		}
		return value.NewBool(!value.Equal(l, r)), nil
	case sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		if l.IsNull() || r.IsNull() {
			return value.NewBool(false), nil
		}
		c, ok := value.Compare(l, r)
		if !ok {
			return value.NewBool(false), nil
		}
		switch op {
		case sqlparse.OpLt:
			return value.NewBool(c < 0), nil
		case sqlparse.OpLe:
			return value.NewBool(c <= 0), nil
		case sqlparse.OpGt:
			return value.NewBool(c > 0), nil
		default:
			return value.NewBool(c >= 0), nil
		}
	case sqlparse.OpLike:
		if l.Kind() != value.String || r.Kind() != value.String {
			return value.NewBool(false), nil
		}
		return value.NewBool(likeMatch(l.Str(), r.Str())), nil
	case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul, sqlparse.OpDiv:
		if l.IsNull() || r.IsNull() {
			return value.NewNull(), nil
		}
		if op == sqlparse.OpAdd && l.Kind() == value.String && r.Kind() == value.String {
			return value.NewString(l.Str() + r.Str()), nil
		}
		lf, rf := l.Float(), r.Float()
		bothInt := l.Kind() == value.Int && r.Kind() == value.Int
		switch op {
		case sqlparse.OpAdd:
			if bothInt {
				return value.NewInt(l.Int() + r.Int()), nil
			}
			return value.NewFloat(lf + rf), nil
		case sqlparse.OpSub:
			if bothInt {
				return value.NewInt(l.Int() - r.Int()), nil
			}
			return value.NewFloat(lf - rf), nil
		case sqlparse.OpMul:
			if bothInt {
				return value.NewInt(l.Int() * r.Int()), nil
			}
			return value.NewFloat(lf * rf), nil
		default:
			if rf == 0 {
				return value.Value{}, fmt.Errorf("relstore: division by zero")
			}
			return value.NewFloat(lf / rf), nil
		}
	default:
		return value.Value{}, fmt.Errorf("relstore: unsupported operator %v", op)
	}
}

func evalFunc(f *sqlparse.FuncExpr, en *env, row value.Row, params []value.Value) (value.Value, error) {
	args := make([]value.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := evalExpr(a, en, row, params)
		if err != nil {
			return value.Value{}, err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("relstore: %s expects %d argument(s), got %d", f.Name, n, len(args))
		}
		return nil
	}
	switch f.Name {
	case "LOWER":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
		return value.NewString(strings.ToLower(args[0].String())), nil
	case "UPPER":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
		return value.NewString(strings.ToUpper(args[0].String())), nil
	case "LENGTH":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
		return value.NewInt(int64(len(args[0].String()))), nil
	case "ABS":
		if err := need(1); err != nil {
			return value.Value{}, err
		}
		switch args[0].Kind() {
		case value.Int:
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return value.NewInt(v), nil
		case value.Float:
			v := args[0].Float()
			if v < 0 {
				v = -v
			}
			return value.NewFloat(v), nil
		default:
			return value.Value{}, fmt.Errorf("relstore: ABS over non-numeric value")
		}
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.NewNull(), nil
	default:
		return value.Value{}, fmt.Errorf("relstore: unknown function %q", f.Name)
	}
}

// likeMatch implements SQL LIKE with '%' (any run) and '_' (any single
// character), case-sensitive, via dynamic two-pointer matching.
func likeMatch(s, pattern string) bool {
	// Greedy backtracking match over bytes.
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
