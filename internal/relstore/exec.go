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

// Exec parses and executes one SQL statement against db. Positional '?'
// parameters are substituted from params in order.
func (db *Database) Exec(query string, params ...value.Value) (*Result, error) {
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt, params...)
}

// ExecStmt executes a parsed statement.
func (db *Database) ExecStmt(stmt sqlparse.Statement, params ...value.Value) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparse.CreateTableStmt:
		return db.execCreate(s)
	case *sqlparse.InsertStmt:
		return db.execInsert(s, params)
	case *sqlparse.SelectStmt:
		return db.execSelect(s, params)
	default:
		return nil, fmt.Errorf("relstore: unsupported statement %T", stmt)
	}
}

func (db *Database) execCreate(s *sqlparse.CreateTableStmt) (*Result, error) {
	schema := Schema{Name: s.Table, PrimaryKey: s.PrimaryKey}
	for _, c := range s.Columns {
		schema.Columns = append(schema.Columns, Column{Name: c.Name, Type: c.Type})
	}
	for _, fk := range s.ForeignKeys {
		schema.ForeignKeys = append(schema.ForeignKeys, ForeignKey{fk.Column, fk.RefTable, fk.RefColumn})
	}
	if _, err := db.CreateTable(schema); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *Database) execInsert(s *sqlparse.InsertStmt, params []value.Value) (*Result, error) {
	t := db.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("relstore: unknown table %q", s.Table)
	}
	schema := t.Schema()
	cols := s.Columns
	if len(cols) == 0 {
		for _, c := range schema.Columns {
			cols = append(cols, c.Name)
		}
	}
	inserted := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("relstore: INSERT row has %d values for %d columns", len(exprRow), len(cols))
		}
		row := make(value.Row, len(schema.Columns))
		for i := range row {
			row[i] = value.NewNull()
		}
		for i, col := range cols {
			ci := schema.ColumnIndex(col)
			if ci < 0 {
				return nil, fmt.Errorf("relstore: table %s: no column %q", s.Table, col)
			}
			v, err := evalConstExpr(exprRow[i], params)
			if err != nil {
				return nil, err
			}
			row[ci] = v
		}
		if err := t.Insert(row); err != nil {
			return nil, err
		}
		inserted++
	}
	return &Result{Columns: []string{"inserted"}, Rows: []value.Row{{value.NewInt(int64(inserted))}}}, nil
}

// evalConstExpr evaluates an expression with no column references.
func evalConstExpr(e sqlparse.Expr, params []value.Value) (value.Value, error) {
	emptyEnv := &env{}
	return evalExpr(e, emptyEnv, nil, params)
}

// ---------- SELECT machinery ----------

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

func (db *Database) execSelect(s *sqlparse.SelectStmt, params []value.Value) (*Result, error) {
	base := db.Table(s.From.Name)
	if base == nil {
		return nil, fmt.Errorf("relstore: unknown table %q", s.From.Name)
	}
	workEnv := &env{}
	workEnv.addTable(s.From.Binding(), base.Schema())
	rows := base.Rows()

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

	// WHERE.
	if s.Where != nil {
		filtered := rows[:0]
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

	var outRows []value.Row
	for _, r := range rows {
		out := make(value.Row, len(items))
		for i, it := range items {
			v, err := evalExpr(it.Expr, workEnv, r, params)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		outRows = append(outRows, out)
	}

	// Column names.
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

	// DISTINCT.
	if s.Distinct {
		seen := make(map[string]struct{}, len(outRows))
		dedup := outRows[:0]
		for _, r := range outRows {
			k := r.Key()
			if _, ok := seen[k]; ok {
				continue
			}
			seen[k] = struct{}{}
			dedup = append(dedup, r)
		}
		outRows = dedup
	}

	// ORDER BY: keys may reference output aliases or input columns.
	if len(s.OrderBy) > 0 {
		if err := sortRows(s, names, workEnv, &outRows, rows, params); err != nil {
			return nil, err
		}
	}

	// OFFSET / LIMIT.
	if s.Offset > 0 {
		if s.Offset >= len(outRows) {
			outRows = nil
		} else {
			outRows = outRows[s.Offset:]
		}
	}
	if s.Limit >= 0 && s.Limit < len(outRows) {
		outRows = outRows[:s.Limit]
	}

	return &Result{Columns: names, Rows: outRows}, nil
}

// sortRows orders the projected rows. Order keys resolve against output
// column names first, then against the input env, re-evaluating on the
// source row. Because projection may reorder or drop source columns,
// sorting pairs output rows with their source rows.
func sortRows(s *sqlparse.SelectStmt, names []string, workEnv *env,
	outRows *[]value.Row, srcRows []value.Row, params []value.Value) error {

	type keyed struct {
		out  value.Row
		keys value.Row
	}
	rows := *outRows
	ks := make([]keyed, len(rows))

	outIndex := func(e sqlparse.Expr) int {
		ref, ok := e.(*sqlparse.ColumnRef)
		if !ok || ref.Table != "" {
			return -1
		}
		for i, n := range names {
			if strings.EqualFold(n, ref.Column) {
				return i
			}
		}
		return -1
	}

	for i := range rows {
		keys := make(value.Row, len(s.OrderBy))
		for j, ob := range s.OrderBy {
			if oi := outIndex(ob.Expr); oi >= 0 {
				keys[j] = rows[i][oi]
				continue
			}
			if len(srcRows) != len(rows) {
				return fmt.Errorf("relstore: internal: source/output row count mismatch in ORDER BY")
			}
			v, err := evalExpr(ob.Expr, workEnv, srcRows[i], params)
			if err != nil {
				return err
			}
			keys[j] = v
		}
		ks[i] = keyed{out: rows[i], keys: keys}
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
	for i := range ks {
		rows[i] = ks[i].out
	}
	*outRows = rows
	return nil
}

// joinRows joins the working rows with table t under clause j. Equi-join
// conditions between an existing env column and a new table column use a
// hash join; anything else falls back to a nested loop.
func joinRows(left []value.Row, leftEnv *env, t *Table, j sqlparse.JoinClause, params []value.Value) ([]value.Row, error) {
	rightSchema := t.Schema()
	rightRows := t.Rows()
	rightWidth := len(rightSchema.Columns)

	// Build the post-join env for evaluating the ON condition.
	joined := &env{cols: append([]envCol(nil), leftEnv.cols...)}
	joined.addTable(j.Table.Binding(), rightSchema)

	// Detect a single equi-join "leftcol = rightcol".
	leftPos, rightPos := detectEqui(j.On, leftEnv, joined, len(leftEnv.cols))

	var out []value.Row
	emit := func(l, r value.Row) error {
		combined := make(value.Row, 0, len(l)+rightWidth)
		combined = append(combined, l...)
		combined = append(combined, r...)
		ok, err := evalBool(j.On, joined, combined, params)
		if err != nil {
			return err
		}
		if ok {
			out = append(out, combined)
		}
		return nil
	}

	nullRight := make(value.Row, rightWidth)
	for i := range nullRight {
		nullRight[i] = value.NewNull()
	}

	if leftPos >= 0 && rightPos >= 0 {
		// Hash join on the equi columns.
		ht := make(map[string][]value.Row, len(rightRows))
		for _, r := range rightRows {
			k := r[rightPos].Key()
			ht[k] = append(ht[k], r)
		}
		for _, l := range left {
			before := len(out)
			if !l[leftPos].IsNull() {
				for _, r := range ht[l[leftPos].Key()] {
					if err := emit(l, r); err != nil {
						return nil, err
					}
				}
			}
			if j.Left && len(out) == before {
				combined := make(value.Row, 0, len(l)+rightWidth)
				combined = append(combined, l...)
				combined = append(combined, nullRight...)
				out = append(out, combined)
			}
		}
		return out, nil
	}

	// Nested loop.
	for _, l := range left {
		before := len(out)
		for _, r := range rightRows {
			if err := emit(l, r); err != nil {
				return nil, err
			}
		}
		if j.Left && len(out) == before {
			combined := make(value.Row, 0, len(l)+rightWidth)
			combined = append(combined, l...)
			combined = append(combined, nullRight...)
			out = append(out, combined)
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
