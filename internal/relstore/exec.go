package relstore

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"tatooine/internal/sqlparse"
	"tatooine/internal/value"
)

// env maps qualified/unqualified column names to positions in the
// working row, which is the concatenation of all joined tables' columns.
type env []envCol

type envCol struct {
	binding string // table alias or name (lower-cased)
	name    string // column name (lower-cased)
}

func (e *env) addTable(binding string, schema Schema) {
	b := strings.ToLower(binding)
	for _, c := range schema.Columns {
		*e = append(*e, envCol{binding: b, name: strings.ToLower(c.Name)})
	}
}

// resolve returns the row position for a column reference.
func (e env) resolve(ref *sqlparse.ColumnRef) (int, error) {
	tbl := strings.ToLower(ref.Table)
	name := strings.ToLower(ref.Column)
	found := -1
	for i, c := range e {
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

// plan is a SELECT bound to the database, its tables read, and the
// state of the batch it runs.
type plan struct {
	s       *sqlparse.SelectStmt
	en      env
	pos     map[*sqlparse.ColumnRef]int // each column reference's row position
	nParams int                         // '?'s bound so far
	rows    []value.Row                 // the FROM table's rows
	joins   []join
	conds   []cond // WHERE's top-level conjuncts, in statement order
	items   []sqlparse.SelectItem
	names   []string
	order   []sqlparse.Expr // ORDER BY keys
	// perTuple: some ON holds a '?', so the joins run once per tuple.
	perTuple bool
	// key is the conjunct `col = ?` that picks each row's tuples with one
	// hash lookup: the first such conjunct with no '?' before it, or -1.
	key, keyCol, keyParam int

	out     [][]value.Row      // per tuple: WHERE's survivors, then its answer
	groups  map[string][]int32 // tuples by their key parameter's Equal key; nil for one tuple
	keyBuf  []byte
	scratch []int32
	// A small statement run for one tuple needs no more room than this.
	colBuf  [8]envCol
	condBuf [4]cond
	outBuf  [1][]value.Row
	oneBuf  [1]int32
}

// join is one JOIN clause bound to its table's rows. leftPos and
// rightPos are the columns of an ON that is one equality between the
// working row and the joined table, or -1.
type join struct {
	sqlparse.JoinClause
	table             *Table
	rows              []value.Row
	width             int
	leftPos, rightPos int
}

// cond is one WHERE conjunct; param says it holds a '?'.
type cond struct {
	e     sqlparse.Expr
	param bool
}

// ExecBatch runs a SELECT once per parameter tuple ('?'s take the
// tuple's values in order) and returns the column names and, per tuple,
// the rows it alone gives, after joins, WHERE, ORDER BY, projection,
// DISTINCT (keeping the first copy, so the order holds), OFFSET and
// LIMIT; the batch fails when a tuple would, with its error. Names bind
// before any row is read, and each table is read once, at one snapshot,
// in place. WHERE runs once per row for the whole batch, its conjuncts
// in order as AND runs them: one without '?' once for the tuples still
// live, the first `col = ?` (no '?' before it) as one hash lookup on
// the tuples, any other per live tuple.
func (db *Database) ExecBatch(s *sqlparse.SelectStmt, paramSets []value.Row) ([]string, [][]value.Row, error) {
	p := &plan{s: s, key: -1}
	if err := p.bind(db); err != nil {
		return nil, nil, err
	}
	for _, ps := range paramSets {
		if len(ps) < p.nParams {
			return nil, nil, fmt.Errorf("relstore: missing parameter %d", len(ps))
		}
	}
	if len(paramSets) == 0 {
		return p.names, nil, nil
	}
	out, err := p.run(paramSets)
	return p.names, out, err
}

// bind reads p.s's tables and binds its names.
func (p *plan) bind(db *Database) error {
	s := p.s
	p.en = p.colBuf[:0]
	p.pos = make(map[*sqlparse.ColumnRef]int)
	base := db.Table(s.From.Name)
	if base == nil {
		return fmt.Errorf("relstore: unknown table %q", s.From.Name)
	}
	p.rows = base.snapshot()
	p.en.addTable(s.From.Binding(), base.Schema())
	for _, jc := range s.Joins {
		j := join{JoinClause: jc, table: db.Table(jc.Table.Name), leftPos: -1, rightPos: -1}
		if j.table == nil {
			return fmt.Errorf("relstore: unknown table %q", jc.Table.Name)
		}
		// Each table is read once: a self-join sees one snapshot.
		j.rows = j.table.snapshot()
		for _, prev := range append([]join{{table: base, rows: p.rows}}, p.joins...) {
			if prev.table == j.table {
				j.rows = prev.rows
			}
		}
		leftWidth := len(p.en)
		p.en.addTable(jc.Table.Binding(), j.table.Schema())
		j.width = len(p.en) - leftWidth
		params := p.nParams
		if err := p.resolve(jc.On); err != nil {
			return err
		}
		p.perTuple = p.perTuple || p.nParams > params
		// An ON that is one equality between a column of the working row
		// and one of the joined table probes a hash table.
		if be, ok := jc.On.(*sqlparse.BinaryExpr); ok && be.Op == sqlparse.OpEq {
			l, lok := be.Left.(*sqlparse.ColumnRef)
			r, rok := be.Right.(*sqlparse.ColumnRef)
			if lok && rok && p.pos[l] >= leftWidth {
				l, r = r, l
			}
			if lok && rok && p.pos[l] < leftWidth && p.pos[r] >= leftWidth {
				j.leftPos, j.rightPos = p.pos[l], p.pos[r]-leftWidth
			}
		}
		p.joins = append(p.joins, j)
	}

	if s.Where != nil {
		p.conds = p.condBuf[:0]
		if err := p.addConds(s.Where); err != nil {
			return err
		}
	}

	p.items = s.Columns
	if s.Star { // every column of the env, in order
		for _, c := range p.en {
			p.items = append(p.items, sqlparse.SelectItem{Expr: &sqlparse.ColumnRef{Table: c.binding, Column: c.name}})
		}
	}
	p.names = make([]string, len(p.items))
	for i, it := range p.items {
		switch ref, isRef := it.Expr.(*sqlparse.ColumnRef); {
		case it.Alias != "":
			p.names[i] = it.Alias
		case isRef:
			p.names[i] = ref.Column
		default:
			p.names[i] = sqlparse.ExprString(it.Expr)
		}
		if err := p.resolve(it.Expr); err != nil {
			return err
		}
	}

	// A key naming an output alias or column, or spelled as a select
	// item, is that item's expression; any other key is evaluated on the
	// source row. A key holding a '?' spells no item: its placeholder is
	// its own. Under DISTINCT every key must be a select item: a key the
	// projection drops could order two copies of one output row apart.
	for _, ob := range s.OrderBy {
		i := itemIndex(ob.Expr, p.items, p.names)
		if _, isRef := ob.Expr.(*sqlparse.ColumnRef); !isRef || i < 0 {
			params := p.nParams
			if err := p.resolve(ob.Expr); err != nil {
				return err
			}
			if p.nParams > params {
				i = -1
			}
		}
		switch {
		case i >= 0:
			p.order = append(p.order, p.items[i].Expr)
		case s.Distinct:
			return fmt.Errorf("relstore: for SELECT DISTINCT, ORDER BY key %q must be a selected column",
				sqlparse.ExprString(ob.Expr))
		default:
			p.order = append(p.order, ob.Expr)
		}
	}
	return nil
}

// addConds binds e's top-level conjuncts into p.conds, in order, and
// picks the key conjunct.
func (p *plan) addConds(e sqlparse.Expr) error {
	be, isBin := e.(*sqlparse.BinaryExpr)
	if isBin && be.Op == sqlparse.OpAnd {
		if err := p.addConds(be.Left); err != nil {
			return err
		}
		return p.addConds(be.Right)
	}
	params := p.nParams
	if err := p.resolve(e); err != nil {
		return err
	}
	c := cond{e: e, param: p.nParams > params}
	if c.param && isBin && be.Op == sqlparse.OpEq && !slices.ContainsFunc(p.conds, func(c cond) bool { return c.param }) {
		ref, isRef := be.Left.(*sqlparse.ColumnRef)
		prm, isParam := be.Right.(*sqlparse.Param)
		if !isRef {
			ref, isRef = be.Right.(*sqlparse.ColumnRef)
			prm, isParam = be.Left.(*sqlparse.Param)
		}
		if isRef && isParam {
			p.key, p.keyCol, p.keyParam = len(p.conds), p.pos[ref], prm.Index
		}
	}
	p.conds = append(p.conds, c)
	return nil
}

// resolve binds e's column references to row positions in p.en, checks
// its functions' names and arities, and grows p.nParams to cover its
// '?'s. These are numbered in statement order, and bind resolves ON,
// WHERE and ORDER BY in that order, so it grows when one of them has one.
func (p *plan) resolve(e sqlparse.Expr) error {
	var sub []sqlparse.Expr
	switch x := e.(type) {
	case *sqlparse.ColumnRef:
		pos, err := p.en.resolve(x)
		p.pos[x] = pos
		return err
	case *sqlparse.Param:
		p.nParams = max(p.nParams, x.Index+1)
	case *sqlparse.BinaryExpr:
		sub = []sqlparse.Expr{x.Left, x.Right}
	case *sqlparse.NotExpr:
		sub = []sqlparse.Expr{x.Inner}
	case *sqlparse.IsNullExpr:
		sub = []sqlparse.Expr{x.Inner}
	case *sqlparse.InExpr:
		sub = append([]sqlparse.Expr{x.Needle}, x.List...)
	case *sqlparse.BetweenExpr:
		sub = []sqlparse.Expr{x.X, x.Lo, x.Hi}
	case *sqlparse.FuncExpr:
		switch x.Name {
		case "COALESCE":
		case "LOWER", "UPPER", "LENGTH", "ABS":
			if len(x.Args) != 1 {
				return fmt.Errorf("relstore: %s expects 1 argument(s), got %d", x.Name, len(x.Args))
			}
		default:
			return fmt.Errorf("relstore: unknown function %q", x.Name)
		}
		sub = x.Args
	case *sqlparse.Literal:
	default:
		return fmt.Errorf("relstore: unsupported expression %T", e)
	}
	for _, c := range sub {
		if err := p.resolve(c); err != nil {
			return err
		}
	}
	return nil
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

// equalKeyed returns v as its key must read under value.Equal: ints and
// integral floats already share keys (value.AppendKey), and −0 becomes
// 0, which Equal does not tell apart. It reports false for NULL and
// NaN, which Equal never matches.
func equalKeyed(v value.Value) (value.Value, bool) {
	if v.Kind() == value.Float {
		switch f := v.Float(); {
		case f != f:
			return v, false
		case f == 0:
			return value.NewFloat(0), true
		}
	}
	return v, !v.IsNull()
}

// run answers the tuples of paramSets.
func (p *plan) run(paramSets []value.Row) ([][]value.Row, error) {
	p.out = p.outBuf[:]
	live := p.oneBuf[:]
	if len(paramSets) > 1 {
		p.out, live = make([][]value.Row, len(paramSets)), make([]int32, len(paramSets))
		for t := range live {
			live[t] = int32(t)
		}
	}
	if p.perTuple {
		for t, ps := range paramSets {
			rows, err := p.join(ps)
			if err == nil {
				err = p.where(rows, paramSets, live[t:t+1])
			}
			if err != nil {
				return nil, err
			}
		}
	} else {
		rows, err := p.join(nil)
		if err != nil {
			return nil, err
		}
		if p.key >= 0 && len(paramSets) > 1 {
			p.groups = make(map[string][]int32, len(paramSets))
			for t, ps := range paramSets {
				if v, ok := equalKeyed(ps[p.keyParam]); ok {
					k := v.Key()
					p.groups[k] = append(p.groups[k], int32(t))
				}
			}
		}
		if err := p.where(rows, paramSets, live); err != nil {
			return nil, err
		}
	}
	for t, ps := range paramSets {
		var err error
		if p.out[t], err = p.finish(p.out[t], ps); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// where runs WHERE over rows for the tuples in all and appends each
// row to the survivors of every tuple that keeps it. It stops at the
// first error, which is the erring tuple's own: every row before it
// passed WHERE for that tuple as it would alone.
func (p *plan) where(rows, params []value.Row, all []int32) error {
	if len(p.conds) == 0 {
		for _, t := range all {
			p.out[t] = rows
		}
		return nil
	}
	for _, row := range rows {
		live := all
		for ci, c := range p.conds {
			switch {
			case ci == p.key && p.groups == nil:
				if !value.Equal(row[p.keyCol], params[live[0]][p.keyParam]) {
					live = nil
				}
			case ci == p.key:
				v, ok := equalKeyed(row[p.keyCol])
				p.keyBuf = value.AppendKey(p.keyBuf[:0], v)
				if live = p.groups[string(p.keyBuf)]; !ok {
					live = nil
				}
			case !c.param:
				v, err := p.eval(c.e, row, nil)
				if err != nil {
					return err
				}
				if !v.Bool() {
					live = nil
				}
			default:
				next := p.scratch[:0]
				for _, t := range live {
					v, err := p.eval(c.e, row, params[t])
					if err != nil {
						return err
					}
					if v.Bool() {
						next = append(next, t)
					}
				}
				live, p.scratch = next, next
			}
			if len(live) == 0 {
				break
			}
		}
		for _, t := range live {
			p.out[t] = append(p.out[t], row)
		}
	}
	return nil
}

// join joins the FROM rows with every JOIN table, in declaration order.
// An equality ON probes a hash table on the joined table's rows; any
// other ON tries every row. Either way ON is checked on each candidate
// pair.
func (p *plan) join(params value.Row) ([]value.Row, error) {
	rows := p.rows
	var key []byte
	for _, j := range p.joins {
		var ht map[string][]value.Row
		if j.leftPos >= 0 {
			ht = make(map[string][]value.Row, len(j.rows))
			for _, r := range j.rows {
				if v, ok := equalKeyed(r[j.rightPos]); ok {
					k := v.Key()
					ht[k] = append(ht[k], r)
				}
			}
		}
		nullRight := make(value.Row, j.width)
		var out []value.Row
		for _, l := range rows {
			candidates := j.rows
			if ht != nil {
				candidates = nil
				if v, ok := equalKeyed(l[j.leftPos]); ok {
					key = value.AppendKey(key[:0], v)
					candidates = ht[string(key)]
				}
			}
			matched := false
			for _, r := range candidates {
				combined := append(append(make(value.Row, 0, len(l)+j.width), l...), r...)
				v, err := p.eval(j.On, combined, params)
				if err != nil {
					return nil, err
				}
				if v.Bool() {
					out = append(out, combined)
					matched = true
				}
			}
			if j.Left && !matched {
				out = append(out, append(append(make(value.Row, 0, len(l)+j.width), l...), nullRight...))
			}
		}
		rows = out
	}
	return rows, nil
}

// finish orders, projects, de-duplicates and cuts one tuple's rows.
func (p *plan) finish(rows []value.Row, params value.Row) ([]value.Row, error) {
	if len(p.order) > 0 {
		var err error
		if rows, err = p.sortRows(rows, params); err != nil {
			return nil, err
		}
	}
	w := len(p.items)
	cells := make([]value.Value, len(rows)*w)
	out := make([]value.Row, 0, len(rows))
	var seen map[string]struct{}
	if p.s.Distinct {
		seen = make(map[string]struct{}, len(rows))
	}
	for _, r := range rows {
		row := value.Row(cells[:w:w])
		for i, it := range p.items {
			v, err := p.eval(it.Expr, r, params)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if seen != nil {
			k := row.Key()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
		}
		cells = cells[w:]
		out = append(out, row)
	}
	out = out[min(p.s.Offset, len(out)):]
	if p.s.Limit >= 0 && p.s.Limit < len(out) {
		out = out[:p.s.Limit]
	}
	return out, nil
}

// sortRows returns the source rows in ORDER BY order (stable).
func (p *plan) sortRows(rows []value.Row, params value.Row) ([]value.Row, error) {
	type keyed struct {
		row  value.Row
		keys value.Row
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		keys := make(value.Row, len(p.order))
		for j, e := range p.order {
			v, err := p.eval(e, r, params)
			if err != nil {
				return nil, err
			}
			keys[j] = v
		}
		ks[i] = keyed{row: r, keys: keys}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, ob := range p.s.OrderBy {
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

// ---------- expression evaluation ----------

// eval evaluates e on the working row with the tuple params. Names were
// bound by resolve: a column reference reads its position, and every
// function and placeholder is known to exist.
func (p *plan) eval(e sqlparse.Expr, row, params value.Row) (value.Value, error) {
	switch x := e.(type) {
	case *sqlparse.Literal:
		return x.Val, nil
	case *sqlparse.Param:
		return params[x.Index], nil
	case *sqlparse.ColumnRef:
		return row[p.pos[x]], nil
	case *sqlparse.BinaryExpr:
		l, err := p.eval(x.Left, row, params)
		if err != nil {
			return value.Value{}, err
		}
		// Short-circuit AND/OR.
		if x.Op == sqlparse.OpAnd && !l.Bool() {
			return value.NewBool(false), nil
		}
		if x.Op == sqlparse.OpOr && l.Bool() {
			return value.NewBool(true), nil
		}
		r, err := p.eval(x.Right, row, params)
		if err != nil {
			return value.Value{}, err
		}
		return applyBinary(x.Op, l, r)
	case *sqlparse.NotExpr:
		v, err := p.eval(x.Inner, row, params)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(!v.Bool()), nil
	case *sqlparse.IsNullExpr:
		v, err := p.eval(x.Inner, row, params)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(v.IsNull() != x.Negate), nil
	case *sqlparse.InExpr:
		needle, err := p.eval(x.Needle, row, params)
		if err != nil {
			return value.Value{}, err
		}
		found := false
		for _, le := range x.List {
			v, err := p.eval(le, row, params)
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
		var v [3]value.Value // X, Lo, Hi
		for i, e := range [3]sqlparse.Expr{x.X, x.Lo, x.Hi} {
			var err error
			if v[i], err = p.eval(e, row, params); err != nil {
				return value.Value{}, err
			}
		}
		cLo, _ := value.Compare(v[0], v[1])
		cHi, _ := value.Compare(v[0], v[2])
		in := cLo >= 0 && cHi <= 0 && !v[0].IsNull()
		return value.NewBool(in != x.Negate), nil
	default:
		return p.evalFunc(e.(*sqlparse.FuncExpr), row, params)
	}
}

func applyBinary(op sqlparse.BinaryOp, l, r value.Value) (value.Value, error) {
	switch op {
	case sqlparse.OpAnd:
		return value.NewBool(l.Bool() && r.Bool()), nil
	case sqlparse.OpOr:
		return value.NewBool(l.Bool() || r.Bool()), nil
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

// evalFunc runs a function call resolve has checked: COALESCE of any
// arity, the others of one argument.
func (p *plan) evalFunc(f *sqlparse.FuncExpr, row, params value.Row) (value.Value, error) {
	var out value.Value
	for _, a := range f.Args {
		v, err := p.eval(a, row, params)
		if err != nil {
			return value.Value{}, err
		}
		if out.IsNull() {
			out = v // COALESCE's answer, and the one argument of the others
		}
	}
	switch f.Name {
	case "LOWER":
		return value.NewString(strings.ToLower(out.String())), nil
	case "UPPER":
		return value.NewString(strings.ToUpper(out.String())), nil
	case "LENGTH":
		return value.NewInt(int64(len(out.String()))), nil
	case "ABS":
		switch out.Kind() {
		case value.Int:
			return value.NewInt(max(out.Int(), -out.Int())), nil
		case value.Float:
			return value.NewFloat(math.Abs(out.Float())), nil
		}
		return value.Value{}, fmt.Errorf("relstore: ABS over non-numeric value")
	default:
		return out, nil
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
