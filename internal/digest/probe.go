package digest

import (
	"math"
	"strings"

	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/source"
	"tatooine/internal/sqlparse"
	"tatooine/internal/value"
)

// This file turns digests into executable statistics. Analyze reads a
// sub-query once against its source's digest and answers both
// questions a bind join asks (§2.3): how many rows the sub-query
// returns (digest-driven planning: value-set counts and histograms),
// and which digest nodes each parameter's value must appear in
// (semi-join pruning: ParamMatcher). probeKey maps a binding value to
// the normalized key digests index.
//
// Safety contract: both digest construction (ValueSet.Add) and probing
// go through Value.String() + Normalize, and normalization is a
// function — equal raw values always produce equal keys. A membership
// "no" from an exact set or Bloom filter therefore proves the binding
// cannot match; a "yes" proves nothing (false positives just cost a
// wasted probe). Pruning additionally refuses: Null or
// empty-normalizing values (they never entered the digest), analyzed
// full-text paths (CONTAINS semantics, not equality) and optional BGP
// patterns.

// probeKey maps a binding value to its digest key. ok is false when
// the value cannot be tested against a digest (Null, or nothing
// survives normalization) — such bindings must never be pruned.
func probeKey(v value.Value) (string, bool) {
	if v.IsNull() {
		return "", false
	}
	key := Normalize(v.String())
	if key == "" {
		return "", false
	}
	return key, true
}

// mayContainKey is the pruning-grade membership test for a
// pre-normalized key: exact set when it survived the budget, Bloom
// filter otherwise. Unlike MayContain it skips the NumericOnly keyword
// heuristic, which may reject keys that were genuinely added —
// acceptable for ranked keyword lookup, fatal for pruning.
func (vs *ValueSet) mayContainKey(key string) bool {
	if vs == nil || key == "" {
		return true
	}
	if vs.exact != nil {
		_, ok := vs.exact[key]
		return ok
	}
	if vs.bloom == nil {
		return true
	}
	return vs.bloom.MayContain(key)
}

// ParamMatcher maps each parameter position of one sub-query to the
// digest nodes whose value sets the bound value must appear in. A
// binding failing any mapped node's membership test cannot contribute
// rows and may be skipped before the probe is dispatched.
type ParamMatcher struct {
	nodes [][]*Node // per parameter position; empty = cannot prune
}

// MayMatch reports whether the binding tuple may produce rows. False
// is definitive (some equality target provably lacks the value); true
// means "probe it".
func (m *ParamMatcher) MayMatch(params value.Row) bool {
	if m == nil {
		return true
	}
	for i, ns := range m.nodes {
		if len(ns) == 0 || i >= len(params) {
			continue
		}
		key, ok := probeKey(params[i])
		if !ok {
			continue
		}
		for _, n := range ns {
			if !n.Values.mayContainKey(key) {
				return false
			}
		}
	}
	return true
}

// Analysis is what a digest says about one sub-query.
type Analysis struct {
	// Rows is the expected result cardinality when Estimated: equality
	// conjuncts contribute count/distinct (zero when membership proves a
	// literal absent), numeric ranges integrate the histogram, the
	// tightest conjunct wins and LIMIT caps it.
	Rows      int
	Estimated bool
	// Matcher prunes bindings the digest proves absent; nil when no
	// parameter position resolves to a digested equality target.
	Matcher *ParamMatcher
}

// Analyze parses q once and walks its conjuncts once against d,
// collecting the row estimate and the per-parameter prune nodes
// together. It returns the zero Analysis (no estimate, probe
// everything) when d is nil, the text does not parse, or the language
// has no digest analysis (XPath).
func Analyze(d *Digest, q source.SubQuery, prefixes map[string]string) Analysis {
	if d == nil {
		return Analysis{}
	}
	a := analyzer{d: d, nodes: make([][]*Node, len(q.InVars))}
	switch q.Language {
	case source.LangSQL:
		a.sql(q.Text)
	case source.LangBGP:
		a.bgp(q, prefixes)
	case source.LangSearch:
		a.search(q.Text)
	}
	out := Analysis{Rows: a.rows, Estimated: a.found}
	for _, ns := range a.nodes {
		if len(ns) > 0 {
			out.Matcher = &ParamMatcher{nodes: a.nodes}
			break
		}
	}
	return out
}

// analyzer accumulates one Analyze walk.
type analyzer struct {
	d     *Digest
	nodes [][]*Node // per parameter position
	rows  int       // tightest conjunct estimate so far
	found bool      // some conjunct gave an estimate
}

// prune records that a binding at parameter position pos must appear
// in n's values. Analyzed fields match by CONTAINS, which membership
// cannot decide.
func (a *analyzer) prune(pos int, n *Node) {
	if pos < 0 || pos >= len(a.nodes) || n == nil || n.Values == nil || n.Analyzed {
		return
	}
	a.nodes[pos] = append(a.nodes[pos], n)
}

// estimate folds one conjunct's row estimate into the running minimum.
func (a *analyzer) estimate(rows int) {
	if !a.found || rows < a.rows {
		a.rows = rows
	}
	a.found = true
}

// inRange folds in a numeric range conjunct over n from its histogram.
func (a *analyzer) inRange(n *Node, lo, hi float64) {
	if n == nil || n.Values == nil {
		return
	}
	if h := n.Values.Histogram(); h != nil {
		a.estimate(rangeRows(h, lo, hi))
	}
}

// limit caps the estimate at a LIMIT.
func (a *analyzer) limit(n int) {
	if a.found && a.rows > n {
		a.rows = n
	}
}

// sql maps top-level `col = ?` conjuncts to attribute nodes and
// estimates from equality and numeric range conjuncts. Joins refuse
// only the estimate — their row count is not the conjuncts'.
func (a *analyzer) sql(text string) {
	stmt, err := sqlparse.ParseSelect(text)
	if err != nil || stmt.Where == nil {
		return
	}
	byLabel := lowerLabelIndex(a.d)
	tables := sqlTableBindings(stmt)
	for _, c := range sqlparse.Conjuncts(stmt.Where) {
		switch x := c.(type) {
		case *sqlparse.BinaryExpr:
			if x.Op != sqlparse.OpEq {
				if lo, hi, col, ok := sqlRange(x); ok {
					a.inRange(resolveAttr(byLabel, tables, col), lo, hi)
				}
				continue
			}
			if col, p := sqlEqOperand[*sqlparse.Param](x); col != nil {
				n := resolveAttr(byLabel, tables, col)
				a.prune(p.Index, n)
				if n != nil && !n.Analyzed {
					a.estimate(perKeyRows(n.Values))
				}
			} else if col, lit := sqlEqOperand[*sqlparse.Literal](x); col != nil {
				if n := resolveAttr(byLabel, tables, col); n != nil && !n.Analyzed {
					key, _ := probeKey(lit.Val)
					a.estimate(eqRows(n.Values, key))
				}
			}
		case *sqlparse.BetweenExpr:
			col, cok := x.X.(*sqlparse.ColumnRef)
			lo, lok := sqlNumericLiteral(x.Lo)
			hi, hok := sqlNumericLiteral(x.Hi)
			if !x.Negate && cok && lok && hok {
				a.inRange(resolveAttr(byLabel, tables, col), lo, hi)
			}
		}
	}
	if len(stmt.Joins) > 0 {
		a.rows, a.found = 0, false
		return
	}
	if stmt.Limit >= 0 {
		a.limit(stmt.Limit)
	}
}

// bgp maps pre-bound variables to property nodes (variable in object
// position of a constant-predicate pattern) and class nodes (variable
// in subject position of a constant rdf:type pattern), and estimates
// each such pattern: zero for a constant the node provably lacks,
// count/distinct for a known value, the node's count otherwise. Only
// required patterns count — OPTIONAL groups may leave a variable
// unmatched without emptying the solution.
func (a *analyzer) bgp(q source.SubQuery, prefixes map[string]string) {
	bgp, err := rdf.ParseBGP(q.Text, prefixes)
	if err != nil {
		return
	}
	pos := make(map[string]int, len(q.InVars))
	for i, name := range q.InVars {
		pos[strings.TrimPrefix(name, "?")] = i
	}
	typ := rdf.NewIRI(rdf.RDFType)
	for _, p := range bgp.Patterns {
		if p.P.IsVar() {
			continue
		}
		// A property node's values are its objects; a class node's are
		// its instances, the subjects of `?s a C`.
		key, v := p.P.Term.Value, p.O
		if p.P.Term == typ {
			if p.O.IsVar() {
				continue
			}
			key, v = p.O.Term.Value, p.S
		}
		n := a.d.Nodes[a.d.Source+"#"+key]
		i, bound := pos[v.Var]
		if v.IsVar() && bound {
			a.prune(i, n)
		}
		if n == nil || n.Values == nil {
			continue
		}
		switch {
		case !v.IsVar():
			a.estimate(eqRows(n.Values, Normalize(v.Term.Value)))
		case bound:
			a.estimate(perKeyRows(n.Values))
		default:
			a.estimate(n.Values.Count())
		}
	}
}

// search maps `field = ?` keyword-equality conditions to non-analyzed
// path nodes and estimates from keyword equalities and literal numeric
// ranges; LIMIT caps the estimate.
func (a *analyzer) search(text string) {
	tq, err := fulltext.ParseTextQuery(text)
	if err != nil {
		return
	}
	for _, c := range tq.Conds {
		n := a.d.Nodes[a.d.Source+"#"+c.Field]
		switch c.Op {
		case fulltext.CondEq:
			a.prune(c.Param, n)
			if n == nil || n.Values == nil || n.Analyzed {
				continue
			}
			key := ""
			if c.Param < 0 {
				key, _ = probeKey(c.Val)
			}
			a.estimate(eqRows(n.Values, key))
		case fulltext.CondGe, fulltext.CondLe, fulltext.CondBetween:
			if c.Param >= 0 || (c.Op == fulltext.CondBetween && c.Param2 >= 0) {
				continue
			}
			lo, hi := math.Inf(-1), math.Inf(1)
			var ok bool
			switch c.Op {
			case fulltext.CondGe:
				lo, ok = numericValue(c.Val)
			case fulltext.CondLe:
				hi, ok = numericValue(c.Val)
			case fulltext.CondBetween:
				var ok2 bool
				lo, ok = numericValue(c.Val)
				hi, ok2 = numericValue(c.Val2)
				ok = ok && ok2
			}
			if ok {
				a.inRange(n, lo, hi)
			}
		}
	}
	if tq.Limit > 0 {
		a.limit(tq.Limit)
	}
}

// lowerLabelIndex indexes value-bearing nodes by lower-cased label
// (relational digests preserve schema case; SQL identifiers are
// case-insensitive).
func lowerLabelIndex(d *Digest) map[string]*Node {
	out := make(map[string]*Node, len(d.Nodes))
	for _, n := range d.Nodes {
		if n.Values != nil {
			out[strings.ToLower(n.Label)] = n
		}
	}
	return out
}

// sqlTableBindings maps lower-cased binding names (alias or table) to
// table names for the FROM table and every join.
func sqlTableBindings(stmt *sqlparse.SelectStmt) map[string]string {
	out := map[string]string{strings.ToLower(stmt.From.Binding()): stmt.From.Name}
	for _, j := range stmt.Joins {
		out[strings.ToLower(j.Table.Binding())] = j.Table.Name
	}
	return out
}

// resolveAttr resolves a column reference to its value-bearing
// attribute node, or nil when the table is unknown or an unqualified
// column is ambiguous.
func resolveAttr(byLabel map[string]*Node, tables map[string]string, col *sqlparse.ColumnRef) *Node {
	if col.Table != "" {
		t, ok := tables[strings.ToLower(col.Table)]
		if !ok {
			return nil
		}
		return byLabel[strings.ToLower(t+"."+col.Column)]
	}
	if len(tables) == 1 {
		for _, t := range tables {
			return byLabel[strings.ToLower(t+"."+col.Column)]
		}
	}
	return nil
}

// sqlEqOperand extracts (column, operand) from `col = x` / `x = col`
// where x is a T (a parameter or a literal); col is nil otherwise.
func sqlEqOperand[T sqlparse.Expr](be *sqlparse.BinaryExpr) (*sqlparse.ColumnRef, T) {
	if c, ok := be.Left.(*sqlparse.ColumnRef); ok {
		if x, ok := be.Right.(T); ok {
			return c, x
		}
	}
	if c, ok := be.Right.(*sqlparse.ColumnRef); ok {
		if x, ok := be.Left.(T); ok {
			return c, x
		}
	}
	var none T
	return nil, none
}

// perKeyRows is the expected rows matching one equality key:
// count/distinct, rounded up.
func perKeyRows(vs *ValueSet) int {
	n, dist := vs.Count(), vs.DistinctEstimate()
	if dist <= 0 {
		return n
	}
	if n%dist != 0 {
		return n/dist + 1
	}
	return n / dist
}

// eqRows is the expected rows matching key: none when membership
// proves it absent, count/distinct otherwise (and for the unknown key
// "", a parameter's).
func eqRows(vs *ValueSet, key string) int {
	if !vs.mayContainKey(key) {
		return 0
	}
	return perKeyRows(vs)
}

// rangeRows turns a histogram range estimate into rows, rounded up. A
// decoded digest's counts are the peer's, so the conversion saturates
// instead of overflowing int.
func rangeRows(h *Histogram, lo, hi float64) int {
	x := h.EstimateRange(lo, hi)
	switch {
	case !(x > 0):
		return 0
	case x >= math.MaxInt32:
		return math.MaxInt32
	}
	return int(math.Ceil(x))
}

// sqlRange decodes `col OP numeric-literal` (either operand order)
// into a closed [lo, hi] interval.
func sqlRange(be *sqlparse.BinaryExpr) (lo, hi float64, col *sqlparse.ColumnRef, ok bool) {
	op := be.Op
	c, cok := be.Left.(*sqlparse.ColumnRef)
	v, vok := sqlNumericLiteral(be.Right)
	if !cok || !vok {
		// literal OP col: mirror the operator.
		if c, cok = be.Right.(*sqlparse.ColumnRef); !cok {
			return 0, 0, nil, false
		}
		if v, vok = sqlNumericLiteral(be.Left); !vok {
			return 0, 0, nil, false
		}
		switch op {
		case sqlparse.OpLt:
			op = sqlparse.OpGt
		case sqlparse.OpLe:
			op = sqlparse.OpGe
		case sqlparse.OpGt:
			op = sqlparse.OpLt
		case sqlparse.OpGe:
			op = sqlparse.OpLe
		}
	}
	switch op {
	case sqlparse.OpLt, sqlparse.OpLe:
		return math.Inf(-1), v, c, true
	case sqlparse.OpGt, sqlparse.OpGe:
		return v, math.Inf(1), c, true
	}
	return 0, 0, nil, false
}

func sqlNumericLiteral(e sqlparse.Expr) (float64, bool) {
	l, ok := e.(*sqlparse.Literal)
	if !ok {
		return 0, false
	}
	switch l.Val.Kind() {
	case value.Int, value.Float:
		return l.Val.Float(), true
	}
	return 0, false
}

func numericValue(v value.Value) (float64, bool) {
	switch v.Kind() {
	case value.Int, value.Float:
		return v.Float(), true
	}
	if c, ok := value.Coerce(v, value.Float); ok {
		return c.Float(), true
	}
	return 0, false
}
