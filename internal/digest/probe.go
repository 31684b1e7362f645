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

// This file turns digests into executable statistics: ProbeKey maps a
// binding value to the normalized key digests index, ParamMatcher maps
// a sub-query's parameter positions to the digest nodes their values
// must appear in (semi-join pruning), and RefineEstimate derives row
// estimates from value-set counts and histograms (digest-driven
// planning).
//
// Safety contract: both digest construction (ValueSet.Add) and probing
// go through Value.String() + Normalize, and normalization is a
// function — equal raw values always produce equal keys. A membership
// "no" from an exact set or Bloom filter therefore proves the binding
// cannot match; a "yes" proves nothing (false positives just cost a
// wasted probe). Pruning additionally refuses: Null or
// empty-normalizing values (they never entered the digest), analyzed
// full-text paths (CONTAINS semantics, not equality), aggregate SQL
// (an empty match still yields a row), optional BGP patterns, and
// digests decoded at a foreign wire version (PruneCapable).

// ProbeKey maps a binding value to its digest key. ok is false when
// the value cannot be tested against a digest (Null, or nothing
// survives normalization) — such bindings must never be pruned.
func ProbeKey(v value.Value) (string, bool) {
	if v.IsNull() {
		return "", false
	}
	key := Normalize(v.String())
	if key == "" {
		return "", false
	}
	return key, true
}

// MayContainKey is the pruning-grade membership test for a
// pre-normalized key: exact set when it survived the budget, Bloom
// filter otherwise. Unlike MayContain it skips the NumericOnly keyword
// heuristic, which may reject keys that were genuinely added —
// acceptable for ranked keyword lookup, fatal for pruning.
func (vs *ValueSet) MayContainKey(key string) bool {
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

// NewParamMatcher analyzes q against d. It returns nil when nothing
// can be pruned: no digest, foreign wire version, unparsable text, or
// no parameter position resolving to a digested equality target —
// callers treat nil as "probe everything".
func NewParamMatcher(d *Digest, q source.SubQuery, prefixes map[string]string) *ParamMatcher {
	if !d.PruneCapable() || len(q.InVars) == 0 {
		return nil
	}
	m := &ParamMatcher{nodes: make([][]*Node, len(q.InVars))}
	switch q.Language {
	case source.LangSQL:
		m.analyzeSQL(d, q.Text)
	case source.LangBGP:
		m.analyzeBGP(d, q, prefixes)
	case source.LangSearch:
		m.analyzeSearch(d, q.Text)
	default:
		return nil
	}
	if !m.Prunable() {
		return nil
	}
	return m
}

// Prunable reports whether at least one parameter position is covered.
func (m *ParamMatcher) Prunable() bool {
	if m == nil {
		return false
	}
	for _, ns := range m.nodes {
		if len(ns) > 0 {
			return true
		}
	}
	return false
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
		key, ok := ProbeKey(params[i])
		if !ok {
			continue
		}
		for _, n := range ns {
			if !n.Values.MayContainKey(key) {
				return false
			}
		}
	}
	return true
}

// Filters returns one wire-shippable membership filter per parameter
// position (nil where the position is uncovered or the node keeps no
// Bloom filter), so federation endpoints can re-run the same pruning
// server-side.
func (m *ParamMatcher) Filters() []source.ProbeFilter {
	if m == nil {
		return nil
	}
	out := make([]source.ProbeFilter, len(m.nodes))
	any := false
	for i, ns := range m.nodes {
		for _, n := range ns {
			if b := n.Values.Bloom(); b != nil && b.Added() >= 0 {
				out[i] = b
				any = true
				break
			}
		}
	}
	if !any {
		return nil
	}
	return out
}

func (m *ParamMatcher) add(pos int, n *Node) {
	if pos < 0 || pos >= len(m.nodes) || n == nil || n.Values == nil || n.Analyzed {
		return
	}
	m.nodes[pos] = append(m.nodes[pos], n)
}

// analyzeSQL maps top-level `col = ?` conjuncts to attribute nodes.
// Aggregate statements are refused entirely: an empty WHERE match
// still yields one output row, so skipping the probe would change
// results.
func (m *ParamMatcher) analyzeSQL(d *Digest, text string) {
	stmt, err := sqlparse.ParseSelect(text)
	if err != nil || stmt.Where == nil {
		return
	}
	for _, it := range stmt.Columns {
		if sqlparse.HasAggregate(it.Expr) {
			return
		}
	}
	byLabel := lowerLabelIndex(d)
	tables := sqlTableBindings(stmt)
	for _, c := range sqlConjuncts(stmt.Where) {
		be, ok := c.(*sqlparse.BinaryExpr)
		if !ok || be.Op != sqlparse.OpEq {
			continue
		}
		col, p := sqlEqColParam(be)
		if col == nil || p == nil {
			continue
		}
		if n := resolveAttr(byLabel, tables, col); n != nil {
			m.add(p.Index, n)
		}
	}
}

// analyzeBGP maps pre-bound variables to property nodes (variable in
// object position of a constant-predicate pattern) and class nodes
// (variable in subject position of a constant rdf:type pattern). Only
// required patterns count — OPTIONAL groups may leave the variable
// unmatched without emptying the solution.
func (m *ParamMatcher) analyzeBGP(d *Digest, q source.SubQuery, prefixes map[string]string) {
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
		if p.P.Term == typ {
			if p.S.IsVar() && !p.O.IsVar() {
				if i, ok := pos[p.S.Var]; ok {
					m.add(i, d.Nodes[d.Source+"#"+p.O.Term.Value])
				}
			}
			continue
		}
		if p.O.IsVar() {
			if i, ok := pos[p.O.Var]; ok {
				m.add(i, d.Nodes[d.Source+"#"+p.P.Term.Value])
			}
		}
	}
}

// analyzeSearch maps `field = ?` keyword-equality conditions to
// non-analyzed path nodes (analyzed fields match via CONTAINS
// semantics, which membership bits cannot decide).
func (m *ParamMatcher) analyzeSearch(d *Digest, text string) {
	tq, err := fulltext.ParseTextQuery(text)
	if err != nil {
		return
	}
	for _, c := range tq.Conds {
		if c.Op != fulltext.CondEq || c.Param < 0 {
			continue
		}
		m.add(c.Param, d.Nodes[d.Source+"#"+c.Field])
	}
}

// ---------- shared sub-query analysis helpers ----------

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

// resolveAttr resolves a column reference to its attribute node, or
// nil when the table is unknown or an unqualified column is ambiguous.
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

// sqlConjuncts splits a WHERE tree into its top-level AND conjuncts.
func sqlConjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if be, ok := e.(*sqlparse.BinaryExpr); ok && be.Op == sqlparse.OpAnd {
		return append(sqlConjuncts(be.Left), sqlConjuncts(be.Right)...)
	}
	return []sqlparse.Expr{e}
}

// sqlEqColParam extracts (column, param) from `col = ?` / `? = col`.
func sqlEqColParam(be *sqlparse.BinaryExpr) (*sqlparse.ColumnRef, *sqlparse.Param) {
	if c, ok := be.Left.(*sqlparse.ColumnRef); ok {
		if p, ok := be.Right.(*sqlparse.Param); ok {
			return c, p
		}
	}
	if c, ok := be.Right.(*sqlparse.ColumnRef); ok {
		if p, ok := be.Left.(*sqlparse.Param); ok {
			return c, p
		}
	}
	return nil, nil
}

// ---------- estimate refinement ----------

// RefineEstimate derives an expected result cardinality for q from the
// digest's value statistics: equality conjuncts contribute
// count/distinct (zero when membership proves absence), numeric range
// conjuncts integrate the histogram, and the tightest conjunct wins.
// ok is false when the digest cannot say anything (no statistics, a
// foreign wire version, unsupported query shape) — callers keep their
// flat estimate then.
func RefineEstimate(d *Digest, q source.SubQuery, prefixes map[string]string) (rows int, ok bool) {
	if !d.PruneCapable() {
		return 0, false
	}
	switch q.Language {
	case source.LangSQL:
		return refineSQL(d, q.Text)
	case source.LangBGP:
		return refineBGP(d, q, prefixes)
	case source.LangSearch:
		return refineSearch(d, q.Text)
	default:
		return 0, false
	}
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

// better folds one conjunct estimate into the running minimum.
func better(best, est int, found bool) (int, bool) {
	if !found || est < best {
		return est, true
	}
	return best, true
}

func refineSQL(d *Digest, text string) (int, bool) {
	stmt, err := sqlparse.ParseSelect(text)
	if err != nil || stmt.Where == nil || len(stmt.Joins) > 0 ||
		len(stmt.GroupBy) > 0 || stmt.Having != nil {
		return 0, false
	}
	for _, it := range stmt.Columns {
		if sqlparse.HasAggregate(it.Expr) {
			return 0, false
		}
	}
	byLabel := lowerLabelIndex(d)
	tables := sqlTableBindings(stmt)
	best, found := 0, false
	for _, c := range sqlConjuncts(stmt.Where) {
		switch x := c.(type) {
		case *sqlparse.BinaryExpr:
			if x.Op == sqlparse.OpEq {
				if col, p := sqlEqColParam(x); col != nil && p != nil {
					if n := resolveAttr(byLabel, tables, col); n != nil && n.Values != nil && !n.Analyzed {
						best, found = better(best, perKeyRows(n.Values), found)
					}
					continue
				}
				if col, lit := sqlEqColLiteral(x); col != nil {
					n := resolveAttr(byLabel, tables, col)
					if n == nil || n.Values == nil || n.Analyzed {
						continue
					}
					if key, kok := ProbeKey(lit.Val); kok && !n.Values.MayContainKey(key) {
						best, found = better(best, 0, found)
						continue
					}
					best, found = better(best, perKeyRows(n.Values), found)
				}
				continue
			}
			if lo, hi, col, rok := sqlRange(x); rok {
				if n := resolveAttr(byLabel, tables, col); n != nil && n.Values != nil {
					if h := n.Values.Histogram(); h != nil {
						best, found = better(best, rangeRows(h, lo, hi), found)
					}
				}
			}
		case *sqlparse.BetweenExpr:
			if x.Negate {
				continue
			}
			col, cok := x.X.(*sqlparse.ColumnRef)
			lo, lok := sqlNumericLiteral(x.Lo)
			hi, hok := sqlNumericLiteral(x.Hi)
			if cok && lok && hok {
				if n := resolveAttr(byLabel, tables, col); n != nil && n.Values != nil {
					if h := n.Values.Histogram(); h != nil {
						best, found = better(best, rangeRows(h, lo, hi), found)
					}
				}
			}
		}
	}
	if !found {
		return 0, false
	}
	if stmt.Limit >= 0 && best > stmt.Limit {
		best = stmt.Limit
	}
	return best, true
}

// sqlEqColLiteral extracts (column, literal) from `col = lit` / `lit = col`.
func sqlEqColLiteral(be *sqlparse.BinaryExpr) (*sqlparse.ColumnRef, *sqlparse.Literal) {
	if c, ok := be.Left.(*sqlparse.ColumnRef); ok {
		if l, ok := be.Right.(*sqlparse.Literal); ok {
			return c, l
		}
	}
	if c, ok := be.Right.(*sqlparse.ColumnRef); ok {
		if l, ok := be.Left.(*sqlparse.Literal); ok {
			return c, l
		}
	}
	return nil, nil
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

func refineBGP(d *Digest, q source.SubQuery, prefixes map[string]string) (int, bool) {
	bgp, err := rdf.ParseBGP(q.Text, prefixes)
	if err != nil || len(bgp.Patterns) == 0 {
		return 0, false
	}
	bound := make(map[string]bool, len(q.InVars))
	for _, name := range q.InVars {
		bound[strings.TrimPrefix(name, "?")] = true
	}
	typ := rdf.NewIRI(rdf.RDFType)
	best, found := 0, false
	for _, p := range bgp.Patterns {
		if p.P.IsVar() {
			continue
		}
		var n *Node
		var objKey string
		var objKnown, objExact bool
		if p.P.Term == typ {
			if p.O.IsVar() {
				continue
			}
			n = d.Nodes[d.Source+"#"+p.O.Term.Value]
			// Subject position plays the "value" role for class nodes.
			if !p.S.IsVar() {
				objKey, objExact = Normalize(p.S.Term.Value), true
			}
			objKnown = !p.S.IsVar() || bound[p.S.Var]
		} else {
			n = d.Nodes[d.Source+"#"+p.P.Term.Value]
			if !p.O.IsVar() {
				objKey, objExact = Normalize(p.O.Term.Value), true
			}
			objKnown = !p.O.IsVar() || bound[p.O.Var]
		}
		if n == nil || n.Values == nil {
			continue
		}
		switch {
		case objExact && objKey != "" && !n.Values.MayContainKey(objKey):
			best, found = better(best, 0, found)
		case objKnown:
			best, found = better(best, perKeyRows(n.Values), found)
		default:
			best, found = better(best, n.Values.Count(), found)
		}
	}
	return best, found
}

func refineSearch(d *Digest, text string) (int, bool) {
	tq, err := fulltext.ParseTextQuery(text)
	if err != nil {
		return 0, false
	}
	best, found := 0, false
	for _, c := range tq.Conds {
		n := d.Nodes[d.Source+"#"+c.Field]
		if n == nil || n.Values == nil {
			continue
		}
		switch c.Op {
		case fulltext.CondEq:
			if n.Analyzed {
				continue
			}
			if c.Param < 0 {
				if key, kok := ProbeKey(c.Val); kok && !n.Values.MayContainKey(key) {
					best, found = better(best, 0, found)
					continue
				}
			}
			best, found = better(best, perKeyRows(n.Values), found)
		case fulltext.CondGe, fulltext.CondLe, fulltext.CondBetween:
			h := n.Values.Histogram()
			if h == nil || c.Param >= 0 || (c.Op == fulltext.CondBetween && c.Param2 >= 0) {
				continue
			}
			lo, hi := math.Inf(-1), math.Inf(1)
			switch c.Op {
			case fulltext.CondGe:
				v, vok := numericValue(c.Val)
				if !vok {
					continue
				}
				lo = v
			case fulltext.CondLe:
				v, vok := numericValue(c.Val)
				if !vok {
					continue
				}
				hi = v
			case fulltext.CondBetween:
				v1, ok1 := numericValue(c.Val)
				v2, ok2 := numericValue(c.Val2)
				if !ok1 || !ok2 {
					continue
				}
				lo, hi = v1, v2
			}
			best, found = better(best, rangeRows(h, lo, hi), found)
		}
	}
	if !found {
		return 0, false
	}
	if tq.Limit > 0 && best > tq.Limit {
		best = tq.Limit
	}
	return best, true
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
