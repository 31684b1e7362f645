package rdf

import (
	"fmt"
	"strings"
)

// PatternTerm is a position in a triple pattern: either a constant Term
// or a named variable.
type PatternTerm struct {
	Var  string // non-empty for a variable (without the '?' sigil)
	Term Term   // constant when Var == ""
}

// IsVar reports whether the position holds a variable.
func (pt PatternTerm) IsVar() bool { return pt.Var != "" }

// Variable returns a PatternTerm holding the named variable.
func Variable(name string) PatternTerm { return PatternTerm{Var: name} }

// Constant returns a PatternTerm holding a constant term.
func Constant(t Term) PatternTerm { return PatternTerm{Term: t} }

func (pt PatternTerm) String() string {
	if pt.IsVar() {
		return "?" + pt.Var
	}
	return pt.Term.String()
}

// TriplePattern is a triple whose positions may hold variables.
type TriplePattern struct {
	S, P, O PatternTerm
}

func (tp TriplePattern) String() string {
	return tp.S.String() + " " + tp.P.String() + " " + tp.O.String()
}

// Vars returns the distinct variable names in the pattern, in S,P,O order.
func (tp TriplePattern) Vars() []string {
	var out []string
	seen := make(map[string]struct{})
	for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
		if pt.IsVar() {
			if _, ok := seen[pt.Var]; !ok {
				seen[pt.Var] = struct{}{}
				out = append(out, pt.Var)
			}
		}
	}
	return out
}

// BGP is a basic graph pattern query: a conjunction of triple patterns
// with a head of projected variables. It corresponds to the SPARQL
// subset of conjunctive queries defined in the paper (§2.1).
type BGP struct {
	// Head lists the projected variables, in output column order. An
	// empty head projects all variables (in first-appearance order).
	Head []string
	// Patterns is the conjunctive body.
	Patterns []TriplePattern
	// Filters constrain solutions (variable-vs-constant comparisons).
	Filters []Filter
	// Optionals are OPTIONAL { … } groups: each group extends solutions
	// when it matches and leaves its variables unbound otherwise
	// (SPARQL's left-join, applied group by group in order). Unbound
	// positions surface as zero Terms in Solutions rows.
	Optionals [][]TriplePattern
}

// AllVars returns the distinct variables of the body (required patterns
// then optional groups) in first-appearance order.
func (q BGP) AllVars() []string {
	var out []string
	seen := make(map[string]struct{})
	add := func(pats []TriplePattern) {
		for _, p := range pats {
			for _, v := range p.Vars() {
				if _, ok := seen[v]; !ok {
					seen[v] = struct{}{}
					out = append(out, v)
				}
			}
		}
	}
	add(q.Patterns)
	for _, g := range q.Optionals {
		add(g)
	}
	return out
}

// Validate checks that every head and filter variable appears in the
// body.
func (q BGP) Validate() error {
	body := make(map[string]struct{})
	for _, v := range q.AllVars() {
		body[v] = struct{}{}
	}
	for _, v := range q.Head {
		if _, ok := body[v]; !ok {
			return fmt.Errorf("rdf: head variable ?%s not in query body", v)
		}
	}
	for _, f := range q.Filters {
		if _, ok := body[f.Var]; !ok {
			return fmt.Errorf("rdf: filter variable ?%s not in query body", f.Var)
		}
	}
	return nil
}

func (q BGP) String() string {
	var b strings.Builder
	b.WriteString("q(")
	for i, v := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("?" + v)
	}
	b.WriteString(") :- ")
	for i, p := range q.Patterns {
		if i > 0 {
			b.WriteString(" . ")
		}
		b.WriteString(p.String())
	}
	for _, g := range q.Optionals {
		b.WriteString(" . OPTIONAL { ")
		for i, p := range g {
			if i > 0 {
				b.WriteString(" . ")
			}
			b.WriteString(p.String())
		}
		b.WriteString(" }")
	}
	for _, f := range q.Filters {
		b.WriteString(" . ")
		b.WriteString(f.String())
	}
	return b.String()
}

// Bindings is one solution: variable name → bound term.
type Bindings map[string]Term

// Solutions is an ordered result set with named columns.
type Solutions struct {
	Vars []string
	Rows [][]Term
}

// Evaluate computes all embeddings of q into g (no entailment) and
// projects the head variables. Patterns are greedily reordered so the
// most selective pattern (fewest matching triples given already-bound
// variables) runs first.
func Evaluate(g *Graph, q BGP) (*Solutions, error) {
	return EvaluateBound(g, q, nil)
}

// EvaluateBound is Evaluate with initial variable bindings, used by the
// mediator's bind joins: variables in init are constrained to the given
// terms before evaluation. Head variables may be satisfied by init even
// when absent from the body.
//
// Evaluation runs over term IDs. Each variable owns a slot holding its
// bound TermID, bound and unbound in place as the search descends and
// backtracks. Constants and init terms are looked up in the dictionary
// once per call; an init term the dictionary lacks matches no triple
// but is still projected as given. A filter decodes only its own
// variable, and head columns are decoded once per emitted row.
func EvaluateBound(g *Graph, q BGP, init Bindings) (*Solutions, error) {
	if err := validateWithInit(q, init); err != nil {
		return nil, err
	}
	head := q.Head
	if len(head) == 0 {
		head = q.AllVars()
	}
	sols := &Solutions{Vars: head}
	if len(q.Patterns) == 0 {
		return sols, nil
	}
	e := newEvaluator(g, q, head, init, sols)
	for slot, isInit := range e.isInit {
		if isInit && !e.filtersPass(slot, e.initTerm[slot]) {
			return sols, nil
		}
	}
	e.join(0, len(e.groups[0]))
	return sols, nil
}

// absentID stands for a constant or init term the dictionary lacks: a
// pattern position holding it matches nothing. The dictionary never
// hands it out (its IDs are dense from 1).
const absentID = ^TermID(0)

// slotPos is one position of a compiled triple pattern: a variable's
// slot, or a constant's ID when slot < 0.
type slotPos struct {
	slot int
	id   TermID
}

// evaluator is the state of one EvaluateBound call.
type evaluator struct {
	g *Graph
	// slots holds each variable's bound ID: NoTerm when unbound,
	// absentID for an init term outside the dictionary.
	slots    []TermID
	isInit   []bool
	initTerm []Term // projected as given, not decoded
	filters  [][]Filter
	// groups[0] is the required body, groups[1:] the OPTIONAL groups in
	// order. done marks each group's patterns joined on the current
	// search path; hit records whether an optional group matched the
	// current solution.
	groups [][][3]slotPos
	done   [][]bool
	hit    []bool
	head   []int // slot per head column
	// matches is a stack: each join level appends its pattern's
	// matches, walks them, and truncates back.
	matches [][3]TermID
	sols    *Solutions
}

func newEvaluator(g *Graph, q BGP, head []string, init Bindings, sols *Solutions) *evaluator {
	e := &evaluator{g: g, sols: sols}
	index := make(map[string]int)
	slotOf := func(name string) int {
		if i, ok := index[name]; ok {
			return i
		}
		index[name] = len(e.slots)
		e.slots = append(e.slots, NoTerm)
		e.isInit = append(e.isInit, false)
		e.initTerm = append(e.initTerm, Term{})
		e.filters = append(e.filters, nil)
		return len(e.slots) - 1
	}
	for name, t := range init {
		i := slotOf(name)
		e.isInit[i] = true
		e.initTerm[i] = t
		e.slots[i] = e.lookup(t)
	}
	for _, group := range append([][]TriplePattern{q.Patterns}, q.Optionals...) {
		compiled := make([][3]slotPos, len(group))
		for i, p := range group {
			for k, pt := range [3]PatternTerm{p.S, p.P, p.O} {
				if pt.IsVar() {
					compiled[i][k] = slotPos{slot: slotOf(pt.Var)}
				} else {
					compiled[i][k] = slotPos{slot: -1, id: e.lookup(pt.Term)}
				}
			}
		}
		e.groups = append(e.groups, compiled)
		e.done = append(e.done, make([]bool, len(group)))
	}
	e.hit = make([]bool, len(e.groups))
	for _, f := range q.Filters {
		i := slotOf(f.Var)
		e.filters[i] = append(e.filters[i], f)
	}
	for _, v := range head {
		e.head = append(e.head, slotOf(v))
	}
	return e
}

func (e *evaluator) lookup(t Term) TermID {
	if id := e.g.dict.Lookup(t); id != NoTerm {
		return id
	}
	return absentID
}

// resolve returns the IDs of p's positions under the current slots,
// NoTerm for an unbound variable. ok is false when a position holds a
// term outside the dictionary.
func (e *evaluator) resolve(p *[3]slotPos) (ids [3]TermID, ok bool) {
	for k, pos := range p {
		id := pos.id
		if pos.slot >= 0 {
			id = e.slots[pos.slot]
		}
		if id == absentID {
			return ids, false
		}
		ids[k] = id
	}
	return ids, true
}

// join enumerates the embeddings of group gi's left remaining patterns
// under the current slots. It joins the pattern with the fewest matches
// first (ties go to pattern position) and stops at the first zero.
func (e *evaluator) join(gi, left int) {
	if left == 0 {
		e.hit[gi] = true
		e.optional(gi + 1)
		return
	}
	group, done := e.groups[gi], e.done[gi]
	best, bestCount := -1, -1
	var bestIDs [3]TermID
	for i := range group {
		if done[i] {
			continue
		}
		ids, ok := e.resolve(&group[i])
		c := 0
		if ok {
			c = e.g.countIDs(ids[0], ids[1], ids[2])
		}
		if bestCount < 0 || c < bestCount {
			best, bestCount, bestIDs = i, c, ids
		}
		if c == 0 {
			return
		}
	}
	p := &group[best]
	// Collect before descending: MatchIDs' callback holds the graph's
	// read lock, and taking it again in a nested join deadlocks against
	// a waiting writer.
	start := len(e.matches)
	e.g.MatchIDs(bestIDs[0], bestIDs[1], bestIDs[2], func(s, p, o TermID) bool {
		e.matches = append(e.matches, [3]TermID{s, p, o})
		return true
	})
	end := len(e.matches)
	done[best] = true
	for i := start; i < end; i++ {
		// fresh marks the positions whose slot this triple binds; a
		// variable repeated in the pattern must bind the same ID.
		var fresh [3]bool
		ok := true
		for k, pos := range p {
			if pos.slot < 0 || bestIDs[k] != NoTerm {
				continue
			}
			id := e.matches[i][k]
			switch e.slots[pos.slot] {
			case NoTerm:
				e.slots[pos.slot] = id
				fresh[k] = true
				ok = len(e.filters[pos.slot]) == 0 || e.filtersPass(pos.slot, e.g.dict.Term(id))
			case id:
			default:
				ok = false
			}
			if !ok {
				break
			}
		}
		if ok {
			e.join(gi, left-1)
		}
		for k, f := range fresh {
			if f {
				e.slots[p[k].slot] = NoTerm
			}
		}
	}
	done[best] = false
	e.matches = e.matches[:start]
}

// filtersPass applies the filters on slot to its bound term t.
func (e *evaluator) filtersPass(slot int, t Term) bool {
	for _, f := range e.filters[slot] {
		if !f.eval(t) {
			return false
		}
	}
	return true
}

// optional extends the current solution with OPTIONAL group gi and the
// groups after it, then emits: a matching group multiplies solutions, a
// non-matching one passes the solution through with its variables
// unbound.
func (e *evaluator) optional(gi int) {
	if gi == len(e.groups) {
		e.emit()
		return
	}
	e.hit[gi] = false
	e.join(gi, len(e.groups[gi]))
	if !e.hit[gi] {
		e.optional(gi + 1)
	}
}

// emit decodes the head columns of the current solution into a row.
func (e *evaluator) emit() {
	row := make([]Term, len(e.head))
	for i, slot := range e.head {
		switch {
		case e.isInit[slot]:
			row[i] = e.initTerm[slot]
		case e.slots[slot] != NoTerm:
			row[i] = e.g.dict.Term(e.slots[slot])
		}
		// Otherwise the zero Term: unbound after an OPTIONAL miss.
	}
	e.sols.Rows = append(e.sols.Rows, row)
}

func validateWithInit(q BGP, init Bindings) error {
	body := make(map[string]struct{})
	for _, v := range q.AllVars() {
		body[v] = struct{}{}
	}
	for _, v := range q.Head {
		if _, ok := body[v]; ok {
			continue
		}
		if _, ok := init[v]; ok {
			continue
		}
		return fmt.Errorf("rdf: head variable ?%s not in query body", v)
	}
	for _, f := range q.Filters {
		if _, ok := body[f.Var]; ok {
			continue
		}
		if _, ok := init[f.Var]; ok {
			continue
		}
		return fmt.Errorf("rdf: filter variable ?%s not in query body", f.Var)
	}
	return nil
}

// Len returns the number of solution rows.
func (s *Solutions) Len() int { return len(s.Rows) }
