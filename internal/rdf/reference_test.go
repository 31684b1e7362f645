package rdf

// referenceEvaluate is the map-binding BGP evaluator EvaluateBound
// replaced: every solution is a map[string]Term, cloned per matched
// row, and every pattern position is resolved through the dictionary
// on each count and match. It is kept as the test reference the
// term-ID evaluator must agree with, row multiset for row multiset.
func referenceEvaluate(g *Graph, q BGP, init Bindings) (*Solutions, error) {
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

	// evalPats enumerates embeddings of a pattern conjunction, applying
	// the query filters as soon as their variable binds.
	var evalPats func(bound Bindings, rem []TriplePattern, emit func(Bindings))
	evalPats = func(bound Bindings, rem []TriplePattern, emit func(Bindings)) {
		for _, f := range q.Filters {
			if t, ok := bound[f.Var]; ok && !f.eval(t) {
				return
			}
		}
		if len(rem) == 0 {
			emit(bound)
			return
		}
		// Pick the most selective remaining pattern under current bindings.
		best, bestCount := 0, -1
		for i, p := range rem {
			c := patternCount(g, p, bound)
			if bestCount < 0 || c < bestCount {
				best, bestCount = i, c
			}
			if c == 0 {
				best, bestCount = i, 0
				break
			}
		}
		p := rem[best]
		rest := make([]TriplePattern, 0, len(rem)-1)
		rest = append(rest, rem[:best]...)
		rest = append(rest, rem[best+1:]...)

		matchPattern(g, p, bound, func(next Bindings) {
			evalPats(next, rest, emit)
		})
	}

	// applyOptionals extends a solution with each OPTIONAL group in
	// order: matching groups multiply solutions, non-matching groups
	// pass the solution through with their variables unbound.
	var applyOptionals func(bound Bindings, groups [][]TriplePattern)
	applyOptionals = func(bound Bindings, groups [][]TriplePattern) {
		if len(groups) == 0 {
			row := make([]Term, len(head))
			for i, v := range head {
				row[i] = bound[v] // zero Term when unbound (OPTIONAL miss)
			}
			sols.Rows = append(sols.Rows, row)
			return
		}
		matched := false
		evalPats(bound, groups[0], func(ext Bindings) {
			matched = true
			applyOptionals(ext, groups[1:])
		})
		if !matched {
			applyOptionals(bound, groups[1:])
		}
	}

	evalPats(cloneBindings(init), append([]TriplePattern(nil), q.Patterns...), func(bound Bindings) {
		applyOptionals(bound, q.Optionals)
	})
	return sols, nil
}

func cloneBindings(b Bindings) Bindings {
	out := make(Bindings, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// resolvePattern maps a pattern position to a concrete TermID under
// bindings: NoTerm means wildcard; ok=false means a constant/bound term
// is absent from the dictionary so nothing can match.
func resolvePattern(g *Graph, pt PatternTerm, bound Bindings) (TermID, bool) {
	if pt.IsVar() {
		if t, ok := bound[pt.Var]; ok {
			id := g.dict.Lookup(t)
			return id, id != NoTerm
		}
		return NoTerm, true
	}
	id := g.dict.Lookup(pt.Term)
	return id, id != NoTerm
}

// patternCount counts the triples matching p under bound.
func patternCount(g *Graph, p TriplePattern, bound Bindings) int {
	s, ok := resolvePattern(g, p.S, bound)
	if !ok {
		return 0
	}
	pp, ok := resolvePattern(g, p.P, bound)
	if !ok {
		return 0
	}
	o, ok := resolvePattern(g, p.O, bound)
	if !ok {
		return 0
	}
	return g.countIDs(s, pp, o)
}

// matchPattern enumerates extensions of bound that satisfy p.
func matchPattern(g *Graph, p TriplePattern, bound Bindings, fn func(Bindings)) {
	s, ok := resolvePattern(g, p.S, bound)
	if !ok {
		return
	}
	pp, ok := resolvePattern(g, p.P, bound)
	if !ok {
		return
	}
	o, ok := resolvePattern(g, p.O, bound)
	if !ok {
		return
	}
	// Repeated unbound variables within the pattern (e.g. ?x ?p ?x)
	// require an equality check after matching.
	type capture struct {
		name string
		pos  int // 0=s 1=p 2=o
	}
	var caps []capture
	if p.S.IsVar() && s == NoTerm {
		caps = append(caps, capture{p.S.Var, 0})
	}
	if p.P.IsVar() && pp == NoTerm {
		caps = append(caps, capture{p.P.Var, 1})
	}
	if p.O.IsVar() && o == NoTerm {
		caps = append(caps, capture{p.O.Var, 2})
	}

	var rows [][3]TermID
	g.MatchIDs(s, pp, o, func(ms, mp, mo TermID) bool {
		rows = append(rows, [3]TermID{ms, mp, mo})
		return true
	})
	for _, r := range rows {
		next := bound
		cloned := false
		ok := true
		for _, c := range caps {
			val := g.dict.Term(r[c.pos])
			if prev, exists := next[c.name]; exists {
				if prev != val {
					ok = false
					break
				}
				continue
			}
			if !cloned {
				next = cloneBindings(bound)
				cloned = true
			}
			next[c.name] = val
		}
		if !ok {
			continue
		}
		fn(next)
	}
}

// referenceSaturate is the hand-written batch fixpoint Saturate
// replaced: each pass closes the two hierarchies transitively,
// snapshots the schema as subject → objects maps, and applies rdfs7,
// rdfs2, rdfs3 and rdfs9 rule by rule, until a pass adds nothing. It is
// kept as the independent oracle the rule table must agree with.
func referenceSaturate(in *Graph) *Graph {
	g := in.Clone()
	subClassOf := NewIRI(RDFSSubClassOf)
	subPropOf := NewIRI(RDFSSubPropertyOf)
	typ := NewIRI(RDFType)
	for {
		added := refTransitiveClose(g, subClassOf) + refTransitiveClose(g, subPropOf)
		superProps := refObjectMap(g, subPropOf)
		superClasses := refObjectMap(g, subClassOf)
		domains := refObjectMap(g, NewIRI(RDFSDomain))
		ranges := refObjectMap(g, NewIRI(RDFSRange))
		// rdfs7: property inheritance.
		for p, supers := range superProps {
			for _, t := range g.Match(Term{}, g.dict.Term(p), Term{}) {
				for super := range supers {
					if g.Add(Triple{t.S, g.dict.Term(super), t.O}) {
						added++
					}
				}
			}
		}
		// rdfs2: domain typing.
		for p, classes := range domains {
			for _, t := range g.Match(Term{}, g.dict.Term(p), Term{}) {
				for c := range classes {
					if g.Add(Triple{t.S, typ, g.dict.Term(c)}) {
						added++
					}
				}
			}
		}
		// rdfs3: range typing, literal objects skipped.
		for p, classes := range ranges {
			for _, t := range g.Match(Term{}, g.dict.Term(p), Term{}) {
				if t.O.Kind == Literal {
					continue
				}
				for c := range classes {
					if g.Add(Triple{t.O, typ, g.dict.Term(c)}) {
						added++
					}
				}
			}
		}
		// rdfs9: class membership propagation.
		for c, supers := range superClasses {
			for _, t := range g.Match(Term{}, typ, g.dict.Term(c)) {
				for super := range supers {
					if g.Add(Triple{t.S, typ, g.dict.Term(super)}) {
						added++
					}
				}
			}
		}
		if added == 0 {
			return g
		}
	}
}

// refTransitiveClose adds the transitive closure of property p to g
// (reflexive edges included where a cycle entails them) and returns
// the number of added triples.
func refTransitiveClose(g *Graph, p Term) int {
	pid := g.dict.Lookup(p)
	if pid == NoTerm {
		return 0
	}
	adj := make(map[TermID][]TermID)
	g.MatchIDs(NoTerm, pid, NoTerm, func(s, _, o TermID) bool {
		adj[s] = append(adj[s], o)
		return true
	})
	added := 0
	for s := range adj {
		seen := map[TermID]struct{}{}
		queue := append([]TermID(nil), adj[s]...)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if _, ok := seen[cur]; ok {
				continue
			}
			seen[cur] = struct{}{}
			if g.addIDs(tripleID{s, pid, cur}) {
				added++
			}
			queue = append(queue, adj[cur]...)
		}
	}
	return added
}

// refObjectMap snapshots p-edges as subject → set of objects.
func refObjectMap(g *Graph, p Term) map[TermID]termSet {
	pid := g.dict.Lookup(p)
	if pid == NoTerm {
		return nil
	}
	out := make(map[TermID]termSet)
	g.MatchIDs(NoTerm, pid, NoTerm, func(s, _, o TermID) bool {
		if out[s] == nil {
			out[s] = make(termSet)
		}
		out[s][o] = struct{}{}
		return true
	})
	return out
}
