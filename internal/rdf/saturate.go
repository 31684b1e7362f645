package rdf

// This file implements RDFS entailment. The paper (§2.1) defines a
// query's answer as its evaluation against the saturation G∞: G closed
// under the six RDFS rules of the rules table below. The table is the
// only statement of those rules. Two evaluators read it over term IDs:
// consequencesLocked (forward: every conclusion one triple takes part
// in) and supportedLocked (backward: does one rule application still
// conclude a triple). Propagate's semi-naive loop over the forward
// evaluator is both the batch fixpoint (SaturateInPlace seeds it with
// the whole graph) and the incremental reasoner's insert (seeded with
// the delta); DeltaConsequences and DerivableExcept are the Triple-level
// forms that delete-and-rederive (internal/reason) uses.

// slot is one position of a rule pattern: a variable or one of the
// five vocabulary constants. An env maps every slot to a term ID
// (NoTerm for a variable not yet bound).
type slot uint8

const (
	vX, vY, vZ, vW                                      slot = 0, 1, 2, 3
	cType, cSubClassOf, cSubPropertyOf, cDomain, cRange slot = 4, 5, 6, 7, 8
	nSlots                                                   = 9
)

// vocabIRIs names the constant slots, in slot order from cType.
var vocabIRIs = [...]string{RDFType, RDFSSubClassOf, RDFSSubPropertyOf, RDFSDomain, RDFSRange}

type pattern [3]slot

// rule concludes concl from prem[0] and prem[1]. Once prem[0] matches
// under a unified conclusion, prem[1] is fully bound: the backward
// evaluator relies on it. noLiteralSubject drops a conclusion whose
// subject is a literal (a literal cannot be typed).
type rule struct {
	prem             [2]pattern
	concl            pattern
	noLiteralSubject bool
}

var rules = [...]rule{
	{prem: [2]pattern{{vX, vY, vZ}, {vY, cDomain, vW}}, concl: pattern{vX, cType, vW}},                             // rdfs2
	{prem: [2]pattern{{vX, vY, vZ}, {vY, cRange, vW}}, concl: pattern{vZ, cType, vW}, noLiteralSubject: true},      // rdfs3
	{prem: [2]pattern{{vX, cSubPropertyOf, vY}, {vY, cSubPropertyOf, vZ}}, concl: pattern{vX, cSubPropertyOf, vZ}}, // rdfs5
	{prem: [2]pattern{{vX, vY, vZ}, {vY, cSubPropertyOf, vW}}, concl: pattern{vX, vW, vZ}},                         // rdfs7
	{prem: [2]pattern{{vX, cType, vY}, {vY, cSubClassOf, vZ}}, concl: pattern{vX, cType, vZ}},                      // rdfs9
	{prem: [2]pattern{{vX, cSubClassOf, vY}, {vY, cSubClassOf, vZ}}, concl: pattern{vX, cSubClassOf, vZ}},          // rdfs11
}

// absent stands for a vocabulary term a read-only path found missing
// from the dictionary: no stored triple carries it, so a rule naming
// it cannot fire.
const absent = ^TermID(0)

type env [nSlots]TermID

// reasoner reads the rules table over one graph, with the constant
// slots of voc bound. Its match callback is built once, so the
// evaluators' inner loops do not allocate.
type reasoner struct {
	g   *Graph
	voc env
	buf []tripleID
	fn  func(s, p, o TermID) bool
}

// newReasoner binds the vocabulary: write paths intern it, read-only
// ones only look it up.
func newReasoner(g *Graph, intern bool) *reasoner {
	rs := &reasoner{g: g}
	for i, v := range vocabIRIs {
		id := absent
		if intern {
			id = g.dict.Intern(NewIRI(v))
		} else if l := g.dict.Lookup(NewIRI(v)); l != NoTerm {
			id = l
		}
		rs.voc[cType+slot(i)] = id
	}
	rs.fn = func(s, p, o TermID) bool {
		rs.buf = append(rs.buf, tripleID{s, p, o})
		return true
	}
	return rs
}

// matchLocked returns the triples matching t, NoTerm a wildcard; the
// slice is valid until the next call. Holds g.mu for reading.
func (rs *reasoner) matchLocked(t tripleID) []tripleID {
	rs.buf = rs.buf[:0]
	rs.g.be.match(t.s, t.p, t.o, rs.fn)
	return rs.buf
}

// unify binds p's unbound variables to t and reports whether t matches
// p's constants and already-bound variables.
func (e *env) unify(p pattern, t tripleID) bool {
	for i, v := range [3]TermID{t.s, t.p, t.o} {
		if e[p[i]] == NoTerm {
			e[p[i]] = v
		} else if e[p[i]] != v {
			return false
		}
	}
	return true
}

// bind resolves p under e; unbound variables come back as NoTerm, the
// match wildcard.
func (e *env) bind(p pattern) tripleID { return tripleID{e[p[0]], e[p[1]], e[p[2]]} }

// consequencesLocked appends to out the conclusion of every rule
// application with t as one premise and the other premise matched in
// the graph, duplicates included. Holds g.mu for reading.
func (rs *reasoner) consequencesLocked(t tripleID, out []tripleID) []tripleID {
	for ri := range rules {
		r := &rules[ri]
		for i, p := range r.prem {
			e := rs.voc
			if !e.unify(p, t) {
				continue
			}
			q := r.prem[1-i]
			for _, u := range rs.matchLocked(e.bind(q)) {
				f := e
				if !f.unify(q, u) {
					continue
				}
				c := f.bind(r.concl)
				if !r.noLiteralSubject || rs.g.dict.Term(c.s).Kind != Literal {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// supportedLocked reports whether some rule concludes t from two
// premises present in the graph and not dead. Holds g.mu for reading.
func (rs *reasoner) supportedLocked(t tripleID, dead func(tripleID) bool) bool {
	for ri := range rules {
		r := &rules[ri]
		e := rs.voc
		if !e.unify(r.concl, t) || r.noLiteralSubject && rs.g.dict.Term(t.s).Kind == Literal {
			continue
		}
		for _, u := range rs.matchLocked(e.bind(r.prem[0])) {
			f := e
			if !f.unify(r.prem[0], u) || dead(u) {
				continue
			}
			q := f.bind(r.prem[1])
			if rs.g.be.contains(q.s, q.p, q.o) && !dead(q) {
				return true
			}
		}
	}
	return false
}

// closeFrom runs the semi-naive loop: each frontier triple's
// consequences are added, and those that were new join the frontier,
// until it is empty. It returns how many triples were added.
func (rs *reasoner) closeFrom(frontier []tripleID) int {
	g := rs.g
	added := 0
	var out []tripleID
	for len(frontier) > 0 {
		t := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		g.mu.RLock()
		out = rs.consequencesLocked(t, out[:0])
		g.mu.RUnlock()
		if len(out) == 0 {
			continue
		}
		g.mu.Lock()
		for _, c := range out {
			if g.be.add(c.s, c.p, c.o) {
				frontier = append(frontier, c)
				added++
			}
		}
		g.mu.Unlock()
	}
	return added
}

// Propagate adds ts to g and closes g under the RDFS rules, seeded only
// from the triples of ts that were new. g must already be closed, as a
// saturation maintained by the incremental reasoner is. It returns how
// many triples were added, ts included.
func Propagate(g *Graph, ts []Triple) int {
	rs := newReasoner(g, true)
	var frontier []tripleID
	for _, t := range ts {
		if id, ok := g.intern(t); ok && g.addIDs(id) {
			frontier = append(frontier, id)
		}
	}
	return len(frontier) + rs.closeFrom(frontier)
}

// SaturateInPlace adds all RDFS-entailed triples to g directly and
// returns how many were added.
func SaturateInPlace(g *Graph) int {
	rs := newReasoner(g, true)
	g.mu.RLock()
	all := rs.matchLocked(tripleID{})
	rs.buf = nil
	g.mu.RUnlock()
	return rs.closeFrom(all)
}

// Saturate returns a new in-memory graph holding g's saturation G∞. The
// input graph is not modified.
func Saturate(g *Graph) *Graph {
	out := g.Clone()
	SaturateInPlace(out)
	return out
}

// SchemaTriple reports whether t is an RDFS schema triple: one whose
// property is a rule's schema premise (subClassOf, subPropertyOf,
// domain, range). Deleting one can invalidate derivations anywhere in
// the graph, which is why the incremental reasoner recomputes for it.
func SchemaTriple(t Triple) bool {
	switch t.P {
	case NewIRI(RDFSSubClassOf), NewIRI(RDFSSubPropertyOf), NewIRI(RDFSDomain), NewIRI(RDFSRange):
		return true
	}
	return false
}

// DeltaConsequences calls emit for every one-step consequence of t: the
// conclusion of each rule application with t as either premise and
// the other premise in sat. Consequences are not deduplicated.
func DeltaConsequences(sat *Graph, t Triple, emit func(Triple)) {
	id, ok := sat.intern(t)
	if !ok {
		return
	}
	rs := newReasoner(sat, true)
	sat.mu.RLock()
	out := rs.consequencesLocked(id, nil)
	sat.mu.RUnlock()
	for _, c := range out {
		emit(sat.decode(c))
	}
}

// DerivableExcept reports whether t is the conclusion of a rule whose
// premises are both present in sat and not in dead. It is the
// re-derivation check of delete-and-rederive, computed against the
// hypothetical graph sat−dead without mutating sat. t may be present
// in sat as long as it is in dead: it can then never count as its own
// support. With a nil dead set, t must be absent from sat.
func DerivableExcept(sat *Graph, t Triple, dead map[Triple]struct{}) bool {
	id, ok := sat.lookup(t)
	if !ok {
		return false
	}
	rs := newReasoner(sat, false)
	isDead := func(u tripleID) bool {
		_, ok := dead[sat.decode(u)]
		return ok
	}
	sat.mu.RLock()
	defer sat.mu.RUnlock()
	return rs.supportedLocked(id, isDead)
}
