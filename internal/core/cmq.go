// Package core implements TATOOINE's primary contribution: Conjunctive
// Mixed Queries (CMQs) over a mixed instance I = (G, D) — an
// application-dependent RDF graph G plus heterogeneous data sources D
// (§2 of the paper). A CMQ
//
//	q(x̄) :- qG(x̄0), q1(x̄1)[d1], …, qn(x̄n)[dn]
//
// conjoins a BGP over G with native sub-queries against sources, where
// each designator dᵢ is a source URI or a variable bound at run time
// (dynamic source discovery). The engine decomposes the query, orders
// sub-queries so that (i) source-designating variables are bound before
// their sources are contacted, (ii) independent sub-queries run in
// parallel, and (iii) the most selective sub-queries run first, then
// joins the sub-results in an iterator-based execution engine (§2.3).
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"tatooine/internal/rdf"
	"tatooine/internal/source"
	"tatooine/internal/value"
)

// AtomKind discriminates CMQ body atoms.
type AtomKind uint8

const (
	// GraphAtom is a BGP over the instance's custom RDF graph G.
	GraphAtom AtomKind = iota
	// SourceAtom is a native sub-query against a data source.
	SourceAtom
)

// Atom is one conjunct of a CMQ body.
type Atom struct {
	Kind AtomKind

	// Sub is the native sub-query (BGP text for GraphAtom; BGP, SQL or
	// SEARCH for SourceAtom). Sub.InVars lists the CMQ variables whose
	// bound values parameterize the sub-query (bind joins).
	Sub source.SubQuery

	// SourceURI designates the target source (SourceAtom only); empty
	// when SourceVar is used.
	SourceURI string
	// SourceVar names the CMQ variable holding the source URI at run
	// time (dynamic source discovery); empty when SourceURI is used.
	SourceVar string

	// OutVars names the CMQ variables bound by the sub-query's result
	// columns, positionally. For GraphAtoms left empty, the BGP's head
	// variables are used.
	OutVars []string
}

// Designator renders the atom's source designation for display.
func (a Atom) Designator() string {
	switch {
	case a.Kind == GraphAtom:
		return "G"
	case a.SourceVar != "":
		return "?" + a.SourceVar
	default:
		return "<" + a.SourceURI + ">"
	}
}

// CMQ is a conjunctive mixed query.
type CMQ struct {
	// Name is the query name (defaults to "q").
	Name string
	// Head lists the projected variables in output order. When
	// HeadItems is set it takes precedence (aggregated heads).
	Head []string
	// HeadItems optionally extends the head with aggregates
	// (COUNT/SUM/AVG/MIN/MAX over a variable, grouped by GroupBy).
	HeadItems []HeadItem
	// GroupBy lists the grouping variables for aggregated heads.
	GroupBy []string
	// Atoms is the conjunctive body.
	Atoms []Atom
	// Distinct removes duplicate result rows.
	Distinct bool
	// Limit bounds the result (0 = unlimited).
	Limit int
	// OrderBy optionally names a head variable to sort by.
	OrderBy string
	// OrderDesc sorts descending.
	OrderDesc bool
	// Prefixes holds PREFIX declarations local to this query, merged
	// with the instance's prefixes when evaluating graph atoms.
	Prefixes map[string]string
}

// CanonicalKey serializes every semantically significant field of the
// parsed query into an unambiguous string, usable as a cache key:
// queries differing only in insignificant surface syntax (whitespace
// between clauses, comments) parse to the same structure and share a
// key, while any difference that survives parsing — sub-query text
// byte-for-byte, prefixes, modifiers, aggregates — yields a distinct
// key. Every component is length-framed (value.Frame) so no two field
// splits collide.
func (q *CMQ) CanonicalKey() string {
	var b strings.Builder
	frame := func(s string) { value.Frame(&b, s) }
	frame(q.Name)
	for _, v := range q.Head {
		frame("h" + v)
	}
	for _, h := range q.HeadItems {
		frame(fmt.Sprintf("H%d", h.Agg))
		frame(h.Var)
		frame(h.Alias)
	}
	for _, g := range q.GroupBy {
		frame("g" + g)
	}
	for _, a := range q.Atoms {
		frame(fmt.Sprintf("a%d", a.Kind))
		frame(string(a.Sub.Language))
		frame(a.Sub.Text)
		for _, iv := range a.Sub.InVars {
			frame("i" + iv)
		}
		frame("u" + a.SourceURI)
		frame("v" + a.SourceVar)
		for _, ov := range a.OutVars {
			frame("o" + ov)
		}
	}
	// Prefixes in sorted order for determinism.
	names := make([]string, 0, len(q.Prefixes))
	for n := range q.Prefixes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		frame("p" + n)
		frame(q.Prefixes[n])
	}
	frame(fmt.Sprintf("m%v:%d:%v", q.Distinct, q.Limit, q.OrderDesc))
	frame(q.OrderBy)
	return b.String()
}

// outVars returns the atom's effective output variables, deriving them
// from a BGP head when not set explicitly.
func (a Atom) outVars(prefixes map[string]string) ([]string, error) {
	if len(a.OutVars) > 0 {
		return a.OutVars, nil
	}
	if a.Sub.Language == source.LangBGP {
		bgp, err := rdf.ParseBGP(a.Sub.Text, prefixes)
		if err != nil {
			return nil, err
		}
		if len(bgp.Head) > 0 {
			return bgp.Head, nil
		}
		return bgp.AllVars(), nil
	}
	return nil, fmt.Errorf("core: atom %s has no OUT variables", a.Designator())
}

// validate checks the query's structural rules: head variables must be
// produced by some atom, a plain variable of an aggregated head must be
// grouped, source designator variables must be produced by another
// atom, and every atom needs a source designation. It returns each
// atom's OUT variables without the '?' sigil, so the planner derives
// them (a BGP parse for a graph atom) once.
func (q *CMQ) validate(prefixes map[string]string) ([][]string, error) {
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("core: query has no body atoms")
	}
	outs := make([][]string, len(q.Atoms))
	produced := make(map[string]struct{})
	for i, a := range q.Atoms {
		if a.Kind == SourceAtom && a.SourceURI == "" && a.SourceVar == "" {
			return nil, fmt.Errorf("core: atom %d has no source designator", i)
		}
		o, err := a.outVars(prefixes)
		if err != nil {
			return nil, fmt.Errorf("core: atom %d: %w", i, err)
		}
		outs[i] = make([]string, len(o))
		for j, v := range o {
			outs[i][j] = strings.TrimPrefix(v, "?")
			produced[outs[i][j]] = struct{}{}
		}
	}
	for _, v := range q.Head {
		if _, ok := produced[v]; !ok {
			return nil, fmt.Errorf("core: head variable ?%s is not produced by any atom", v)
		}
	}
	for _, it := range q.HeadItems {
		if _, ok := produced[it.Var]; !ok {
			return nil, fmt.Errorf("core: head variable ?%s is not produced by any atom", it.Var)
		}
		if it.Agg == AggNone && !slices.Contains(q.GroupBy, it.Var) {
			return nil, fmt.Errorf("core: plain head variable ?%s must appear in GROUP BY", it.Var)
		}
	}
	for _, v := range q.GroupBy {
		if _, ok := produced[v]; !ok {
			return nil, fmt.Errorf("core: GROUP BY variable ?%s is not produced by any atom", v)
		}
	}
	if len(q.GroupBy) > 0 && len(q.HeadItems) == 0 {
		return nil, fmt.Errorf("core: GROUP BY requires an aggregated head")
	}
	for i, a := range q.Atoms {
		if a.SourceVar != "" {
			if _, ok := produced[a.SourceVar]; !ok {
				return nil, fmt.Errorf("core: atom %d: source variable ?%s is not produced by any atom", i, a.SourceVar)
			}
		}
		for _, in := range a.Sub.InVars {
			if _, ok := produced[strings.TrimPrefix(in, "?")]; !ok {
				return nil, fmt.Errorf("core: atom %d: input variable ?%s is not produced by any atom", i, in)
			}
		}
	}
	if q.OrderBy != "" {
		found := false
		for _, v := range q.Head {
			if v == q.OrderBy {
				found = true
			}
		}
		for _, it := range q.HeadItems {
			if it.Name() == q.OrderBy {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("core: ORDER BY variable ?%s is not in the head", q.OrderBy)
		}
	}
	return outs, nil
}

// String renders the CMQ in the paper's datalog-like notation.
func (q *CMQ) String() string {
	var b strings.Builder
	name := q.Name
	if name == "" {
		name = "q"
	}
	b.WriteString(name + "(")
	for i, v := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("?" + v)
	}
	b.WriteString(") :- ")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		if a.Kind == GraphAtom {
			b.WriteString("qG{" + strings.TrimSpace(a.Sub.Text) + "}")
			continue
		}
		b.WriteString(string(a.Sub.Language) + "{" + strings.TrimSpace(a.Sub.Text) + "}[" + a.Designator() + "]")
	}
	return b.String()
}
