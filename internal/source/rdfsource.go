package source

import (
	"fmt"
	"strings"

	"tatooine/internal/rdf"
	"tatooine/internal/value"
)

// TermToValue converts an RDF term to the mediator's value model. IRIs
// and blank nodes become strings (the IRI text / "_:" label), typed
// literals map to their natural kind, other literals to strings, and
// zero terms (unbound OPTIONAL variables) to Null.
func TermToValue(t rdf.Term) value.Value {
	if t.IsZero() {
		return value.NewNull()
	}
	switch t.Kind {
	case rdf.IRI:
		return value.NewString(t.Value)
	case rdf.Blank:
		return value.NewString("_:" + t.Value)
	case rdf.Literal:
		switch t.Datatype {
		case rdf.XSDInteger:
			if v, ok := value.Coerce(value.NewString(t.Value), value.Int); ok {
				return v
			}
		case rdf.XSDDecimal:
			if v, ok := value.Coerce(value.NewString(t.Value), value.Float); ok {
				return v
			}
		case rdf.XSDBoolean:
			if v, ok := value.Coerce(value.NewString(t.Value), value.Bool); ok {
				return v
			}
		case rdf.XSDDateTime:
			if v, ok := value.Coerce(value.NewString(t.Value), value.Time); ok {
				return v
			}
		}
		return value.NewString(t.Value)
	default:
		return value.NewString(t.Value)
	}
}

// ValueToTerm converts a mediator value to an RDF term for binding into
// BGPs: strings that look like absolute IRIs become IRI terms, "_:"
// strings become blank nodes, numerics/booleans become typed literals,
// everything else a plain literal.
func ValueToTerm(v value.Value) rdf.Term {
	switch v.Kind() {
	case value.String:
		s := v.Str()
		if strings.HasPrefix(s, "_:") {
			return rdf.NewBlank(s[2:])
		}
		if looksLikeIRI(s) {
			return rdf.NewIRI(s)
		}
		return rdf.NewLiteral(s)
	case value.Int:
		return rdf.NewTypedLiteral(v.String(), rdf.XSDInteger)
	case value.Float:
		return rdf.NewTypedLiteral(v.String(), rdf.XSDDecimal)
	case value.Bool:
		return rdf.NewTypedLiteral(v.String(), rdf.XSDBoolean)
	case value.Time:
		return rdf.NewTypedLiteral(v.String(), rdf.XSDDateTime)
	default:
		return rdf.NewLiteral(v.String())
	}
}

func looksLikeIRI(s string) bool {
	for _, scheme := range []string{"http://", "https://", "urn:", "mailto:", "ftp://"} {
		if strings.HasPrefix(s, scheme) {
			return true
		}
	}
	return false
}

// RDFSource exposes an rdf.Graph as a DataSource accepting BGP
// sub-queries. Queries run over the graph as given: wrap rdf.Saturate(g)
// for the paper's answer semantics over G∞.
type RDFSource struct {
	uri      string
	graph    *rdf.Graph
	prefixes map[string]string
}

// NewRDFSource wraps g.
func NewRDFSource(uri string, g *rdf.Graph) *RDFSource {
	return &RDFSource{uri: uri, graph: g}
}

// WithPrefixes sets extra prefix declarations usable in BGP texts.
func (s *RDFSource) WithPrefixes(prefixes map[string]string) *RDFSource {
	s.prefixes = prefixes
	return s
}

// Graph returns the underlying graph.
func (s *RDFSource) Graph() *rdf.Graph { return s.graph }

// URI implements DataSource.
func (s *RDFSource) URI() string { return s.uri }

// Model implements DataSource.
func (s *RDFSource) Model() Model { return RDFModel }

// Languages implements DataSource.
func (s *RDFSource) Languages() []Language { return []Language{LangBGP} }

// Execute implements DataSource. Params bind the query's InVars (see
// SubQuery.InVars) by name to constant terms before evaluation. It is
// ExecuteBatch for one tuple.
func (s *RDFSource) Execute(q SubQuery, params []value.Value) (*Result, error) {
	return single(s.ExecuteBatch(q, []value.Row{params}))
}

// ExecuteBatch implements BatchProber, VALUES-style: the BGP is parsed
// once and evaluated once per binding tuple over the in-process graph.
// The pushdown win is amortizing the parse and — when this source sits
// behind a federation endpoint — collapsing N probe round trips into
// one request.
func (s *RDFSource) ExecuteBatch(q SubQuery, paramSets []value.Row) ([]*Result, error) {
	if q.Language != LangBGP {
		return nil, fmt.Errorf("source %s: unsupported language %q", s.uri, q.Language)
	}
	bgp, err := rdf.ParseBGP(q.Text, s.prefixes)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(paramSets))
	for i, params := range paramSets {
		if len(params) != len(q.InVars) {
			return nil, fmt.Errorf("source %s: query expects %d parameters, got %d", s.uri, len(q.InVars), len(params))
		}
		init := make(rdf.Bindings, len(params))
		for j, name := range q.InVars {
			init[strings.TrimPrefix(name, "?")] = ValueToTerm(params[j])
		}
		sols, err := rdf.EvaluateBound(s.graph, bgp, init)
		if err != nil {
			return nil, err
		}
		res := &Result{Cols: sols.Vars}
		for _, row := range sols.Rows {
			vrow := make(value.Row, len(row))
			for k, t := range row {
				vrow[k] = TermToValue(t)
			}
			res.Rows = append(res.Rows, vrow)
		}
		out[i] = res
	}
	return out, nil
}

// Estimate implements Estimator: rows is the minimum pattern
// cardinality (the seed of the BGP join), cost adds one index probe
// per pattern — an in-memory graph's whole effort is walking its
// pattern indexes.
func (s *RDFSource) Estimate(q SubQuery, numParams int) (rows, cost int) {
	bgp, err := rdf.ParseBGP(q.Text, s.prefixes)
	if err != nil || len(bgp.Patterns) == 0 {
		return -1, -1
	}
	best := -1
	for _, p := range bgp.Patterns {
		var sp, pp, op rdf.Term
		if !p.S.IsVar() {
			sp = p.S.Term
		}
		if !p.P.IsVar() {
			pp = p.P.Term
		}
		if !p.O.IsVar() {
			op = p.O.Term
		}
		c := s.graph.CountMatch(sp, pp, op)
		if best < 0 || c < best {
			best = c
		}
	}
	return best, best + len(bgp.Patterns)
}
