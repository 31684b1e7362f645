// Package rdf implements an in-memory RDF substrate: terms, a
// dictionary-encoded triple store with three access-path indexes,
// an N-Triples/Turtle-subset parser and serializer, RDFS entailment
// (saturation and its incremental maintenance, driven by one table of
// the six RDFS rules), and evaluation of basic graph pattern (BGP)
// queries.
//
// It is the "custom application-dependent RDF graph" component of the
// TATOOINE mixed-instance architecture, and also serves as the engine
// behind RDF data sources (LOD endpoints) in a mixed instance.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// IRI identifies a resource, e.g. http://tatooine.example/pol/POL01140.
	IRI TermKind = iota
	// Literal is a constant value, optionally typed or language-tagged.
	Literal
	// Blank is an anonymous node, scoped to one graph.
	Blank
)

func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is an RDF term. The zero Term is an empty IRI and is treated as
// invalid by Graph operations.
type Term struct {
	Kind TermKind
	// Value is the IRI string, the literal's lexical form, or the blank
	// node label (without the "_:" prefix).
	Value string
	// Datatype is the datatype IRI of a typed literal ("" for plain).
	Datatype string
	// Lang is the language tag of a language-tagged literal.
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }

// NewTypedLiteral returns a literal with a datatype IRI.
func NewTypedLiteral(v, datatype string) Term {
	return Term{Kind: Literal, Value: v, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(v, lang string) Term {
	return Term{Kind: Literal, Value: v, Lang: lang}
}

// NewBlank returns a blank node with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsZero reports whether t is the zero Term.
func (t Term) IsZero() bool {
	return t.Kind == IRI && t.Value == "" && t.Datatype == "" && t.Lang == ""
}

// Key returns a unique string encoding of the term, usable as a map key
// and stable across processes. IRIs encode as "i<iri>", literals as
// "l<lang>\x00<datatype>\x00<value>", blanks as "b<label>".
func (t Term) Key() string {
	switch t.Kind {
	case IRI:
		return "i" + t.Value
	case Literal:
		return "l" + t.Lang + "\x00" + t.Datatype + "\x00" + t.Value
	case Blank:
		return "b" + t.Value
	default:
		return "?" + t.Value
	}
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Literal:
		s := `"` + escapeLiteral(t.Value) + `"`
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" {
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	case Blank:
		return "_:" + t.Value
	default:
		return t.Value
	}
}

func escapeLiteral(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Triple is a subject-property-object statement over Terms.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax (without trailing dot).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String()
}

// Well-known vocabulary IRIs used by the RDFS entailment rules and by
// TATOOINE's custom graphs.
const (
	RDFType           = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	RDFSSubClassOf    = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	RDFSSubPropertyOf = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf"
	RDFSDomain        = "http://www.w3.org/2000/01/rdf-schema#domain"
	RDFSRange         = "http://www.w3.org/2000/01/rdf-schema#range"
	XSDInteger        = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal        = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDBoolean        = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDateTime       = "http://www.w3.org/2001/XMLSchema#dateTime"
	FOAFName          = "http://xmlns.com/foaf/0.1/name"
)

// CommonPrefixes maps the prefix names understood by default when parsing
// Turtle-style prefixed names.
var CommonPrefixes = map[string]string{
	"rdf":  "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
	"rdfs": "http://www.w3.org/2000/01/rdf-schema#",
	"xsd":  "http://www.w3.org/2001/XMLSchema#",
	"foaf": "http://xmlns.com/foaf/0.1/",
	"owl":  "http://www.w3.org/2002/07/owl#",
}
