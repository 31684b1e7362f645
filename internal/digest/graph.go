package digest

import (
	"fmt"
	"sort"
	"strings"

	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
	"tatooine/internal/rdf"
	"tatooine/internal/relstore"
	"tatooine/internal/value"
)

// NodeKind classifies digest graph nodes.
type NodeKind uint8

const (
	// RelTable is a relational table (no value set).
	RelTable NodeKind = iota
	// RelAttribute is a relational column.
	RelAttribute
	// RDFProperty is an RDF property; its value set holds object values.
	RDFProperty
	// RDFClass is an rdf:type class; its value set holds instance IRIs.
	RDFClass
	// DocRoot is a document collection (no value set).
	DocRoot
	// DocPath is a dotted document path.
	DocPath
	// XMLRoot is an XML document collection (no value set).
	XMLRoot
	// XMLPath is an XML element or attribute path.
	XMLPath
)

func (k NodeKind) String() string {
	switch k {
	case RelTable:
		return "table"
	case RelAttribute:
		return "attribute"
	case RDFProperty:
		return "property"
	case RDFClass:
		return "class"
	case DocRoot:
		return "collection"
	case DocPath:
		return "path"
	case XMLRoot:
		return "xml-collection"
	case XMLPath:
		return "xml-path"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// EdgeKind classifies digest graph edges.
type EdgeKind uint8

const (
	// Structural links a container to its parts (table→column,
	// collection→path) or RDF properties sharing subjects.
	Structural EdgeKind = iota
	// KeyForeignKey links a foreign key column to the referenced key.
	KeyForeignKey
	// ValueOverlap links nodes (possibly across sources) whose value
	// sets overlap — the join opportunities the paper builds on.
	ValueOverlap
)

func (k EdgeKind) String() string {
	switch k {
	case Structural:
		return "structural"
	case KeyForeignKey:
		return "fk"
	case ValueOverlap:
		return "overlap"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Node is one digest graph node.
type Node struct {
	// ID is unique within a digest set: "<source>#<label>".
	ID string
	// Source is the owning source URI ("tatooine:G" for the custom graph).
	Source string
	// Label is the attribute ("table.column"), property IRI, class IRI,
	// or document path.
	Label string
	// Kind classifies the node.
	Kind NodeKind
	// Analyzed marks document paths indexed as full text (matching uses
	// CONTAINS, not keyword equality).
	Analyzed bool
	// Values summarizes the node's atomic values (nil for containers).
	Values *ValueSet
}

// Edge is one digest graph edge.
type Edge struct {
	From, To string
	Kind     EdgeKind
	// Weight is a traversal cost (shortest-path search minimizes it).
	Weight float64
}

// Digest is the digest of one source.
type Digest struct {
	Source string
	Nodes  map[string]*Node
	Edges  []Edge
}

// NewDigest creates an empty digest for a source.
func NewDigest(source string) *Digest {
	return &Digest{Source: source, Nodes: make(map[string]*Node)}
}

func (d *Digest) addNode(label string, kind NodeKind, vs *ValueSet) *Node {
	n := &Node{
		ID:     d.Source + "#" + label,
		Source: d.Source,
		Label:  label,
		Kind:   kind,
		Values: vs,
	}
	d.Nodes[n.ID] = n
	return n
}

func (d *Digest) addEdge(from, to *Node, kind EdgeKind, weight float64) {
	d.Edges = append(d.Edges, Edge{From: from.ID, To: to.ID, Kind: kind, Weight: weight})
}

// NodeList returns nodes sorted by ID.
func (d *Digest) NodeList() []*Node {
	out := make([]*Node, 0, len(d.Nodes))
	for _, n := range d.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup returns the nodes whose value sets may contain the keyword,
// plus nodes whose label itself matches (schema-term hits).
func (d *Digest) Lookup(keyword string) []*Node {
	key := Normalize(keyword)
	if key == "" {
		return nil
	}
	var out []*Node
	for _, n := range d.NodeList() {
		if Normalize(n.Label) == key {
			out = append(out, n)
			continue
		}
		if n.Values != nil && n.Values.MayContain(keyword) {
			out = append(out, n)
		}
	}
	return out
}

// ---------- builders ----------

// BuildRelational digests a relational database: a table node per
// table, an attribute node per column with its value set, structural
// table→column edges, and FK edges between attributes.
func BuildRelational(uri string, db *relstore.Database, budget Budget) *Digest {
	d := NewDigest(uri)
	attrNode := make(map[string]*Node) // "table.column" → node
	for _, t := range db.Tables() {
		schema := t.Schema()
		tNode := d.addNode(schema.Name, RelTable, nil)
		for _, col := range schema.Columns {
			vs := NewValueSet(budget)
			label := schema.Name + "." + col.Name
			aNode := d.addNode(label, RelAttribute, vs)
			attrNode[strings.ToLower(label)] = aNode
			d.addEdge(tNode, aNode, Structural, 1)
			d.addEdge(aNode, tNode, Structural, 1)
		}
	}
	// Fill value sets with a single scan per table.
	for _, t := range db.Tables() {
		schema := t.Schema()
		nodes := make([]*Node, len(schema.Columns))
		for i, col := range schema.Columns {
			nodes[i] = attrNode[strings.ToLower(schema.Name+"."+col.Name)]
		}
		t.Scan(func(row value.Row) bool {
			for i, v := range row {
				nodes[i].Values.Add(v)
			}
			return true
		})
		for _, n := range nodes {
			n.Values.Seal()
		}
	}
	// FK edges.
	for _, t := range db.Tables() {
		schema := t.Schema()
		for _, fk := range schema.ForeignKeys {
			from := attrNode[strings.ToLower(schema.Name+"."+fk.Column)]
			to := attrNode[strings.ToLower(fk.RefTable+"."+fk.RefColumn)]
			if from != nil && to != nil {
				d.addEdge(from, to, KeyForeignKey, 0.5)
				d.addEdge(to, from, KeyForeignKey, 0.5)
			}
		}
	}
	return d
}

// BuildRDF digests an RDF graph: a property node per predicate (value
// set = object values), a class node per rdf:type object (value set =
// instance IRIs), and structural edges between properties that share
// subjects (the data-derived summary of [3] in the paper, reduced to
// the property-cooccurrence quotient).
func BuildRDF(uri string, g *rdf.Graph, budget Budget) *Digest {
	d := NewDigest(uri)
	typ := rdf.NewIRI(rdf.RDFType)

	propNode := make(map[string]*Node)
	subjectsOf := make(map[string]map[string]struct{}) // property → subject keys
	for _, p := range g.Properties() {
		if p == typ {
			continue
		}
		vs := NewValueSet(budget)
		n := d.addNode(p.Value, RDFProperty, vs)
		propNode[p.Value] = n
		subjects := make(map[string]struct{})
		for _, tri := range g.Match(rdf.Term{}, p, rdf.Term{}) {
			vs.Add(termDigestValue(tri.O))
			subjects[tri.S.Key()] = struct{}{}
		}
		vs.Seal()
		subjectsOf[p.Value] = subjects
	}
	// Class nodes.
	for _, cls := range g.Objects(rdf.Term{}, typ) {
		vs := NewValueSet(budget)
		n := d.addNode(cls.Value, RDFClass, vs)
		for _, tri := range g.Match(rdf.Term{}, typ, cls) {
			vs.Add(termDigestValue(tri.S))
		}
		vs.Seal()
		// Link the class to properties used by its instances.
		instances := make(map[string]struct{})
		for _, tri := range g.Match(rdf.Term{}, typ, cls) {
			instances[tri.S.Key()] = struct{}{}
		}
		for pv, subs := range subjectsOf {
			shared := false
			for s := range instances {
				if _, ok := subs[s]; ok {
					shared = true
					break
				}
			}
			if shared {
				d.addEdge(n, propNode[pv], Structural, 1)
				d.addEdge(propNode[pv], n, Structural, 1)
			}
		}
	}
	// Property co-occurrence edges.
	props := make([]string, 0, len(propNode))
	for pv := range propNode {
		props = append(props, pv)
	}
	sort.Strings(props)
	for i := 0; i < len(props); i++ {
		for j := i + 1; j < len(props); j++ {
			if shareAny(subjectsOf[props[i]], subjectsOf[props[j]]) {
				d.addEdge(propNode[props[i]], propNode[props[j]], Structural, 1)
				d.addEdge(propNode[props[j]], propNode[props[i]], Structural, 1)
			}
		}
	}
	return d
}

func shareAny(a, b map[string]struct{}) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for k := range a {
		if _, ok := b[k]; ok {
			return true
		}
	}
	return false
}

// termDigestValue converts an RDF term to a value for digest purposes
// (IRIs keep their full text; Normalize reduces them to local names at
// match time).
func termDigestValue(t rdf.Term) value.Value {
	return value.NewString(t.Value)
}

// BuildDocument digests a full-text index: a collection root node plus
// a path node per schema field, filled from the index's stored
// documents (this is the JSON-dataguide-with-values digest of §2.2).
func BuildDocument(uri string, ix *fulltext.Index, budget Budget) *Digest {
	d := NewDigest(uri)
	root := d.addNode(ix.Name(), DocRoot, nil)
	paths := make([]string, 0, len(ix.Schema()))
	for path := range ix.Schema() {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	nodes := make(map[string]*Node, len(paths))
	for _, path := range paths {
		n := d.addNode(path, DocPath, NewValueSet(budget))
		n.Analyzed = ix.Schema()[path] == fulltext.TextField
		nodes[path] = n
		d.addEdge(root, n, Structural, 1)
		d.addEdge(n, root, Structural, 1)
	}
	analyzer := ix.Analyzer()
	ix.Each(func(dc *doc.Document) bool {
		for _, path := range paths {
			n := nodes[path]
			for _, v := range dc.Values(path) {
				if n.Analyzed {
					// Text fields digest their analyzed tokens, matching
					// how queries will probe them.
					for _, tok := range analyzer.Tokens(v.String()) {
						n.Values.Add(value.NewString(tok))
					}
					continue
				}
				n.Values.Add(v)
			}
		}
		return true
	})
	for _, n := range nodes {
		n.Values.Seal()
	}
	return d
}
