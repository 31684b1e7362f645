// Package xmlstore implements TATOOINE's structured-text substrate:
// XML documents (laws, regulations, public speeches — §1/§2.1 of the
// paper) stored as element trees and queried with an XPath subset.
// Like the other substrates it is exposed to the mediator through a
// source adapter accepting a textual sub-query language.
package xmlstore

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Node is one XML element.
type Node struct {
	Name     string
	Attrs    map[string]string
	Children []*Node
	// Text is the concatenated character data directly under the
	// element (trimmed).
	Text string
}

// Attr returns an attribute value ("" when absent).
func (n *Node) Attr(name string) string { return n.Attrs[name] }

// ChildText returns the text of the first child with the given name.
func (n *Node) ChildText(name string) string {
	for _, c := range n.Children {
		if c.Name == name {
			return c.Text
		}
	}
	return ""
}

// Parse decodes one XML document into its root element.
func Parse(data []byte) (*Node, error) {
	dec := xml.NewDecoder(strings.NewReader(string(data)))
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			return nil, fmt.Errorf("xmlstore: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Name: t.Name.Local, Attrs: make(map[string]string)}
			for _, a := range t.Attr {
				n.Attrs[a.Name.Local] = a.Value
			}
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			} else if root == nil {
				root = n
			} else {
				return nil, fmt.Errorf("xmlstore: multiple root elements")
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmlstore: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				text := strings.TrimSpace(string(t))
				if text != "" {
					cur := stack[len(stack)-1]
					if cur.Text != "" {
						cur.Text += " "
					}
					cur.Text += text
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmlstore: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmlstore: unclosed element %s", stack[len(stack)-1].Name)
	}
	return root, nil
}

// Paths returns the distinct element and attribute paths of the tree
// ("speeches/speech/title", "speeches/speech/@date"), for dataguides
// and digests.
func (n *Node) Paths() []string {
	seen := make(map[string]struct{})
	var walk func(cur *Node, prefix string)
	walk = func(cur *Node, prefix string) {
		p := cur.Name
		if prefix != "" {
			p = prefix + "/" + cur.Name
		}
		if cur.Text != "" {
			seen[p] = struct{}{}
		}
		for a := range cur.Attrs {
			seen[p+"/@"+a] = struct{}{}
		}
		for _, c := range cur.Children {
			walk(c, p)
		}
	}
	walk(n, "")
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Store is a named collection of XML documents, safe for concurrent
// use.
type Store struct {
	mu   sync.RWMutex
	name string
	docs []*Document
	byID map[string]int
}

// Document is one stored XML document.
type Document struct {
	ID   string
	Root *Node
}

// NewStore creates an empty store.
func NewStore(name string) *Store {
	return &Store{name: name, byID: make(map[string]int)}
}

// Name returns the store name.
func (s *Store) Name() string { return s.name }

// Add parses and stores a document; IDs must be unique.
func (s *Store) Add(id string, data []byte) error {
	root, err := Parse(data)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byID[id]; dup {
		return fmt.Errorf("xmlstore: duplicate document ID %q", id)
	}
	s.byID[id] = len(s.docs)
	s.docs = append(s.docs, &Document{ID: id, Root: root})
	return nil
}

// Count returns the number of documents.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// Each calls fn for every document until it returns false.
func (s *Store) Each(fn func(d *Document) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, d := range s.docs {
		if !fn(d) {
			return
		}
	}
}
