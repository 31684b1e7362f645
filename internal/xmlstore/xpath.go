package xmlstore

import (
	"fmt"
	"strings"
)

// XPath subset: location paths over the element tree.
//
//	/speeches/speech                absolute child steps
//	//speech                        descendant-or-self
//	/speeches/*/title               wildcard element
//	/speeches/speech[@speaker='X']  attribute equality predicate
//	/speeches/speech[topic='Y']     child-text equality predicate
//
// A path selects elements; a trailing @attr or text() is refused (a
// sub-query's RETURN clause selects attributes and text). Predicate
// values may be '?' parameters, bound at evaluation (the
// mediator's bind joins push outer values there).

// Step is one location step.
type Step struct {
	// Descendant marks '//' (descendant-or-self search).
	Descendant bool
	// Name is the element name ("*" matches any).
	Name string
	// Preds are the step's predicates (all must hold).
	Preds []Predicate
}

// Predicate is an equality test on an attribute or child text.
type Predicate struct {
	// Attr is true for [@name='v'], false for [child='v'].
	Attr bool
	// Name is the attribute or child element name.
	Name string
	// Value is the literal; Param >= 0 marks the n-th '?' parameter.
	Value string
	Param int
}

// Path is a parsed XPath expression: its location steps.
type Path struct {
	Steps []Step
	// NumParams counts '?' placeholders in document order.
	NumParams int
}

// ParsePath parses the XPath subset.
func ParsePath(expr string) (*Path, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" || expr[0] != '/' {
		return nil, fmt.Errorf("xmlstore: xpath must start with '/': %q", expr)
	}
	p := &Path{}
	i := 0
	params := 0
	for i < len(expr) {
		if expr[i] != '/' {
			return nil, fmt.Errorf("xmlstore: expected '/' at %d in %q", i, expr)
		}
		i++
		step := Step{}
		if i < len(expr) && expr[i] == '/' {
			step.Descendant = true
			i++
		}
		if strings.HasPrefix(expr[i:], "@") || expr[i:] == "text()" {
			return nil, fmt.Errorf("xmlstore: the XPATH of a sub-query must select elements (selectors go in RETURN)")
		}
		// Element name.
		j := i
		for j < len(expr) && expr[j] != '/' && expr[j] != '[' {
			j++
		}
		step.Name = expr[i:j]
		if step.Name == "" {
			return nil, fmt.Errorf("xmlstore: empty step name in %q", expr)
		}
		i = j
		// Predicates (a step may carry several).
		for i < len(expr) && expr[i] == '[' {
			end := strings.IndexByte(expr[i:], ']')
			if end < 0 {
				return nil, fmt.Errorf("xmlstore: unterminated predicate in %q", expr)
			}
			pred, np, err := parsePredicate(expr[i+1:i+end], params)
			if err != nil {
				return nil, err
			}
			params = np
			step.Preds = append(step.Preds, *pred)
			i += end + 1
		}
		p.Steps = append(p.Steps, step)
	}
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("xmlstore: empty path %q", expr)
	}
	p.NumParams = params
	return p, nil
}

func parsePredicate(s string, params int) (*Predicate, int, error) {
	s = strings.TrimSpace(s)
	pred := &Predicate{Param: -1}
	if strings.HasPrefix(s, "@") {
		pred.Attr = true
		s = s[1:]
	}
	eq := strings.IndexByte(s, '=')
	if eq < 0 {
		return nil, params, fmt.Errorf("xmlstore: predicate must be an equality: %q", s)
	}
	pred.Name = strings.TrimSpace(s[:eq])
	if pred.Name == "" {
		return nil, params, fmt.Errorf("xmlstore: empty predicate name in %q", s)
	}
	rhs := strings.TrimSpace(s[eq+1:])
	switch {
	case rhs == "?":
		pred.Param = params
		params++
	case len(rhs) >= 2 && rhs[0] == '\'' && rhs[len(rhs)-1] == '\'':
		pred.Value = rhs[1 : len(rhs)-1]
	default:
		return nil, params, fmt.Errorf("xmlstore: predicate value must be quoted or '?': %q", rhs)
	}
	return pred, params, nil
}

// Eval evaluates the path over a document root, with params bound to
// the '?' placeholders, and returns the matched element nodes.
func (p *Path) Eval(root *Node, params []string) ([]*Node, error) {
	if len(params) < p.NumParams {
		return nil, fmt.Errorf("xmlstore: path needs %d parameters, got %d", p.NumParams, len(params))
	}
	cur := []*Node{}
	// The first step matches the root (or searches from it for //).
	first := p.Steps[0]
	if first.Descendant {
		collectDescendants(root, first.Name, &cur)
	} else if nameMatches(first.Name, root.Name) {
		cur = append(cur, root)
	}
	cur = filterPreds(cur, first.Preds, params)

	for _, step := range p.Steps[1:] {
		var next []*Node
		for _, n := range cur {
			if step.Descendant {
				for _, c := range n.Children {
					collectDescendants(c, step.Name, &next)
				}
			} else {
				for _, c := range n.Children {
					if nameMatches(step.Name, c.Name) {
						next = append(next, c)
					}
				}
			}
		}
		cur = filterPreds(next, step.Preds, params)
	}

	return cur, nil
}

func nameMatches(pattern, name string) bool {
	return pattern == "*" || pattern == name
}

// collectDescendants gathers n and all descendants matching name.
func collectDescendants(n *Node, name string, out *[]*Node) {
	if nameMatches(name, n.Name) {
		*out = append(*out, n)
	}
	for _, c := range n.Children {
		collectDescendants(c, name, out)
	}
}

func filterPreds(nodes []*Node, preds []Predicate, params []string) []*Node {
	if len(preds) == 0 {
		return nodes
	}
	var out []*Node
	for _, n := range nodes {
		keep := true
		for _, pred := range preds {
			want := pred.Value
			if pred.Param >= 0 {
				want = params[pred.Param]
			}
			var got string
			if pred.Attr {
				got = n.Attr(pred.Name)
			} else {
				got = n.ChildText(pred.Name)
			}
			if got != want {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, n)
		}
	}
	return out
}
