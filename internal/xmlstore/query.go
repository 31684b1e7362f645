package xmlstore

import (
	"fmt"
	"strings"
)

// Textual sub-query form used inside mixed queries against XML
// sources:
//
//	XPATH /speeches/speech[@speaker=?] RETURN _id, @date, title, text()
//
// The XPath selects element nodes; each RETURN item is evaluated per
// matched node: "_id" (document id), "@attr" (attribute), "name" (text
// of the first child element named name), or "text()" (the node's own
// text).

// TextQuery is a parsed XPATH sub-query.
type TextQuery struct {
	Path    *Path
	Returns []string
	// NumParams counts the '?' placeholders.
	NumParams int
}

// ParseTextQuery parses the XPATH ... RETURN ... form.
func ParseTextQuery(input string) (*TextQuery, error) {
	trimmed := strings.TrimSpace(input)
	upper := strings.ToUpper(trimmed)
	if !strings.HasPrefix(upper, "XPATH") {
		return nil, fmt.Errorf("xmlstore: query must start with XPATH")
	}
	rest := strings.TrimSpace(trimmed[len("XPATH"):])
	retIdx := strings.Index(strings.ToUpper(rest), "RETURN")
	if retIdx < 0 {
		return nil, fmt.Errorf("xmlstore: missing RETURN clause")
	}
	pathText := strings.TrimSpace(rest[:retIdx])
	path, err := ParsePath(pathText)
	if err != nil {
		return nil, err
	}
	var returns []string
	for _, part := range strings.Split(rest[retIdx+len("RETURN"):], ",") {
		item := strings.TrimSpace(part)
		if item == "" {
			return nil, fmt.Errorf("xmlstore: empty RETURN item")
		}
		returns = append(returns, item)
	}
	if len(returns) == 0 {
		return nil, fmt.Errorf("xmlstore: RETURN needs at least one item")
	}
	return &TextQuery{Path: path, Returns: returns, NumParams: path.NumParams}, nil
}

// Execute evaluates the query over every document of the store,
// returning column names (the RETURN items) and string rows.
func (q *TextQuery) Execute(s *Store, params []string) ([]string, [][]string, error) {
	if len(params) < q.NumParams {
		return nil, nil, fmt.Errorf("xmlstore: query needs %d parameters, got %d", q.NumParams, len(params))
	}
	var rows [][]string
	var evalErr error
	s.Each(func(d *Document) bool {
		nodes, err := q.Path.Eval(d.Root, params)
		if err != nil {
			evalErr = err
			return false
		}
		for _, n := range nodes {
			row := make([]string, len(q.Returns))
			for i, item := range q.Returns {
				switch {
				case item == "_id":
					row[i] = d.ID
				case item == "text()":
					row[i] = n.Text
				case strings.HasPrefix(item, "@"):
					row[i] = n.Attr(item[1:])
				default:
					row[i] = n.ChildText(item)
				}
			}
			rows = append(rows, row)
		}
		return true
	})
	if evalErr != nil {
		return nil, nil, evalErr
	}
	return q.Returns, rows, nil
}
