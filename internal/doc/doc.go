// Package doc implements TATOOINE's semi-structured document model: the
// JSON shape of tweets and Facebook posts (Figure 2 of the paper), with
// dotted-path access.
package doc

import (
	"fmt"
	"strings"

	"tatooine/internal/value"
)

// Document is one JSON document with an identifier. Fields holds the
// decoded JSON object: maps, slices, strings, float64, bool, nil.
type Document struct {
	ID     string
	Fields map[string]any
}

// Values returns the scalar values at a dotted path, flattening arrays
// encountered at any step. A path into objects nested inside arrays
// ("entities.urls.expanded") collects from every array element.
func (d *Document) Values(path string) []value.Value {
	steps := strings.Split(path, ".")
	var out []value.Value
	collect(d.Fields, steps, &out)
	return out
}

func collect(cur any, steps []string, out *[]value.Value) {
	if len(steps) == 0 {
		switch v := cur.(type) {
		case []any:
			for _, e := range v {
				collect(e, nil, out)
			}
		case map[string]any:
			// Objects are not scalars; stop.
		default:
			*out = append(*out, toValue(v))
		}
		return
	}
	switch v := cur.(type) {
	case map[string]any:
		next, ok := v[steps[0]]
		if !ok {
			return
		}
		collect(next, steps[1:], out)
	case []any:
		for _, e := range v {
			collect(e, steps, out)
		}
	}
}

func toValue(v any) value.Value {
	switch x := v.(type) {
	case nil:
		return value.NewNull()
	case string:
		return value.NewString(x)
	case bool:
		return value.NewBool(x)
	case float64:
		if x == float64(int64(x)) {
			return value.NewInt(int64(x))
		}
		return value.NewFloat(x)
	case int:
		return value.NewInt(int64(x))
	case int64:
		return value.NewInt(x)
	case float32:
		return value.NewFloat(float64(x))
	default:
		return value.NewString(fmt.Sprint(x))
	}
}

// Set stores a value at a dotted path, creating intermediate objects.
func (d *Document) Set(path string, v any) {
	if d.Fields == nil {
		d.Fields = make(map[string]any)
	}
	steps := strings.Split(path, ".")
	cur := d.Fields
	for _, step := range steps[:len(steps)-1] {
		next, ok := cur[step].(map[string]any)
		if !ok {
			next = make(map[string]any)
			cur[step] = next
		}
		cur = next
	}
	cur[steps[len(steps)-1]] = v
}
