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
	var out []value.Value
	walk(d.Fields, strings.Split(path, "."), func(v value.Value) bool {
		out = append(out, v)
		return true
	})
	return out
}

// First returns the first value Values gives for the path split into
// its steps at the dots, and whether there is one, without building
// the list.
func (d *Document) First(steps []string) (value.Value, bool) {
	var first value.Value
	found := false
	walk(d.Fields, steps, func(v value.Value) bool {
		first, found = v, true
		return false
	})
	return first, found
}

// walk calls fn on each scalar at steps below cur, in document order,
// until fn returns false; it reports whether fn asked to go on.
func walk(cur any, steps []string, fn func(value.Value) bool) bool {
	if len(steps) == 0 {
		switch v := cur.(type) {
		case []any:
			for _, e := range v {
				if !walk(e, nil, fn) {
					return false
				}
			}
			return true
		case map[string]any:
			return true // objects are not scalars
		default:
			return fn(toValue(v))
		}
	}
	switch v := cur.(type) {
	case map[string]any:
		if next, ok := v[steps[0]]; ok {
			return walk(next, steps[1:], fn)
		}
	case []any:
		for _, e := range v {
			if !walk(e, steps, fn) {
				return false
			}
		}
	}
	return true
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
