package core

import (
	"fmt"
	"strings"

	"tatooine/internal/value"
)

// AggKind enumerates mediator-level aggregate functions, used in CMQ
// heads ("find the most prolific tweet authors of that affiliation",
// §1, requires grouping and counting over the joined result).
type AggKind uint8

const (
	AggNone AggKind = iota
	AggCount
	AggCountDistinct
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (k AggKind) String() string {
	switch k {
	case AggNone:
		return ""
	case AggCount:
		return "COUNT"
	case AggCountDistinct:
		return "COUNT DISTINCT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// HeadItem is one output column of a CMQ head: a plain variable or an
// aggregate over a variable.
type HeadItem struct {
	// Var is the variable projected or aggregated.
	Var string
	// Agg is AggNone for a plain projection.
	Agg AggKind
	// Alias names the output column (and is addressable in ORDER BY);
	// it defaults to Var or "agg_var".
	Alias string
}

// Name returns the output column name.
func (h HeadItem) Name() string {
	if h.Alias != "" {
		return h.Alias
	}
	if h.Agg == AggNone {
		return h.Var
	}
	return strings.ToLower(strings.ReplaceAll(h.Agg.String(), " ", "_")) + "_" + h.Var
}

func (h HeadItem) String() string {
	s := "?" + h.Var
	if h.Agg == AggCountDistinct {
		s = "COUNT(DISTINCT ?" + h.Var + ")"
	} else if h.Agg != AggNone {
		s = h.Agg.String() + "(?" + h.Var + ")"
	}
	if h.Alias != "" && h.Alias != h.Var {
		s += " AS ?" + h.Alias
	}
	return s
}

// aggItem is one output column of an aggregated head: agg over the
// input position pos, or (AggNone) the group's value at pos.
type aggItem struct {
	agg AggKind
	pos int
}

// aggregateIterator groups its input by the key positions and computes
// one output column per item, emitting one row per group. Without key
// positions the whole input is one group, so an empty input still
// yields one row: COUNT 0 and NULL for the other aggregates, as SQL
// does.
type aggregateIterator struct {
	in    Iterator
	group []int
	items []aggItem
	rows  []value.Row
	pos   int
}

func newAggregate(in Iterator, group []int, items []aggItem) *aggregateIterator {
	return &aggregateIterator{in: in, group: group, items: items}
}

type aggState struct {
	distinct map[string]struct{}
	sum      float64
	sumInt   int64
	isFloat  bool
	min, max value.Value
	nonNull  int
}

func (a *aggregateIterator) Open() error {
	if err := a.in.Open(); err != nil {
		return err
	}

	type group struct {
		rep    value.Row
		states []aggState
	}
	groups := make(map[string]*group)
	var order []*group
	newGroup := func(rep value.Row) *group {
		g := &group{rep: rep, states: make([]aggState, len(a.items))}
		for i, it := range a.items {
			if it.agg == AggCountDistinct {
				g.states[i].distinct = make(map[string]struct{})
			}
		}
		order = append(order, g)
		return g
	}

	// key is one scratch buffer for every group and distinct key: a
	// lookup reads it in place, and only a new group or a new distinct
	// value is copied into a string.
	var key []byte
	for {
		row, ok, err := a.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		key = key[:0]
		for _, p := range a.group {
			key = value.AppendKeyFrame(key, row[p])
		}
		g, seen := groups[string(key)]
		if !seen {
			g = newGroup(row.Clone())
			groups[string(key)] = g
		}
		for i, it := range a.items {
			if it.agg == AggNone {
				continue
			}
			st := &g.states[i]
			v := row[it.pos]
			if v.IsNull() {
				continue
			}
			st.nonNull++
			switch it.agg {
			case AggCountDistinct:
				key = value.AppendKey(key[:0], v)
				if _, dup := st.distinct[string(key)]; !dup {
					st.distinct[string(key)] = struct{}{}
				}
			case AggSum, AggAvg:
				switch v.Kind() {
				case value.Int:
					st.sumInt += v.Int()
					st.sum += v.Float()
				case value.Float:
					st.isFloat = true
					st.sum += v.Float()
				default:
					return fmt.Errorf("core: %s over non-numeric value %s", it.agg, v)
				}
			case AggMin:
				if st.min.IsNull() || value.Less(v, st.min) {
					st.min = v
				}
			case AggMax:
				if st.max.IsNull() || value.Less(st.max, v) {
					st.max = v
				}
			}
		}
	}

	if len(order) == 0 && len(a.group) == 0 {
		newGroup(nil)
	}
	a.rows = a.rows[:0]
	for _, g := range order {
		out := make(value.Row, len(a.items))
		for i, it := range a.items {
			st := &g.states[i]
			switch it.agg {
			case AggNone:
				out[i] = g.rep[it.pos]
			case AggCount:
				out[i] = value.NewInt(int64(st.nonNull))
			case AggCountDistinct:
				out[i] = value.NewInt(int64(len(st.distinct)))
			case AggSum:
				if st.nonNull == 0 {
					out[i] = value.NewNull()
				} else if st.isFloat {
					out[i] = value.NewFloat(st.sum)
				} else {
					out[i] = value.NewInt(st.sumInt)
				}
			case AggAvg:
				if st.nonNull == 0 {
					out[i] = value.NewNull()
				} else {
					out[i] = value.NewFloat(st.sum / float64(st.nonNull))
				}
			case AggMin:
				out[i] = st.min
			case AggMax:
				out[i] = st.max
			}
		}
		a.rows = append(a.rows, out)
	}
	a.pos = 0
	return nil
}

func (a *aggregateIterator) Next() (value.Row, bool, error) {
	if a.pos >= len(a.rows) {
		return nil, false, nil
	}
	row := a.rows[a.pos]
	a.pos++
	return row, true, nil
}

func (a *aggregateIterator) Close() error { return a.in.Close() }
