package fulltext

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"tatooine/internal/doc"
	"tatooine/internal/value"
)

// BM25 parameters (standard defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// ExecuteBatch answers the statement against ix once per parameter
// tuple, each binding the '?' placeholders in order, all under one read
// lock; result i holds tuple i's rows. Each condition reads the index
// into one docSet; the sets are intersected, the hits ordered (ORDER
// BY, else descending BM25 score then ID), cut to LIMIT and projected
// onto the RETURN paths, one row per hit. The pseudo-paths _id and
// _score yield the document ID and its score.
//
// The fixed conditions (no '?') are read once per batch. When the
// batch has more than one tuple and each fixed condition scores a
// constant, as keyword and range conditions do, their conjunction
// becomes a bitmap that each tuple's sets are filtered through instead
// of galloped against. Schema paths are read from the index's columns,
// and every row of the batch is cut from one cell array.
func (q *TextQuery) ExecuteBatch(ix *Index, paramSets []value.Row) ([][]value.Row, error) {
	for _, params := range paramSets {
		if len(params) < q.NumParams {
			return nil, fmt.Errorf("fulltext: query needs %d parameters, got %d", q.NumParams, len(params))
		}
	}
	if len(paramSets) == 0 {
		return nil, nil
	}
	ix.rlockSorted(q.Returns...)
	defer ix.mu.RUnlock()
	orderBy, sorted := ix.schema[q.OrderBy]
	if q.OrderBy != "" && !sorted {
		return nil, fmt.Errorf("fulltext: unknown ORDER BY field %q", q.OrderBy)
	}
	for _, c := range q.Conds {
		if _, declared := ix.schema[c.Field]; !declared {
			return nil, fmt.Errorf("fulltext: unknown field %q", c.Field)
		}
	}

	sets := make([]docSet, len(q.Conds))
	var fixed []docSet // the answers of the conditions without a parameter
	konst := true
	for i, c := range q.Conds {
		if c.Param < 0 && c.Param2 < 0 {
			sets[i] = ix.condSet(c, c.Val, c.Val2)
			fixed = append(fixed, sets[i])
			konst = konst && sets[i].scores == nil
		}
	}
	bound := len(fixed) < len(q.Conds)
	var set docSet // the answer, when no condition takes a parameter
	switch {
	case !bound && len(sets) == 0:
		set.ids = make([]int32, len(ix.docs))
		for i := range set.ids {
			set.ids[i] = int32(i)
		}
	case !bound:
		set = intersect(sets)
	case konst && len(fixed) > 0 && len(paramSets) > 1:
		in := make([]uint64, (len(ix.docs)+63)/64)
		for _, id := range intersect(fixed).ids {
			in[id>>6] |= 1 << (id & 63)
		}
		for i, c := range q.Conds {
			if c.Param < 0 && c.Param2 < 0 {
				sets[i] = docSet{in: in, konst: sets[i].konst}
			}
		}
	}

	tupleSets := make([]docSet, len(paramSets))
	total := 0
	for t, params := range paramSets {
		if bound {
			for i, c := range q.Conds {
				if c.Param >= 0 || c.Param2 >= 0 {
					sets[i] = ix.condSet(c, bind(c.Val, c.Param, params), bind(c.Val2, c.Param2, params))
				}
			}
			set = intersect(sets)
		}
		tupleSets[t] = set
		total += len(set.ids)
	}

	hits := make([]hit, 0, total)
	ends := make([]int, len(paramSets))
	for t, set := range tupleSets {
		start := len(hits)
		for i, id := range set.ids {
			hits = append(hits, hit{id: id, score: set.score(i)})
		}
		if sorted {
			ix.orderBy(hits[start:], q.OrderBy, orderBy, q.Desc)
		} else {
			slices.SortFunc(hits[start:], func(a, b hit) int {
				return cmp.Or(cmp.Compare(b.score, a.score), strings.Compare(ix.docs[a.id].ID, ix.docs[b.id].ID))
			})
		}
		if q.Limit > 0 && len(hits)-start > q.Limit {
			hits = hits[:start+q.Limit]
		}
		ends[t] = len(hits)
	}

	width := len(q.Returns)
	cols := make([][]value.Value, width)
	for j, path := range q.Returns {
		cols[j] = ix.cols[path]
	}
	cells := make([]value.Value, len(hits)*width)
	rows := make([]value.Row, len(hits))
	for i, h := range hits {
		row := value.Row(cells[i*width : (i+1)*width : (i+1)*width])
		for j, path := range q.Returns {
			switch {
			case path == "_id":
				row[j] = value.NewString(ix.docs[h.id].ID)
			case path == "_score":
				row[j] = value.NewFloat(h.score)
			case cols[j] != nil:
				row[j] = cols[j][h.id]
			default:
				row[j], _ = ix.docs[h.id].First(q.returnSteps[j]) // Null when the path holds nothing
			}
		}
		rows[i] = row
	}
	out := make([][]value.Row, len(paramSets))
	start := 0
	for t, end := range ends {
		out[t] = rows[start:end:end]
		start = end
	}
	return out, nil
}

// bind is a condition's operand: params[param], or the literal v when
// param is -1.
func bind(v value.Value, param int, params value.Row) value.Value {
	if param >= 0 {
		return params[param]
	}
	return v
}

// hit is one document of a tuple's answer: its doc id and its score.
type hit struct {
	id    int32
	score float64
}

// orderBy sorts hits by field's ORDER BY key: a numeric or time field's
// first numeric value, else the first value folded; ties keep their
// order, which is doc id order.
func (ix *Index) orderBy(hits []hit, field string, ft FieldType, desc bool) {
	type keyed struct {
		hit
		num float64
		str string
	}
	ks := make([]keyed, len(hits))
	for i, h := range hits {
		ks[i].hit = h
		if ft == NumericField || ft == TimeField {
			ks[i].num = firstNumeric(ix.docs[h.id], field)
		} else if vals := ix.docs[h.id].Values(field); len(vals) > 0 {
			ks[i].str = Fold(vals[0].String())
		}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int {
		c := cmp.Or(strings.Compare(a.str, b.str), cmp.Compare(a.num, b.num))
		if desc {
			return -c
		}
		return c
	})
	for i := range ks {
		hits[i] = ks[i].hit
	}
}

// firstNumeric is a numeric or time field's ORDER BY key: its first
// value that reads as a number or a time, -Inf when none does.
func firstNumeric(d *doc.Document, field string) float64 {
	for _, v := range d.Values(field) {
		if f, ok := rangeBound(v); ok {
			return f
		}
	}
	return math.Inf(-1)
}

// docSet is the answer to one condition, or to their conjunction:
// ascending doc ids, one score each. Nil scores mean every id scores
// konst: keyword conditions hand out their posting lists that way,
// uncopied, so ids are never written to. A set with in is instead the
// doc ids whose bits are set there, each scoring konst; only intersect
// reads it, as a filter.
type docSet struct {
	ids    []int32
	scores []float64
	konst  float64
	in     []uint64
}

func (s docSet) score(i int) float64 {
	if s.scores == nil {
		return s.konst
	}
	return s.scores[i]
}

// condSet answers one condition on a schema field with its bound
// values v (and v2, the upper bound of BETWEEN). Caller holds the read
// lock from rlockSorted.
func (ix *Index) condSet(c Cond, v, v2 value.Value) docSet {
	ft := ix.schema[c.Field]
	numeric := ft == NumericField || ft == TimeField
	switch {
	case c.Op == CondEq && !numeric:
		return docSet{ids: ix.keyword[c.Field][Fold(v.String())], konst: 1}
	case c.Op == CondContains:
		return ix.matchAll(c.Field, ix.analyzer.Tokens(v.String()))
	case c.Op == CondPhrase:
		return ix.phrase(c.Field, ix.analyzer.Tokens(v.String()))
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	ok, ok2 := true, true
	switch c.Op {
	case CondEq:
		lo, ok = rangeBound(v)
		hi = lo
	case CondGe:
		lo, ok = rangeBound(v)
	case CondLe:
		hi, ok = rangeBound(v)
	case CondBetween:
		lo, ok = rangeBound(v)
		hi, ok2 = rangeBound(v2)
	}
	if !ok || !ok2 {
		return docSet{}
	}
	return ix.rangeSet(c.Field, lo, hi)
}

// termSet scores one term's postings with BM25.
func (ix *Index) termSet(field string, plist []posting) docSet {
	n, df := float64(len(ix.docs)), float64(len(plist))
	avgLen := 1.0
	if n > 0 && ix.totalLen[field] > 0 {
		avgLen = float64(ix.totalLen[field]) / n
	}
	idf := math.Log(1 + (n-df+0.5)/(df+0.5))
	docLen := ix.docLen[field] // Add records a length for every posting's doc
	s := docSet{ids: make([]int32, len(plist)), scores: make([]float64, len(plist))}
	for i, p := range plist {
		tf, dl := float64(len(p.positions)), float64(docLen[p.docID])
		s.ids[i] = p.docID
		s.scores[i] = idf * (tf * (bm25K1 + 1)) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgLen))
	}
	return s
}

// matchAll is CONTAINS: the documents holding every term, each scoring
// the sum of its term scores in term order. No terms match nothing.
func (ix *Index) matchAll(field string, terms []string) docSet {
	if len(terms) == 0 {
		return docSet{}
	}
	sets := make([]docSet, len(terms))
	for i, term := range terms {
		plist := ix.text[field][term]
		if len(plist) == 0 {
			return docSet{}
		}
		sets[i] = ix.termSet(field, plist)
	}
	return intersect(sets)
}

// phrase is PHRASE: the matchAll documents in which the terms occur
// consecutively, in order, keeping their matchAll scores.
func (ix *Index) phrase(field string, terms []string) docSet {
	scored := ix.matchAll(field, terms)
	postingsByTerm := ix.text[field]
	positionsOf := func(term string, docID int32) []uint32 {
		plist := postingsByTerm[term]
		i := sort.Search(len(plist), func(i int) bool { return plist[i].docID >= docID })
		if i < len(plist) && plist[i].docID == docID {
			return plist[i].positions
		}
		return nil
	}
	var out docSet
	for i, docID := range scored.ids {
		for _, start := range positionsOf(terms[0], docID) {
			match := true
			for k := 1; k < len(terms) && match; k++ {
				match = slices.Contains(positionsOf(terms[k], docID), start+uint32(k))
			}
			if match {
				out.ids = append(out.ids, docID)
				out.scores = append(out.scores, scored.score(i))
				break
			}
		}
	}
	return out
}

// rangeSet is the documents with a value of field in [lo, hi], each
// scoring 1.
func (ix *Index) rangeSet(field string, lo, hi float64) docSet {
	entries := ix.numeric[field] // sorted: the caller holds rlockSorted's lock
	// Binary search the lower bound, scan to the upper; entries are in
	// value order, so the ids are sorted and deduplicated afterwards.
	i := sort.Search(len(entries), func(i int) bool { return entries[i].val >= lo })
	var ids []int32
	for ; i < len(entries) && entries[i].val <= hi; i++ {
		ids = append(ids, entries[i].docID)
	}
	slices.Sort(ids)
	return docSet{ids: slices.Compact(ids), konst: 1}
}

// rangeBound puts a bound on the numeric index's scale: numbers as is,
// times (or strings that parse as one) as Unix nanoseconds. Anything
// else, NULL included, is not a bound (ok false).
func rangeBound(v value.Value) (float64, bool) {
	switch v.Kind() {
	case value.Int, value.Float:
		return v.Float(), true
	case value.Time:
		return float64(v.Time().UnixNano()), true
	case value.String:
		if c, ok := value.Coerce(v, value.Time); ok {
			return float64(c.Time().UnixNano()), true
		}
		if c, ok := value.Coerce(v, value.Float); ok {
			return c.Float(), true
		}
	}
	return 0, false
}

// intersect keeps the ids present in every set. The smallest list
// drives; each bitmap is tested and each other list galloped through
// from where its last match left off. Scores are summed in the order of
// sets, not the driving order, so they are the same whichever set is
// smallest. At least one set must be a list.
func intersect(sets []docSet) docSet {
	if len(sets) == 1 {
		return sets[0]
	}
	var order, bitmaps []int
	konst := true
	for i, s := range sets {
		if s.in != nil {
			bitmaps = append(bitmaps, i)
		} else {
			order = append(order, i)
		}
		konst = konst && s.scores == nil
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(sets[a].ids) - len(sets[b].ids) })
	at := make([]int, len(sets))
	sum := func() float64 {
		s := sets[0].score(at[0])
		for j := 1; j < len(sets); j++ {
			s += sets[j].score(at[j])
		}
		return s
	}
	out := docSet{ids: make([]int32, 0, len(sets[order[0]].ids))}
next:
	for i, id := range sets[order[0]].ids {
		at[order[0]] = i
		for _, j := range bitmaps {
			if sets[j].in[id>>6]&(1<<(id&63)) == 0 {
				continue next
			}
		}
		for _, j := range order[1:] {
			at[j] = gallop(sets[j].ids, at[j], id)
			if at[j] == len(sets[j].ids) {
				break next
			}
			if sets[j].ids[at[j]] != id {
				continue next
			}
		}
		out.ids = append(out.ids, id)
		if !konst {
			out.scores = append(out.scores, sum())
		}
	}
	if konst {
		out.konst = sum()
	}
	return out
}

// gallop returns the first index k >= lo with ids[k] >= target, or
// len(ids): doubling steps bracket the answer, a binary search finds it.
func gallop(ids []int32, lo int, target int32) int {
	hi, step := lo, 1
	for hi < len(ids) && ids[hi] < target {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	k, _ := slices.BinarySearch(ids[lo:min(hi, len(ids))], target)
	return lo + k
}
