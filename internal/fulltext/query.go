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

// Execute answers the statement against ix, params binding its '?'
// placeholders in order. Each condition reads the index into one
// docSet; the sets are intersected, the hits ordered (ORDER BY, else
// descending BM25 score then ID), cut to LIMIT and projected onto the
// RETURN paths, one row per hit. The pseudo-paths _id and _score yield
// the document ID and its score.
func (q *TextQuery) Execute(ix *Index, params []value.Value) ([]value.Row, error) {
	if len(params) < q.NumParams {
		return nil, fmt.Errorf("fulltext: query needs %d parameters, got %d", q.NumParams, len(params))
	}
	bind := func(v value.Value, param int) value.Value {
		if param >= 0 {
			return params[param]
		}
		return v
	}
	ix.rlockSorted()
	defer ix.mu.RUnlock()
	orderBy, sorted := ix.schema[q.OrderBy]
	if q.OrderBy != "" && !sorted {
		return nil, fmt.Errorf("fulltext: unknown ORDER BY field %q", q.OrderBy)
	}
	sets := make([]docSet, len(q.Conds))
	for i, c := range q.Conds {
		s, err := ix.condSet(c, bind(c.Val, c.Param), bind(c.Val2, c.Param2))
		if err != nil {
			return nil, err
		}
		sets[i] = s
	}
	var set docSet
	if len(sets) == 0 {
		set.ids = make([]int32, len(ix.docs))
		for i := range set.ids {
			set.ids[i] = int32(i)
		}
	} else {
		set = intersect(sets)
	}

	type hit struct {
		d     *doc.Document
		score float64
		num   float64 // ORDER BY key of a numeric or time field
		str   string  // ORDER BY key of a keyword or text field
	}
	hits := make([]hit, len(set.ids))
	for i, id := range set.ids {
		hits[i] = hit{d: ix.docs[id], score: set.score(i)}
		if !sorted {
			continue
		}
		if orderBy == NumericField || orderBy == TimeField {
			hits[i].num = firstNumeric(hits[i].d, q.OrderBy)
		} else if vals := hits[i].d.Values(q.OrderBy); len(vals) > 0 {
			hits[i].str = Fold(vals[0].String())
		}
	}
	if sorted {
		slices.SortStableFunc(hits, func(a, b hit) int {
			c := cmp.Or(strings.Compare(a.str, b.str), cmp.Compare(a.num, b.num))
			if q.Desc {
				return -c
			}
			return c
		})
	} else {
		slices.SortFunc(hits, func(a, b hit) int {
			return cmp.Or(cmp.Compare(b.score, a.score), strings.Compare(a.d.ID, b.d.ID))
		})
	}
	if q.Limit > 0 && len(hits) > q.Limit {
		hits = hits[:q.Limit]
	}

	width := len(q.Returns)
	cells := make([]value.Value, len(hits)*width)
	rows := make([]value.Row, len(hits))
	for i, h := range hits {
		row := value.Row(cells[i*width : (i+1)*width : (i+1)*width])
		for j, path := range q.Returns {
			switch path {
			case "_id":
				row[j] = value.NewString(h.d.ID)
			case "_score":
				row[j] = value.NewFloat(h.score)
			default:
				row[j], _ = h.d.First(q.returnSteps[j]) // Null when the path holds nothing
			}
		}
		rows[i] = row
	}
	return rows, nil
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
// uncopied, so ids are never written to.
type docSet struct {
	ids    []int32
	scores []float64
	konst  float64
}

func (s docSet) score(i int) float64 {
	if s.scores == nil {
		return s.konst
	}
	return s.scores[i]
}

// condSet answers one condition with its bound values v (and v2, the
// upper bound of BETWEEN). Caller holds the read lock from rlockSorted.
func (ix *Index) condSet(c Cond, v, v2 value.Value) (docSet, error) {
	ft, declared := ix.schema[c.Field]
	if !declared {
		return docSet{}, fmt.Errorf("fulltext: unknown field %q", c.Field)
	}
	numeric := ft == NumericField || ft == TimeField
	switch {
	case c.Op == CondEq && !numeric:
		return docSet{ids: ix.keyword[c.Field][Fold(v.String())], konst: 1}, nil
	case c.Op == CondContains:
		return ix.matchAll(c.Field, ix.analyzer.Tokens(v.String())), nil
	case c.Op == CondPhrase:
		return ix.phrase(c.Field, ix.analyzer.Tokens(v.String())), nil
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
		return docSet{}, nil
	}
	return ix.rangeSet(c.Field, lo, hi), nil
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

// intersect keeps the ids present in every set. The smallest set drives;
// each other set is galloped through from where its last match left off.
// Scores are summed in the order of sets, not the driving order, so they
// are the same whichever set is smallest.
func intersect(sets []docSet) docSet {
	if len(sets) == 1 {
		return sets[0]
	}
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(sets[a].ids) - len(sets[b].ids) })
	konst := true
	for _, s := range sets {
		konst = konst && s.scores == nil
	}
	at := make([]int, len(sets))
	sum := func() float64 {
		s := sets[0].score(at[0])
		for j := 1; j < len(sets); j++ {
			s += sets[j].score(at[j])
		}
		return s
	}
	var out docSet
next:
	for i, id := range sets[order[0]].ids {
		at[order[0]] = i
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
