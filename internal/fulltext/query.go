package fulltext

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"tatooine/internal/doc"
	"tatooine/internal/value"
)

// Query is any full-text query node.
type Query interface{ isQuery() }

// TermQuery matches documents whose analyzed text field contains the
// term (the term itself is analyzed, so "États" matches "etat").
type TermQuery struct {
	Field string
	Term  string
}

func (TermQuery) isQuery() {}

// MatchQuery analyzes Text and matches documents containing the
// resulting terms; all terms are required when RequireAll is set,
// otherwise any (with ranking favouring more matches).
type MatchQuery struct {
	Field      string
	Text       string
	RequireAll bool
}

func (MatchQuery) isQuery() {}

// PhraseQuery matches consecutive terms in order.
type PhraseQuery struct {
	Field string
	Text  string
}

func (PhraseQuery) isQuery() {}

// KeywordQuery matches a keyword field exactly (case- and accent-
// insensitively): hashtags, screen names, codes.
type KeywordQuery struct {
	Field string
	Value string
}

func (KeywordQuery) isQuery() {}

// RangeQuery matches numeric or time fields within [Min, Max]
// (inclusive); a Null bound is open.
type RangeQuery struct {
	Field    string
	Min, Max value.Value
}

func (RangeQuery) isQuery() {}

// BoolQuery combines sub-queries: all of Must, at least one of Should
// (if any present), none of MustNot.
type BoolQuery struct {
	Must    []Query
	Should  []Query
	MustNot []Query
}

func (BoolQuery) isQuery() {}

// AllQuery matches every document with score 0.
type AllQuery struct{}

func (AllQuery) isQuery() {}

// Hit is one search result.
type Hit struct {
	ID    string
	Score float64
	Doc   *doc.Document
}

// SearchOptions control result shaping.
type SearchOptions struct {
	// Limit bounds the number of hits (0 means unlimited).
	Limit int
	// SortField orders hits by a numeric/time field instead of score.
	SortField string
	// SortAsc sorts ascending when SortField is set (default descending).
	SortAsc bool
}

// BM25 parameters (standard defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Search evaluates the query and returns hits ordered by descending
// BM25 score (or by SortField when given).
func (ix *Index) Search(q Query, opts SearchOptions) ([]Hit, error) {
	ix.rlockSorted()
	set, err := ix.eval(q)
	if err != nil {
		ix.mu.RUnlock()
		return nil, err
	}
	hits := make([]Hit, len(set.ids))
	for i, docID := range set.ids {
		d := ix.docs[docID]
		hits[i] = Hit{ID: d.ID, Score: set.score(i), Doc: d}
	}
	ix.mu.RUnlock()

	if opts.SortField != "" {
		sort.SliceStable(hits, func(i, j int) bool {
			vi := firstNumeric(hits[i].Doc, opts.SortField)
			vj := firstNumeric(hits[j].Doc, opts.SortField)
			if opts.SortAsc {
				return vi < vj
			}
			return vi > vj
		})
	} else {
		sort.SliceStable(hits, func(i, j int) bool {
			if hits[i].Score != hits[j].Score {
				return hits[i].Score > hits[j].Score
			}
			return hits[i].ID < hits[j].ID
		})
	}
	if opts.Limit > 0 && len(hits) > opts.Limit {
		hits = hits[:opts.Limit]
	}
	return hits, nil
}

func firstNumeric(d *doc.Document, field string) float64 {
	for _, v := range d.Values(field) {
		switch v.Kind() {
		case value.Int, value.Float:
			return v.Float()
		case value.Time:
			return float64(v.Time().UnixNano())
		case value.String:
			if c, ok := value.Coerce(v, value.Time); ok {
				return float64(c.Time().UnixNano())
			}
			if c, ok := value.Coerce(v, value.Float); ok {
				return c.Float()
			}
		}
	}
	return math.Inf(-1)
}

// docSet is the answer to a query node: ascending doc ids, one score
// each. Nil scores mean every id scores konst: keyword leaves hand out
// their posting lists that way, uncopied, so ids are never written to.
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

// eval answers the query. Caller holds the read lock from rlockSorted.
func (ix *Index) eval(q Query) (docSet, error) {
	switch x := q.(type) {
	case AllQuery:
		ids := make([]int32, len(ix.docs))
		for i := range ids {
			ids[i] = int32(i)
		}
		return docSet{ids: ids}, nil
	case TermQuery:
		terms := ix.analyzer.Tokens(x.Term)
		if len(terms) > 1 {
			terms = terms[:1]
		}
		return ix.evalTerms(x.Field, terms, false)
	case MatchQuery:
		return ix.evalTerms(x.Field, ix.analyzer.Tokens(x.Text), x.RequireAll)
	case PhraseQuery:
		return ix.evalPhrase(x.Field, x.Text)
	case KeywordQuery:
		m, ok := ix.keyword[x.Field]
		if !ok {
			if _, declared := ix.schema[x.Field]; !declared {
				return docSet{}, fmt.Errorf("fulltext: unknown keyword field %q", x.Field)
			}
			return docSet{}, nil
		}
		return docSet{ids: m[Fold(x.Value)], konst: 1}, nil
	case RangeQuery:
		return ix.evalRange(x)
	case BoolQuery:
		return ix.evalBool(x)
	default:
		return docSet{}, fmt.Errorf("fulltext: unsupported query %T", q)
	}
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

// evalTerms scores each term's postings and merges them: intersected
// when requireAll, united otherwise; a document's score is the sum of
// its term scores in term order.
func (ix *Index) evalTerms(field string, terms []string, requireAll bool) (docSet, error) {
	if _, declared := ix.schema[field]; !declared {
		return docSet{}, fmt.Errorf("fulltext: unknown field %q", field)
	}
	postingsByTerm := ix.text[field]
	sets := make([]docSet, 0, len(terms))
	for _, term := range terms {
		plist := postingsByTerm[term]
		if len(plist) == 0 {
			if requireAll {
				return docSet{}, nil
			}
			continue
		}
		sets = append(sets, ix.termSet(field, plist))
	}
	if len(sets) == 0 {
		return docSet{}, nil
	}
	if requireAll {
		return intersect(sets), nil
	}
	return union(sets), nil
}

func (ix *Index) evalPhrase(field, text string) (docSet, error) {
	terms := ix.analyzer.Tokens(text)
	scored, err := ix.evalTerms(field, terms, true)
	if err != nil {
		return docSet{}, err
	}
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
	return out, nil
}

func (ix *Index) evalRange(q RangeQuery) (docSet, error) {
	if _, declared := ix.schema[q.Field]; !declared {
		return docSet{}, fmt.Errorf("fulltext: unknown field %q", q.Field)
	}
	lo := rangeBound(q.Min, math.Inf(-1))
	hi := rangeBound(q.Max, math.Inf(1))
	entries := ix.numeric[q.Field] // sorted: the caller holds rlockSorted's lock
	// Binary search the lower bound, scan to the upper; entries are in
	// value order, so the ids are sorted and deduplicated afterwards.
	i := sort.Search(len(entries), func(i int) bool { return entries[i].val >= lo })
	var ids []int32
	for ; i < len(entries) && entries[i].val <= hi; i++ {
		ids = append(ids, entries[i].docID)
	}
	slices.Sort(ids)
	return docSet{ids: slices.Compact(ids), konst: 1}, nil
}

// rangeBound converts a RangeQuery bound to the numeric index's scale:
// numbers as is, times (or strings that parse as one) as Unix nanoseconds;
// Null or an unparsable string gives def.
func rangeBound(v value.Value, def float64) float64 {
	switch v.Kind() {
	case value.Null:
		return def
	case value.Time:
		return float64(v.Time().UnixNano())
	case value.String:
		if c, ok := value.Coerce(v, value.Time); ok {
			return float64(c.Time().UnixNano())
		}
		if c, ok := value.Coerce(v, value.Float); ok {
			return c.Float()
		}
		return def
	default:
		return v.Float()
	}
}

func (ix *Index) evalBool(q BoolQuery) (docSet, error) {
	var clauses [2][]docSet // Must, Should
	for k, qs := range [2][]Query{q.Must, q.Should} {
		for _, sub := range qs {
			s, err := ix.eval(sub)
			if err != nil {
				return docSet{}, err
			}
			clauses[k] = append(clauses[k], s)
		}
	}
	must, should := clauses[0], clauses[1]
	var acc docSet
	switch {
	case len(must) > 0 && len(should) > 0:
		acc = intersect([]docSet{intersect(must), union(should)})
	case len(must) > 0:
		acc = intersect(must)
	case len(should) > 0:
		acc = union(should)
	default:
		// Only MustNot given: start from everything (AllQuery cannot fail).
		acc, _ = ix.eval(AllQuery{})
	}
	for _, sub := range q.MustNot {
		excluded, err := ix.eval(sub)
		if err != nil {
			return docSet{}, err
		}
		acc = difference(acc, excluded)
	}
	return acc, nil
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

// union merges the sets k ways; an id's score is the sum, in the order
// of sets, of its scores in the sets holding it.
func union(sets []docSet) docSet {
	if len(sets) == 1 {
		return sets[0]
	}
	at := make([]int, len(sets))
	var out docSet
	for {
		low, found := int32(0), false
		for j, s := range sets {
			if at[j] < len(s.ids) && (!found || s.ids[at[j]] < low) {
				low, found = s.ids[at[j]], true
			}
		}
		if !found {
			return out
		}
		score := 0.0
		for j, s := range sets {
			if at[j] < len(s.ids) && s.ids[at[j]] == low {
				score += s.score(at[j])
				at[j]++
			}
		}
		out.ids = append(out.ids, low)
		out.scores = append(out.scores, score)
	}
}

// difference keeps the ids of a absent from b, galloping through b.
func difference(a, b docSet) docSet {
	out := docSet{konst: a.konst}
	k := 0
	for i, id := range a.ids {
		k = gallop(b.ids, k, id)
		if k < len(b.ids) && b.ids[k] == id {
			continue
		}
		out.ids = append(out.ids, id)
		if a.scores != nil {
			out.scores = append(out.scores, a.scores[i])
		}
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
