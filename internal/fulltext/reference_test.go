package fulltext

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"tatooine/internal/doc"
	"tatooine/internal/value"
)

// This file keeps the map-based evaluator that the sorted-list one
// replaced, as the reference the differential test compares Search
// with. Each query node materializes docID → score; conjunctions
// intersect by lookup. Per-posting BM25 scores come from the same
// termSet as the production evaluator, so the comparison checks how
// scores are combined, bit for bit.

func (ix *Index) refSearch(q Query, opts SearchOptions) ([]Hit, error) {
	ix.mu.RLock()
	scores, err := ix.refEval(q)
	if err != nil {
		ix.mu.RUnlock()
		return nil, err
	}
	hits := make([]Hit, 0, len(scores))
	for docID, score := range scores {
		d := ix.docs[docID]
		hits = append(hits, Hit{ID: d.ID, Score: score, Doc: d})
	}
	ix.mu.RUnlock()
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if opts.Limit > 0 && len(hits) > opts.Limit {
		hits = hits[:opts.Limit]
	}
	return hits, nil
}

func (ix *Index) refEval(q Query) (map[int32]float64, error) {
	switch x := q.(type) {
	case AllQuery:
		out := make(map[int32]float64, len(ix.docs))
		for i := range ix.docs {
			out[int32(i)] = 0
		}
		return out, nil
	case TermQuery:
		terms := ix.analyzer.Tokens(x.Term)
		if len(terms) > 1 {
			terms = terms[:1]
		}
		return ix.refEvalTerms(x.Field, terms, false)
	case MatchQuery:
		return ix.refEvalTerms(x.Field, ix.analyzer.Tokens(x.Text), x.RequireAll)
	case PhraseQuery:
		return ix.refEvalPhrase(x.Field, x.Text)
	case KeywordQuery:
		m, ok := ix.keyword[x.Field]
		out := make(map[int32]float64)
		if !ok {
			if _, declared := ix.schema[x.Field]; !declared {
				return nil, fmt.Errorf("fulltext: unknown keyword field %q", x.Field)
			}
			return out, nil
		}
		for _, id := range m[Fold(x.Value)] {
			out[id] = 1
		}
		return out, nil
	case RangeQuery:
		return ix.refEvalRange(x)
	case BoolQuery:
		return ix.refEvalBool(x)
	default:
		return nil, fmt.Errorf("fulltext: unsupported query %T", q)
	}
}

func (ix *Index) refEvalTerms(field string, terms []string, requireAll bool) (map[int32]float64, error) {
	if _, declared := ix.schema[field]; !declared {
		return nil, fmt.Errorf("fulltext: unknown field %q", field)
	}
	postingsByTerm := ix.text[field]
	out := make(map[int32]float64)
	if len(terms) == 0 || postingsByTerm == nil {
		return out, nil
	}
	matchCount := make(map[int32]int)
	for _, term := range terms {
		plist := postingsByTerm[term]
		if len(plist) == 0 {
			continue
		}
		ts := ix.termSet(field, plist)
		for i, id := range ts.ids {
			out[id] += ts.scores[i]
			matchCount[id]++
		}
	}
	if requireAll {
		for id, c := range matchCount {
			if c < len(terms) {
				delete(out, id)
			}
		}
	}
	return out, nil
}

func (ix *Index) refEvalPhrase(field, text string) (map[int32]float64, error) {
	if _, declared := ix.schema[field]; !declared {
		return nil, fmt.Errorf("fulltext: unknown field %q", field)
	}
	terms := ix.analyzer.Tokens(text)
	out := make(map[int32]float64)
	if len(terms) == 0 {
		return out, nil
	}
	scored, err := ix.refEvalTerms(field, terms, true)
	if err != nil {
		return nil, err
	}
	positionsOf := func(term string, docID int32) []uint32 {
		for _, p := range ix.text[field][term] {
			if p.docID == docID {
				return p.positions
			}
		}
		return nil
	}
	for docID, score := range scored {
		for _, start := range positionsOf(terms[0], docID) {
			match := true
			for k := 1; k < len(terms) && match; k++ {
				match = slices.Contains(positionsOf(terms[k], docID), start+uint32(k))
			}
			if match {
				out[docID] = score
				break
			}
		}
	}
	return out, nil
}

func (ix *Index) refEvalRange(q RangeQuery) (map[int32]float64, error) {
	if _, declared := ix.schema[q.Field]; !declared {
		return nil, fmt.Errorf("fulltext: unknown field %q", q.Field)
	}
	lo := rangeBound(q.Min, math.Inf(-1))
	hi := rangeBound(q.Max, math.Inf(1))
	out := make(map[int32]float64)
	entries := ix.sortedNumeric(q.Field)
	i := sort.Search(len(entries), func(i int) bool { return entries[i].val >= lo })
	for ; i < len(entries) && entries[i].val <= hi; i++ {
		out[entries[i].docID] = 1
	}
	return out, nil
}

func (ix *Index) refEvalBool(q BoolQuery) (map[int32]float64, error) {
	var acc map[int32]float64
	for _, sub := range q.Must {
		scores, err := ix.refEval(sub)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = scores
			continue
		}
		for id := range acc {
			s, ok := scores[id]
			if !ok {
				delete(acc, id)
				continue
			}
			acc[id] += s
		}
	}
	if len(q.Should) > 0 {
		shouldScores := make(map[int32]float64)
		for _, sub := range q.Should {
			scores, err := ix.refEval(sub)
			if err != nil {
				return nil, err
			}
			for id, s := range scores {
				shouldScores[id] += s
			}
		}
		if acc == nil {
			acc = shouldScores
		} else {
			for id := range acc {
				s, ok := shouldScores[id]
				if !ok {
					delete(acc, id)
					continue
				}
				acc[id] += s
			}
		}
	}
	if acc == nil {
		acc, _ = ix.refEval(AllQuery{})
	}
	for _, sub := range q.MustNot {
		scores, err := ix.refEval(sub)
		if err != nil {
			return nil, err
		}
		for id := range scores {
			delete(acc, id)
		}
	}
	return acc, nil
}

// Small vocabularies make terms, tags and values collide often, so
// conjunctions, phrases and duplicates all have something to match.
var (
	diffWords = []string{"solidarité", "agriculteurs", "salon", "urgence", "état", "nationale", "débat", "parlement"}
	diffTags  = []string{"SIA2016", "EtatDurgence", "Agriculture", "COP21"}
	diffUsers = []string{"fhollande", "jdupont", "amartin"}
)

func randomIndex(r *rand.Rand) *Index {
	ix := NewIndex("tweets", tweetSchema())
	n := r.Intn(80)
	for i := 0; i < n; i++ {
		d := &doc.Document{ID: fmt.Sprintf("d%03d", r.Intn(1000)*1000+i)}
		if r.Intn(8) > 0 {
			words := make([]string, 1+r.Intn(10))
			for k := range words {
				words[k] = diffWords[r.Intn(len(diffWords))]
			}
			d.Set("text", strings.Join(words, " "))
		}
		if r.Intn(8) > 0 {
			d.Set("user.screen_name", diffUsers[r.Intn(len(diffUsers))])
		}
		tags := make([]any, r.Intn(4))
		for k := range tags {
			tags[k] = diffTags[r.Intn(len(diffTags))]
		}
		d.Set("entities.hashtags", tags)
		switch r.Intn(3) {
		case 0:
			d.Set("retweet_count", r.Intn(20))
		case 1:
			d.Set("retweet_count", []any{r.Intn(20), r.Intn(20)})
		}
		if err := ix.Add(d); err != nil {
			panic(err)
		}
	}
	return ix
}

func randomText(r *rand.Rand) string {
	words := make([]string, r.Intn(4))
	for k := range words {
		words[k] = diffWords[r.Intn(len(diffWords))]
	}
	return strings.Join(words, " ")
}

func randomQuery(r *rand.Rand, depth int) Query {
	leaves := 6
	if depth > 0 {
		leaves++
	}
	switch r.Intn(leaves) {
	case 0:
		return MatchQuery{Field: "text", Text: randomText(r), RequireAll: r.Intn(2) == 0}
	case 1:
		return PhraseQuery{Field: "text", Text: randomText(r)}
	case 2:
		return KeywordQuery{Field: "entities.hashtags", Value: diffTags[r.Intn(len(diffTags))]}
	case 3:
		return KeywordQuery{Field: "user.screen_name", Value: diffUsers[r.Intn(len(diffUsers))]}
	case 4:
		lo := r.Intn(20)
		return RangeQuery{Field: "retweet_count", Min: value.NewInt(int64(lo)), Max: value.NewInt(int64(lo + r.Intn(10)))}
	case 5:
		if r.Intn(4) == 0 {
			return AllQuery{}
		}
		return TermQuery{Field: "text", Term: randomText(r)}
	default:
		clause := func(max int) []Query {
			qs := make([]Query, r.Intn(max+1))
			for k := range qs {
				qs[k] = randomQuery(r, depth-1)
			}
			return qs
		}
		return BoolQuery{Must: clause(4), Should: clause(3), MustNot: clause(2)}
	}
}

func TestSearchMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		ix := randomIndex(r)
		for k := 0; k < 30; k++ {
			q := randomQuery(r, 3)
			opts := SearchOptions{}
			if r.Intn(4) == 0 {
				opts.Limit = 1 + r.Intn(5)
			}
			got, err := ix.Search(q, opts)
			if err != nil {
				t.Fatalf("round %d: %#v: %v", round, q, err)
			}
			want, _ := ix.refSearch(q, opts)
			if len(got) != len(want) {
				t.Fatalf("round %d: %#v: %d hits, reference %d", round, q, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("round %d: %#v: hit %d is %s/%v, reference %s/%v",
						round, q, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
				}
			}
		}
	}
}
