package source

import (
	"fmt"
	"runtime"
	"testing"

	"tatooine/internal/doc"
	"tatooine/internal/fulltext"
)

// hashtagIndex holds n tweets, all tagged #SIA2016, by two authors.
func hashtagIndex(t *testing.T, n int) *fulltext.Index {
	t.Helper()
	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"user.screen_name":  fulltext.KeywordField,
		"entities.hashtags": fulltext.KeywordField,
	})
	for i := 0; i < n; i++ {
		d := &doc.Document{ID: fmt.Sprintf("t%d", i)}
		d.Set("user.screen_name", []string{"fhollande", "jdupont"}[i%2])
		d.Set("entities.hashtags", []any{"SIA2016"})
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// An estimate reads posting-list lengths: it is exact for literal
// keyword conditions, and neither the count nor the size of what it
// allocates grows with the number of matching documents.
func TestDocSourceEstimateReadsPostingLengths(t *testing.T) {
	q := SubQuery{Language: LangSearch,
		Text: "SEARCH tweets WHERE entities.hashtags = 'sia2016' AND user.screen_name = 'JDupont' RETURN _id"}
	allocs, bytes := make(map[int]float64), make(map[int]uint64)
	for _, n := range []int{10, 4000} {
		s := NewDocSource("solr://tweets", hashtagIndex(t, n))
		if rows, cost := s.Estimate(q, 0); rows != n/2 || cost != n/2+2 {
			t.Fatalf("n=%d: estimate rows %d cost %d, want %d and %d", n, rows, cost, n/2, n/2+2)
		}
		allocs[n] = testing.AllocsPerRun(50, func() { s.Estimate(q, 0) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 50; i++ {
			s.Estimate(q, 0)
		}
		runtime.ReadMemStats(&after)
		bytes[n] = (after.TotalAlloc - before.TotalAlloc) / 50
	}
	if allocs[4000] != allocs[10] || allocs[4000] > 40 {
		t.Errorf("Estimate allocations %v by corpus size, want the same small constant", allocs)
	}
	if bytes[4000] > bytes[10]+512 {
		t.Errorf("Estimate bytes per call %v by corpus size, want them independent of it", bytes)
	}
}

// A literal = on a numeric or time field is estimated from the point
// range it reads, not from keyword postings (which such fields lack).
func TestDocSourceEstimateNumericEquality(t *testing.T) {
	ix := fulltext.NewIndex("tweets", fulltext.Schema{
		"retweet_count": fulltext.NumericField,
		"created_at":    fulltext.TimeField,
	})
	for i := 0; i < 100; i++ {
		d := &doc.Document{ID: fmt.Sprintf("t%d", i)}
		d.Set("retweet_count", []int{469, 12}[i%2])
		d.Set("created_at", []string{"2016-03-01T03:42:31Z", "2016-03-02T08:00:00Z"}[i%2])
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	s := NewDocSource("solr://tweets", ix)
	for _, where := range []string{"retweet_count = 469", "created_at = '2016-03-01T03:42:31Z'"} {
		q := SubQuery{Language: LangSearch, Text: "SEARCH tweets WHERE " + where + " RETURN _id"}
		if rows, _ := s.Estimate(q, 0); rows != 50 {
			t.Errorf("%s: estimate %d rows, want 50", where, rows)
		}
	}
}
