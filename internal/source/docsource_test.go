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
