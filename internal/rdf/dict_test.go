package rdf

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"tatooine/internal/store"
)

func TestDictionaryInternLookupRoundTrip(t *testing.T) {
	d := NewDictionary()
	terms := []Term{
		NewIRI("http://example.org/a"),
		NewLiteral("plain"),
		NewTypedLiteral("42", XSDInteger),
		NewLangLiteral("bonjour", "fr"),
		NewBlank("b0"),
		NewLiteral(""), // empty lexical form is a valid literal
	}
	ids := make([]TermID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Intern(tm)
		if ids[i] == NoTerm {
			t.Fatalf("intern(%v) returned NoTerm", tm)
		}
	}
	for i, tm := range terms {
		if got := d.Lookup(tm); got != ids[i] {
			t.Fatalf("lookup(%v) = %d, want %d", tm, got, ids[i])
		}
		if got := d.Term(ids[i]); got != tm {
			t.Fatalf("term(%d) = %v, want %v", ids[i], got, tm)
		}
		if again := d.Intern(tm); again != ids[i] {
			t.Fatalf("re-intern(%v) = %d, want %d", tm, again, ids[i])
		}
	}
	if d.Len() != len(terms) {
		t.Fatalf("len = %d, want %d", d.Len(), len(terms))
	}
	if d.Lookup(NewIRI("never-seen")) != NoTerm {
		t.Fatal("lookup of unseen term != NoTerm")
	}
	if !d.Term(NoTerm).IsZero() || !d.Term(TermID(999)).IsZero() {
		t.Fatal("out-of-range Term() not zero")
	}
}

// TestDictionaryConcurrentIntern hammers Intern from many goroutines
// with overlapping term sets; run under -race this pins the
// double-checked locking, and the assertions pin ID uniqueness.
func TestDictionaryConcurrentIntern(t *testing.T) {
	d := NewDictionary()
	const workers = 8
	const perWorker = 500
	results := make([][]TermID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]TermID, perWorker)
			for i := 0; i < perWorker; i++ {
				// All workers intern the same 500 terms, racing on each.
				ids[i] = d.Intern(NewIRI(fmt.Sprintf("http://example.org/t%d", i)))
			}
			results[w] = ids
		}(w)
	}
	wg.Wait()
	if d.Len() != perWorker {
		t.Fatalf("len = %d, want %d (duplicate assignment under race)", d.Len(), perWorker)
	}
	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d term %d got id %d, worker 0 got %d",
					w, i, results[w][i], results[0][i])
			}
		}
	}
}

// TestDictionaryIDStabilityAcrossReopen pins the core warm-restart
// invariant: a persisted dictionary reassigns the SAME TermID to every
// term after reopen, so persisted triple keys stay valid.
func TestDictionaryIDStabilityAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.db")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A hot cache far smaller than the term count forces the reopened
	// dictionary to page terms in from disk rather than answer from
	// memory.
	d, err := openPagedDictionary(st, "d", 2)
	if err != nil {
		t.Fatal(err)
	}
	terms := []Term{
		NewIRI("http://example.org/a"),
		NewLangLiteral("hûllo\x1fodd", "en-GB"),
		NewTypedLiteral("2016-01-01T00:00:00Z", XSDDateTime),
		NewBlank("gen7"),
		NewLiteral("with\x00embedded-nul-free? no: datatype uses \\x00 separators"),
	}
	ids := make([]TermID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Intern(tm)
	}
	if err := d.storeErr(); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	d2, err := openPagedDictionary(st2, "d", 2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != len(terms) {
		t.Fatalf("reopened len = %d, want %d", d2.Len(), len(terms))
	}
	for i, tm := range terms {
		if got := d2.Lookup(tm); got != ids[i] {
			t.Fatalf("reopened lookup(%v) = %d, want %d", tm, got, ids[i])
		}
		if got := d2.Term(ids[i]); got != tm {
			t.Fatalf("reopened term(%d) = %v, want %v", ids[i], got, tm)
		}
	}
	// New terms continue the sequence, not restart it.
	if id := d2.Intern(NewIRI("http://example.org/new")); id != TermID(len(terms)+1) {
		t.Fatalf("post-reopen intern id = %d, want %d", id, len(terms)+1)
	}
}

func TestDecodeTermKeyRejectsMalformed(t *testing.T) {
	for _, bad := range []string{"", "lnosep", "l\x00onesep", "zunknown"} {
		if _, err := decodeTermKey(bad); err == nil {
			t.Fatalf("decodeTermKey(%q) succeeded", bad)
		}
	}
}

// TestPagedDictionaryRoundTripSmallHotCache interns far more terms
// than the hot cache holds, reopens, and asserts every ID and term
// round-trips — i.e. correctness never depends on cache residency.
func TestPagedDictionaryRoundTripSmallHotCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.db")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := openPagedDictionary(st, "d", 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	mk := func(i int) Term {
		switch i % 4 {
		case 0:
			return NewIRI(fmt.Sprintf("http://example.org/people/person%d", i))
		case 1:
			return NewIRI(fmt.Sprintf("http://data.example.com/votes#v%d", i))
		case 2:
			return NewLiteral(fmt.Sprintf("value %d", i))
		default:
			return NewBlank(fmt.Sprintf("b%d", i))
		}
	}
	ids := make([]TermID, n)
	for i := 0; i < n; i++ {
		ids[i] = d.Intern(mk(i))
	}
	if d.Len() != n {
		t.Fatalf("len = %d, want %d", d.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := d.Term(ids[i]); got != mk(i) {
			t.Fatalf("term(%d) = %v, want %v", ids[i], got, mk(i))
		}
		if got := d.Lookup(mk(i)); got != ids[i] {
			t.Fatalf("lookup(%v) = %d, want %d", mk(i), got, ids[i])
		}
	}
	if err := d.storeErr(); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	d2, err := openPagedDictionary(st2, "d", 8)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != n {
		t.Fatalf("reopened len = %d, want %d", d2.Len(), n)
	}
	// Walk in an order unfriendly to an 8-entry LRU.
	for step := 0; step < n; step++ {
		i := (step * 37) % n
		if got := d2.Term(ids[i]); got != mk(i) {
			t.Fatalf("reopened term(%d) = %v, want %v", ids[i], got, mk(i))
		}
		if got := d2.Lookup(mk(i)); got != ids[i] {
			t.Fatalf("reopened lookup = %d, want %d", got, ids[i])
		}
		if again := d2.Intern(mk(i)); again != ids[i] {
			t.Fatalf("reopened re-intern = %d, want %d", again, ids[i])
		}
	}
	// New terms continue the ID sequence.
	if id := d2.Intern(NewIRI("http://example.org/people/new")); id != TermID(n+1) {
		t.Fatalf("post-reopen intern id = %d, want %d", id, n+1)
	}
}

// TestPagedDictionaryConcurrentIntern is the paged-mode sibling of
// TestDictionaryConcurrentIntern: 8 workers race on overlapping term
// sets through the store-backed path (run under -race).
func TestPagedDictionaryConcurrentIntern(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "d.db"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := openPagedDictionary(st, "d", 32)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 300
	results := make([][]TermID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]TermID, perWorker)
			for i := 0; i < perWorker; i++ {
				ids[i] = d.Intern(NewIRI(fmt.Sprintf("http://example.org/t/%d", i)))
			}
			results[w] = ids
		}(w)
	}
	wg.Wait()
	if err := d.storeErr(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != perWorker {
		t.Fatalf("len = %d, want %d (duplicate assignment under race)", d.Len(), perWorker)
	}
	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d term %d got id %d, worker 0 got %d",
					w, i, results[w][i], results[0][i])
			}
		}
	}
}
