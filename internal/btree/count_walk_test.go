package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"tatooine/internal/pager"
)

// TestCountPrefixAndWalkMatchCursor checks CountPrefix and Walk against
// a plain Seek/Next cursor over a tree with prefixes spanning many
// leaves, one leaf and no key, overflow values, random deletes and a
// contiguous mass delete that leaves whole leaves empty. It runs on a
// resident cache and on an 8-page cache that evicts between phases.
func TestCountPrefixAndWalkMatchCursor(t *testing.T) {
	for _, cache := range []int{-1, 8} {
		t.Run(fmt.Sprintf("cache=%d", cache), func(t *testing.T) {
			pg, err := pager.Open(filepath.Join(t.TempDir(), "t.db"), pager.Options{CacheSize: cache, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer pg.Close()
			tr, err := New(pg)
			if err != nil {
				t.Fatal(err)
			}
			testCountAndWalk(t, pg, tr)
		})
	}
}

func testCountAndWalk(t *testing.T, pg *pager.Pager, tr *BTree) {
	rng := rand.New(rand.NewSource(11))
	// Group g00 holds 4,000 keys (dozens of leaves), g01 40 (about one
	// leaf), g02–g09 a few hundred each; "g10/" has no key.
	size := func(g int) int {
		switch g {
		case 0:
			return 4000
		case 1:
			return 40
		default:
			return 100 * g
		}
	}
	key := func(g, i int) []byte { return []byte(fmt.Sprintf("g%02d/%06d", g, i)) }
	value := func(i int) []byte {
		if i%97 == 0 { // longer than a leaf cell: an overflow chain
			return bytes.Repeat([]byte{byte(i)}, 5000+i%3000)
		}
		return []byte(fmt.Sprintf("v%d", i))
	}
	put := func(k, v []byte) {
		if _, err := tr.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range rng.Perm(4000) {
		put(key(0, i), value(i))
	}
	for g := 1; g < 10; g++ {
		for _, i := range rng.Perm(size(g)) {
			put(key(g, i), value(i))
		}
	}

	prefixes := [][]byte{nil, []byte("g"), []byte("g10/"), []byte("a"), []byte("zz"),
		[]byte("g00/0012"), []byte("g00/003999"), []byte("g00/003999x")}
	for g := 0; g < 10; g++ {
		prefixes = append(prefixes, []byte(fmt.Sprintf("g%02d/", g)))
	}
	type pair struct{ k, v string }
	check := func(phase string) {
		t.Helper()
		if err := pg.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, prefix := range prefixes {
			var want []pair
			c := tr.NewCursor()
			for c.Seek(prefix); c.Valid() && bytes.HasPrefix(c.Key(), prefix); c.Next() {
				want = append(want, pair{string(c.Key()), string(c.Value())})
			}
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
			n, err := tr.CountPrefix(prefix)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(want) {
				t.Fatalf("%s: CountPrefix(%q) = %d, cursor counts %d", phase, prefix, n, len(want))
			}
			var got []pair
			if err := tr.Walk(prefix, func(k, v []byte) bool {
				if !bytes.HasPrefix(k, prefix) {
					return false
				}
				got = append(got, pair{string(k), string(v)})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: Walk(%q) yields %d pairs, cursor %d", phase, prefix, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: Walk(%q) pair %d is %q (%d value bytes), cursor has %q (%d)",
						phase, prefix, i, got[i].k, len(got[i].v), want[i].k, len(want[i].v))
				}
			}
			// Walk stops at the first false.
			stop, calls := len(want)/2+1, 0
			if err := tr.Walk(prefix, func(k, v []byte) bool {
				calls++
				return calls < stop
			}); err != nil {
				t.Fatal(err)
			}
			if total := walkLen(t, tr, prefix); calls != min(stop, total) {
				t.Fatalf("%s: Walk(%q) made %d calls after fn returned false at call %d", phase, prefix, calls, stop)
			}
		}
	}
	check("inserted")

	del := func(k []byte) {
		if _, err := tr.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < 10; g++ {
		for i := 0; i < size(g); i++ {
			if rng.Intn(4) == 0 {
				del(key(g, i))
			}
		}
	}
	check("random deletes")

	// Empty whole leaves in the middle of g00 and all of g03.
	for i := 500; i < 3500; i++ {
		del(key(0, i))
	}
	for i := 0; i < size(3); i++ {
		del(key(3, i))
	}
	if n := emptyLeaves(t, pg, tr); n < 3 {
		t.Fatalf("mass delete left %d empty leaves, want several", n)
	}
	check("mass delete")

	for _, i := range rng.Perm(4000)[:300] {
		put(key(0, i), value(i))
	}
	check("refilled")
}

// walkLen counts the pairs Walk yields from prefix to the end of the
// tree.
func walkLen(t *testing.T, tr *BTree, start []byte) int {
	t.Helper()
	n := 0
	if err := tr.Walk(start, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

// emptyLeaves counts the tree's leaves that hold no cell.
func emptyLeaves(t *testing.T, pg *pager.Pager, tr *BTree) int {
	t.Helper()
	ids, err := tr.Pages()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, id := range ids {
		p, err := pg.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if pageType(p) == typeLeaf && nCells(p) == 0 {
			n++
		}
	}
	return n
}
