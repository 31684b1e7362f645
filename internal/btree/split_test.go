package btree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tatooine/internal/pager"
)

// checkModel asserts that tr holds exactly model: Walk from the start
// yields its pairs in key order, Get finds each value and misses each
// key of absent, CountPrefix agrees on every prefix, and the live-byte
// counter equals the model's payload.
func checkModel(t *testing.T, tr *BTree, model map[string]string, absent []string, prefixes []string) {
	t.Helper()
	keys := make([]string, 0, len(model))
	var live int64
	for k, v := range model {
		keys = append(keys, k)
		live += int64(len(k) + len(v))
	}
	sort.Strings(keys)
	i := 0
	if err := tr.Walk(nil, func(k, v []byte) bool {
		if i >= len(keys) || string(k) != keys[i] || string(v) != model[keys[i]] {
			i = -1
			return false
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("Walk disagrees with the model (%d keys) at pair %d", len(keys), i)
	}
	for _, k := range keys {
		v, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(v) != model[k] {
			t.Fatalf("Get(%.16q… len %d) = %d bytes, %v, %v; model has %d bytes", k, len(k), len(v), ok, err, len(model[k]))
		}
	}
	for _, k := range absent {
		if _, ok := model[k]; ok {
			continue
		}
		if _, ok, err := tr.Get([]byte(k)); err != nil || ok {
			t.Fatalf("Get(%.16q…) of an absent key = %v, %v", k, ok, err)
		}
	}
	for _, prefix := range prefixes {
		want := 0
		for _, k := range keys {
			if strings.HasPrefix(k, prefix) {
				want++
			}
		}
		got, err := tr.CountPrefix([]byte(prefix))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("CountPrefix(%q) = %d, model counts %d", prefix, got, want)
		}
	}
	if got := tr.LiveBytes(); got != live {
		t.Fatalf("LiveBytes = %d, model = %d", got, live)
	}
}

// interiorPages returns the number of interior pages of tr.
func interiorPages(t *testing.T, pg *pager.Pager, tr *BTree) int {
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
		if pageType(p) == typeInterior {
			n++
		}
	}
	return n
}

// TestInteriorSplitsMatchModel drives trees whose keys run up to MaxKey
// bytes, so that interior pages hold a handful of routers and split
// often, and checks Walk, Get and CountPrefix against a model map before
// and after a commit and reopen.
func TestInteriorSplitsMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.db")
			pg, err := pager.Open(path, pager.Options{CacheSize: -1, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { pg.Close() }()
			tr, err := New(pg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			model := map[string]string{}
			var order, absent []string
			key := func() string {
				n := 8 + rng.Intn(MaxKey-7)
				if rng.Intn(3) == 0 {
					n = MaxKey - rng.Intn(8)
				}
				b := []byte(fmt.Sprintf("%c%08d", 'a'+rng.Intn(6), rng.Intn(1e8)))
				for len(b) < n {
					b = append(b, byte('a'+rng.Intn(26)))
				}
				return string(b[:n])
			}
			for inserts := 0; inserts < 3000; {
				if rng.Intn(7) == 0 && len(order) > 0 {
					j := rng.Intn(len(order))
					k := order[j]
					order[j] = order[len(order)-1]
					order = order[:len(order)-1]
					if _, err := tr.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
					absent = append(absent, k)
					continue
				}
				k := key()
				v := strings.Repeat(string(rune('A'+rng.Intn(26))), rng.Intn(512))
				if rng.Intn(10) == 0 {
					v += strings.Repeat("o", 2000+rng.Intn(6000))
				}
				if _, ok := model[k]; !ok {
					order = append(order, k)
				}
				if _, err := tr.Insert([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
				inserts++
			}
			prefixes := []string{"", "a", "b0", "c1", "f", "g", "d000", "e9"}
			for _, k := range order[:10] {
				prefixes = append(prefixes, k[:12], k)
			}
			absent = append(absent, "", "zz", order[0]+"x")
			checkModel(t, tr, model, absent, prefixes)
			if interior := interiorPages(t, pg, tr); interior < 300 {
				t.Fatalf("tree has %d interior pages, want at least 300", interior)
			}

			live := tr.LiveBytes()
			if err := pg.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := pg.Close(); err != nil {
				t.Fatal(err)
			}
			if pg, err = pager.Open(path, pager.Options{CacheSize: 64, NoSync: true}); err != nil {
				t.Fatal(err)
			}
			tr = Open(pg, tr.Root())
			tr.SetLiveBytes(live)
			checkModel(t, tr, model, absent, prefixes)
		})
	}
}

// TestLeafSplitPointsUnchanged pins where leaves split: every leaf's
// first key and cell count after a fixed 40,000-key insert sequence
// (short and near-MaxKey keys, inline and overflow values) must match
// testdata/leaf_splits.golden. The file records the split rule's
// choices and is not regenerated when the split code changes.
func TestLeafSplitPointsUnchanged(t *testing.T) {
	got := leafShape(t)
	want, err := os.ReadFile(filepath.Join("testdata", "leaf_splits.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("leaf %d is %q, golden has %q (%d leaves, golden %d)", i, g[i], w[i], len(g)-1, len(w)-1)
			}
		}
		t.Fatalf("tree has %d leaves, golden %d", len(g)-1, len(w)-1)
	}
}

// leafShape inserts the fixed sequence into a fresh tree and returns one
// line per leaf, in key order: the leaf's first key (its 7-byte unique
// head, then its length) and its cell count.
func leafShape(t *testing.T) string {
	pg := residentPager(t)
	tr, err := New(pg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	for _, id := range rng.Perm(40000) {
		n := 8 + rng.Intn(33)
		if rng.Intn(16) == 0 {
			n = 200 + rng.Intn(MaxKey-199)
		}
		k := []byte(fmt.Sprintf("k%06d", id))
		for len(k) < n {
			k = binary.BigEndian.AppendUint32(k, rng.Uint32())
		}
		v := make([]byte, rng.Intn(100))
		if rng.Intn(25) == 0 {
			v = make([]byte, 2000+rng.Intn(3000))
		}
		if _, err := tr.Insert(k[:n], v); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := tr.Pages()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, id := range ids {
		p, err := pg.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if pageType(p) == typeLeaf {
			k := cellKey(p, 0)
			fmt.Fprintf(&b, "%s %d %d\n", k[:7], len(k), nCells(p))
		}
	}
	return b.String()
}

// FuzzBTreeOps decodes its input into inserts, replacements, runs of
// inserts and deletes, five bytes an operation: kind, a 16-bit key id,
// the key length (up to MaxKey) and the value length (up to ~11 KB, so
// values span overflow chains). After every batch of eight operations
// and at the end, the tree must match a model map under Get, Walk and
// CountPrefix.
func FuzzBTreeOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 10, 3, 0, 0, 2, 255, 255, 2, 0, 1, 10, 0})
	rng := rand.New(rand.NewSource(1))
	var seed []byte
	for i := 0; i < 120; i++ {
		kind := byte(3) // mostly runs of long keys: interior pages split
		if i%4 == 0 {
			kind = byte(rng.Intn(3))
		}
		seed = append(seed, kind, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(200+rng.Intn(56)), byte(rng.Intn(256)))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := memTree(t)
		model := map[string]string{}
		var keys, absent []string
		key := func(id uint16, n int) string {
			b := binary.BigEndian.AppendUint16(nil, id)
			for i := 0; len(b) < n; i++ {
				b = append(b, byte(id)+byte(i))
			}
			return string(b[:n])
		}
		put := func(k, v string) {
			if _, err := tr.Insert([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			if _, ok := model[k]; !ok {
				keys = append(keys, k)
			}
			model[k] = v
		}
		check := func() {
			prefixes := []string{"", "\x00", "\xff"}
			for _, k := range keys[:min(len(keys), 8)] {
				prefixes = append(prefixes, k[:1], k[:min(len(k), 2)], k)
			}
			checkModel(t, tr, model, absent, prefixes)
		}
		for op := 0; len(data) >= 5 && op < 128; op++ {
			id := binary.BigEndian.Uint16(data[1:])
			klen := 1 + int(data[3])*(MaxKey-1)/255
			vlen := int(data[4]) * int(data[4]) / 6
			v := strings.Repeat(string(rune('a'+op%26)), vlen)
			switch data[0] % 4 {
			case 0:
				put(key(id, klen), v)
			case 1: // replace a key already inserted
				if len(keys) > 0 {
					put(keys[int(id)%len(keys)], v)
				}
			case 2:
				k := key(id, klen)
				if len(keys) > 0 && id%2 == 0 {
					k = keys[int(id)%len(keys)]
				}
				if _, err := tr.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
				absent = append(absent, k)
			case 3: // a run of consecutive ids with short values
				for i := 0; i <= int(data[4])%16; i++ {
					put(key(id+uint16(i), klen), v[:min(len(v), 8)])
				}
			}
			data = data[5:]
			if op%8 == 7 {
				check()
			}
		}
		check()
	})
}
