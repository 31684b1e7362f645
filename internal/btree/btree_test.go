package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"tatooine/internal/pager"
)

// memTree builds a tree on a fresh page file whose cache never evicts.
func memTree(t *testing.T) *BTree {
	t.Helper()
	bt, err := New(residentPager(t))
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// residentPager opens a pager on a temporary file whose cache never
// evicts, so every page stays in memory.
func residentPager(t *testing.T) *pager.Pager {
	t.Helper()
	pg, err := pager.Open(filepath.Join(t.TempDir(), "t.db"), pager.Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pg.Close() })
	return pg
}

func TestInsertGetDelete(t *testing.T) {
	bt := memTree(t)
	if _, err := bt.Insert([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	fresh, err := bt.Insert([]byte("k1"), []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if fresh {
		t.Fatal("re-insert reported fresh")
	}
	v, ok, err := bt.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v2" {
		t.Fatalf("got %q ok=%v err=%v", v, ok, err)
	}
	deleted, err := bt.Delete([]byte("k1"))
	if err != nil || !deleted {
		t.Fatalf("delete = %v, %v", deleted, err)
	}
	if _, ok, _ := bt.Get([]byte("k1")); ok {
		t.Fatal("key survived delete")
	}
	if deleted, _ := bt.Delete([]byte("k1")); deleted {
		t.Fatal("double delete reported present")
	}
}

// TestRandomAgainstMap drives the tree with a random workload and
// checks it against a Go map + sorted iteration after every phase.
func TestRandomAgainstMap(t *testing.T) {
	bt := memTree(t)
	rng := rand.New(rand.NewSource(7))
	ref := make(map[string]string)

	key := func() string { return fmt.Sprintf("key-%05d", rng.Intn(3000)) }

	for step := 0; step < 12000; step++ {
		k := key()
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("val-%d-%d", step, rng.Intn(1000))
			fresh, err := bt.Insert([]byte(k), []byte(v))
			if err != nil {
				t.Fatal(err)
			}
			_, existed := ref[k]
			if fresh == existed {
				t.Fatalf("step %d: insert %q fresh=%v but existed=%v", step, k, fresh, existed)
			}
			ref[k] = v
		case 2:
			deleted, err := bt.Delete([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			_, existed := ref[k]
			if deleted != existed {
				t.Fatalf("step %d: delete %q = %v but existed=%v", step, k, deleted, existed)
			}
			delete(ref, k)
		}
	}

	// Point lookups.
	for k, v := range ref {
		got, ok, err := bt.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(got) != v {
			t.Fatalf("get %q = %q,%v want %q", k, got, ok, v)
		}
	}

	// Full ordered scan must equal the sorted reference.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c := bt.NewCursor()
	c.Seek(nil)
	i := 0
	for ; c.Valid(); c.Next() {
		if i >= len(keys) {
			t.Fatalf("cursor yielded more than %d keys", len(keys))
		}
		if got := string(c.Key()); got != keys[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, got, keys[i])
		}
		if got := string(c.Value()); got != ref[keys[i]] {
			t.Fatalf("scan[%d] value = %q, want %q", i, got, ref[keys[i]])
		}
		i++
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("cursor yielded %d keys, want %d", i, len(keys))
	}
}

func TestSeekPositionsAtLowerBound(t *testing.T) {
	bt := memTree(t)
	for i := 0; i < 100; i += 2 { // even keys only
		k := []byte(fmt.Sprintf("%04d", i))
		if _, err := bt.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	c := bt.NewCursor()
	c.Seek([]byte("0013")) // absent odd key: next even is 0014
	if !c.Valid() || string(c.Key()) != "0014" {
		t.Fatalf("seek landed on %q valid=%v", c.Key(), c.Valid())
	}
	c.Seek([]byte("0098"))
	if !c.Valid() || string(c.Key()) != "0098" {
		t.Fatalf("exact seek landed on %q", c.Key())
	}
	c.Seek([]byte("0099")) // past the end
	if c.Valid() {
		t.Fatalf("seek past end still valid at %q", c.Key())
	}
}

func TestLargeValuesOverflow(t *testing.T) {
	bt := memTree(t)
	big := bytes.Repeat([]byte("abcdefgh"), 4096) // 32 KiB value
	if _, err := bt.Insert([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if _, err := bt.Insert([]byte("small"), []byte("s")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := bt.Get([]byte("big"))
	if err != nil || !ok {
		t.Fatalf("get big: %v %v", ok, err)
	}
	if !bytes.Equal(v, big) {
		t.Fatalf("overflow value corrupted: got %d bytes, want %d", len(v), len(big))
	}
	// Replace with a different large value.
	big2 := bytes.Repeat([]byte("12345678"), 2048)
	if _, err := bt.Insert([]byte("big"), big2); err != nil {
		t.Fatal(err)
	}
	v, _, _ = bt.Get([]byte("big"))
	if !bytes.Equal(v, big2) {
		t.Fatal("replacement of overflow value corrupted")
	}
	// Cursor must materialize overflow values too.
	c := bt.NewCursor()
	c.Seek([]byte("big"))
	if !bytes.Equal(c.Value(), big2) {
		t.Fatal("cursor overflow materialization corrupted")
	}
}

func TestKeyTooLong(t *testing.T) {
	bt := memTree(t)
	if _, err := bt.Insert(make([]byte, MaxKey+1), []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	if _, err := bt.Insert(make([]byte, MaxKey), []byte("v")); err != nil {
		t.Fatalf("max-size key rejected: %v", err)
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bt.db")
	pg, err := pager.Open(path, pager.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := New(pg)
	if err != nil {
		t.Fatal(err)
	}
	root := bt.Root()
	n := 5000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		if _, err := bt.Insert(k, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pg.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}

	pg2, err := pager.Open(path, pager.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	bt2 := Open(pg2, root)
	for _, i := range []int{0, 1, 42, n / 2, n - 1} {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v, ok, err := bt2.Get(k)
		if err != nil || !ok {
			t.Fatalf("reopen get %s: ok=%v err=%v", k, ok, err)
		}
		if string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("reopen get %s = %q", k, v)
		}
	}
	c := bt2.NewCursor()
	count := 0
	for c.Seek(nil); c.Valid(); c.Next() {
		count++
	}
	if count != n {
		t.Fatalf("reopen scan found %d keys, want %d", count, n)
	}
}

// TestLiveBytesRandomized pins the live-byte counters against a model
// through mixed insert/overwrite/delete/reinsert traffic, including
// overflow-sized values: drift here would skew the store's auto-vacuum
// trigger and its compaction bound.
func TestLiveBytesRandomized(t *testing.T) {
	tr := memTree(t)
	rng := rand.New(rand.NewSource(41))
	model := map[string]int{}
	val := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return b
	}
	for step := 0; step < 8000; step++ {
		k := fmt.Sprintf("key%04d", rng.Intn(1200))
		switch rng.Intn(3) {
		case 0, 1:
			n := rng.Intn(200)
			if rng.Intn(20) == 0 {
				n = 2000 + rng.Intn(6000) // overflow chains
			}
			v := val(n)
			if _, err := tr.Insert([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			model[k] = n
		case 2:
			if _, err := tr.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		}
		if step%1000 == 0 {
			var want int64
			for k, n := range model {
				want += int64(len(k) + n)
			}
			if got := tr.LiveBytes(); got != want {
				t.Fatalf("step %d: live bytes = %d, model = %d", step, got, want)
			}
		}
	}
	var want int64
	for k, n := range model {
		want += int64(len(k) + n)
	}
	if got := tr.LiveBytes(); got != want {
		t.Fatalf("final live bytes = %d, model = %d", got, want)
	}
}
