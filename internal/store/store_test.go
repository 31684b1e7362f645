package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"tatooine/internal/pager"
)

// runBoth runs a subtest against the memory backend and the disk
// backend, so every KV behavior is pinned backend-agnostically.
func runBoth(t *testing.T, fn func(t *testing.T, st Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		st := Mem()
		defer st.Close()
		fn(t, st)
	})
	t.Run("disk", func(t *testing.T) {
		st, err := Open(filepath.Join(t.TempDir(), "s.db"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		fn(t, st)
	})
}

func TestKVBasics(t *testing.T) {
	runBoth(t, func(t *testing.T, st Store) {
		kv, err := st.Keyspace("k")
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := kv.Put([]byte("a"), []byte("1"))
		if err != nil || !fresh {
			t.Fatalf("put: fresh=%v err=%v", fresh, err)
		}
		if fresh, _ := kv.Put([]byte("a"), []byte("2")); fresh {
			t.Fatal("overwrite reported fresh")
		}
		v, ok, err := kv.Get([]byte("a"))
		if err != nil || !ok || string(v) != "2" {
			t.Fatalf("get = %q,%v,%v", v, ok, err)
		}
		if kv.Len() != 1 {
			t.Fatalf("len = %d", kv.Len())
		}
		if del, _ := kv.Delete([]byte("a")); !del {
			t.Fatal("delete missed")
		}
		if kv.Len() != 0 {
			t.Fatalf("len after delete = %d", kv.Len())
		}
	})
}

func TestScanOrderAndPrefix(t *testing.T) {
	runBoth(t, func(t *testing.T, st Store) {
		kv, _ := st.Keyspace("k")
		for _, k := range []string{"b/2", "a/1", "b/1", "c/1", "a/2", "b/3"} {
			if _, err := kv.Put([]byte(k), []byte("v"+k)); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		if err := kv.Scan([]byte("b/"), func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		want := []string{"b/1", "b/2", "b/3"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("prefix scan = %v, want %v", got, want)
		}
		// ScanFrom with seek-skip: jump straight past the b-group.
		var first string
		if err := kv.ScanFrom([]byte("b/\xff"), func(k, v []byte) bool {
			first = string(k)
			return false
		}); err != nil {
			t.Fatal(err)
		}
		if first != "c/1" {
			t.Fatalf("seek-skip landed on %q, want c/1", first)
		}
	})
}

func TestLongKeysClamped(t *testing.T) {
	runBoth(t, func(t *testing.T, st Store) {
		kv, _ := st.Keyspace("k")
		long1 := append(bytes.Repeat([]byte("x"), 5000), '1')
		long2 := append(bytes.Repeat([]byte("x"), 5000), '2')
		if _, err := kv.Put(long1, []byte("one")); err != nil {
			t.Fatal(err)
		}
		if _, err := kv.Put(long2, []byte("two")); err != nil {
			t.Fatal(err)
		}
		v, ok, err := kv.Get(long1)
		if err != nil || !ok || string(v) != "one" {
			t.Fatalf("long key 1 = %q,%v,%v", v, ok, err)
		}
		v, _, _ = kv.Get(long2)
		if string(v) != "two" {
			t.Fatalf("long key 2 = %q (clamping must stay injective per key)", v)
		}
	})
}

func TestKeyspacesIndependent(t *testing.T) {
	runBoth(t, func(t *testing.T, st Store) {
		a, _ := st.Keyspace("a")
		b, _ := st.Keyspace("b")
		a.Put([]byte("k"), []byte("va"))
		b.Put([]byte("k"), []byte("vb"))
		v, _, _ := a.Get([]byte("k"))
		if string(v) != "va" {
			t.Fatalf("keyspace a = %q", v)
		}
		v, _, _ = b.Get([]byte("k"))
		if string(v) != "vb" {
			t.Fatalf("keyspace b = %q", v)
		}
		names := st.Keyspaces()
		if fmt.Sprint(names) != "[a b]" {
			t.Fatalf("keyspaces = %v", names)
		}
	})
}

func TestPersistAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kv, _ := st.Keyspace("data")
	for i := 0; i < 1000; i++ {
		kv.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	kv2, _ := st2.Keyspace("data")
	if kv2.Len() != 1000 {
		t.Fatalf("reopened len = %d, want 1000", kv2.Len())
	}
	v, ok, err := kv2.Get([]byte("k0500"))
	if err != nil || !ok || string(v) != "v500" {
		t.Fatalf("reopened get = %q,%v,%v", v, ok, err)
	}
}

func TestUncommittedLostOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kv, _ := st.Keyspace("data")
	kv.Put([]byte("committed"), []byte("yes"))
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	kv.Put([]byte("uncommitted"), []byte("no"))
	// Crash: reopen without Commit/Close.
	st2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	kv2, _ := st2.Keyspace("data")
	if _, ok, _ := kv2.Get([]byte("committed")); !ok {
		t.Fatal("committed key lost")
	}
	if _, ok, _ := kv2.Get([]byte("uncommitted")); ok {
		t.Fatal("uncommitted key survived the crash")
	}
	if kv2.Len() != 1 {
		t.Fatalf("len = %d, want 1", kv2.Len())
	}
}

func TestDropKeyspaceReclaimsPages(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "s.db"), Options{AutoVacuumRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	kv, _ := st.Keyspace("big")
	val := bytes.Repeat([]byte("v"), 512)
	for i := 0; i < 2000; i++ {
		if _, err := kv.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	if err := st.DropKeyspace("big"); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.FreePages < before.Pages/2 {
		t.Fatalf("drop freed %d of %d pages — expected the keyspace's pages on the free list", after.FreePages, before.Pages)
	}
	// A new keyspace of similar size must reuse those pages instead of
	// growing the file.
	kv2, _ := st.Keyspace("big2")
	for i := 0; i < 2000; i++ {
		if _, err := kv2.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	final := st.Stats()
	if final.Pages > before.Pages+before.Pages/10 {
		t.Fatalf("file grew from %d to %d pages despite free list", before.Pages, final.Pages)
	}
}

func TestVacuumCompactsDeletedRows(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "s.db"), Options{AutoVacuumRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	kv, _ := st.Keyspace("t")
	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 3000; i++ {
		if _, err := kv.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	// Delete 90% of the rows: live bytes shrink but pages do not.
	for i := 0; i < 3000; i++ {
		if i%10 == 0 {
			continue
		}
		if _, err := kv.Delete([]byte(fmt.Sprintf("k%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	frag := st.Stats()
	if err := st.Vacuum(); err != nil {
		t.Fatal(err)
	}
	compact := st.Stats()
	if compact.Vacuums != 1 {
		t.Fatalf("vacuums = %d, want 1", compact.Vacuums)
	}
	inUse := compact.Pages - compact.FreePages
	fragUse := frag.Pages - frag.FreePages
	if inUse > fragUse/4 {
		t.Fatalf("vacuum left %d pages in use (was %d) — expected ~10%%", inUse, fragUse)
	}
	// Survivors still read back, through a reopen.
	check := func(kv KV) {
		for i := 0; i < 3000; i += 10 {
			v, ok, err := kv.Get([]byte(fmt.Sprintf("k%06d", i)))
			if err != nil || !ok || !bytes.Equal(v, val) {
				t.Fatalf("k%06d after vacuum: ok=%v err=%v", i, ok, err)
			}
		}
		if kv.Len() != 300 {
			t.Fatalf("len = %d, want 300", kv.Len())
		}
	}
	check(kv)
	path := filepath.Join(filepath.Dir(t.TempDir()), "")
	_ = path
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestVacuumSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := Open(path, Options{AutoVacuumRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	kv, _ := st.Keyspace("t")
	for i := 0; i < 500; i++ {
		if _, err := kv.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i += 2 {
		if _, err := kv.Delete([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	liveBefore := st.Stats().LiveBytes
	if err := st.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().LiveBytes; got != liveBefore {
		t.Fatalf("vacuum changed live bytes %d -> %d", liveBefore, got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	kv, _ = st.Keyspace("t")
	if kv.Len() != 250 {
		t.Fatalf("len after reopen = %d, want 250", kv.Len())
	}
	if got := st.Stats().LiveBytes; got != liveBefore {
		t.Fatalf("live bytes not persisted: %d, want %d", got, liveBefore)
	}
	for i := 1; i < 500; i += 2 {
		v, ok, err := kv.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%04d = %q,%v,%v", i, v, ok, err)
		}
	}
}

func TestAutoVacuumTriggersOnFragmentation(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "s.db"), Options{AutoVacuumRatio: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	kv, _ := st.Keyspace("t")
	val := bytes.Repeat([]byte("y"), 400)
	for i := 0; i < 4000; i++ {
		if _, err := kv.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Vacuums != 0 {
		t.Fatal("auto-vacuum fired on a healthy store")
	}
	for i := 1; i < 4000; i++ {
		if _, err := kv.Delete([]byte(fmt.Sprintf("k%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Vacuums == 0 {
		t.Fatal("auto-vacuum did not fire after 99.9% of payload was deleted")
	}
	v, ok, err := kv.Get([]byte("k000000"))
	if err != nil || !ok || !bytes.Equal(v, val) {
		t.Fatalf("survivor lost after auto-vacuum: ok=%v err=%v", ok, err)
	}
}

// TestCompactionTracksLiveBytes drives a randomized workload, vacuums,
// and asserts the compacted footprint stays within a structural-
// overhead bound of the live payload — the end-to-end check that
// live-byte accounting, page freeing, and the rewrite agree.
func TestCompactionTracksLiveBytes(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "s.db"), Options{AutoVacuumRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	kv, _ := st.Keyspace("t")
	rng := rand.New(rand.NewSource(97))
	model := map[string]int{}
	for step := 0; step < 12000; step++ {
		k := fmt.Sprintf("row%05d", rng.Intn(2500))
		if rng.Intn(3) < 2 {
			n := 20 + rng.Intn(300)
			v := bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, n)
			if _, err := kv.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			model[k] = n
		} else {
			if _, err := kv.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		}
		if step%2000 == 0 {
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	var live int64
	for k, n := range model {
		live += int64(len(k) + n)
	}
	if got := st.Stats().LiveBytes; got != live {
		t.Fatalf("live bytes = %d, model = %d", got, live)
	}
	if err := st.Vacuum(); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	footprint := int64(stats.Pages-stats.FreePages) * 4096
	// Per-entry structural overhead: ~12 bytes of cell/slot headers on
	// ~200-byte payloads, plus page slack from append-order packing.
	// 3× live + 64 KiB covers it with margin; the pre-vacuum file is
	// far larger.
	if footprint > 3*live+64<<10 {
		t.Fatalf("compacted footprint %d not within bound of live bytes %d", footprint, live)
	}
	for k, n := range model {
		v, ok, err := kv.Get([]byte(k))
		if err != nil || !ok || len(v) != n {
			t.Fatalf("%s after compaction: len=%d ok=%v err=%v", k, len(v), ok, err)
		}
	}
}

// TestAutoCheckpointBoundsWAL commits 20 MB of values: Commit must
// checkpoint whenever it leaves the WAL over autoCheckpointBytes, so
// between commits the WAL never passes the bound (and during one, never
// the bound plus that commit), and every row survives the checkpoints.
func TestAutoCheckpointBoundsWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := Open(path, Options{Pager: pager.Options{NoSync: true}, AutoVacuumRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	kv, _ := st.Keyspace("t")
	val := bytes.Repeat([]byte("w"), 1000)
	const commits, perCommit = 200, 100
	for c := 0; c < commits; c++ {
		for i := 0; i < perCommit; i++ {
			if _, err := kv.Put([]byte(fmt.Sprintf("k%03d-%03d", i, c)), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		if w := st.Stats().WALBytes; w > autoCheckpointBytes {
			t.Fatalf("commit %d left the WAL at %d bytes, over the %d-byte bound", c, w, autoCheckpointBytes)
		}
	}
	if st.Stats().Checkpoints == 0 {
		t.Fatalf("no checkpoint after %d MB of commits", commits*perCommit*len(val)/1e6)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	kv, _ = st.Keyspace("t")
	if n := kv.Len(); n != commits*perCommit {
		t.Fatalf("reopened count = %d, want %d", n, commits*perCommit)
	}
}
