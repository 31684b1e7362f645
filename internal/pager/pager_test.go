package pager

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

func tmpDB(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.db")
}

// residentPager opens a pager whose cache never evicts, so every page
// stays in memory after its first read or commit.
func residentPager(t *testing.T) *Pager {
	t.Helper()
	p, err := Open(tmpDB(t), Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestOpenEmptyPathRefused(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open(\"\") succeeded; the pager has no memory-only mode")
	}
}

// TestViewAfterCloseFails: a closed pager answers every read with an
// error, for a page its cache still holds and for one it evicted,
// instead of reaching the files Close released.
func TestViewAfterCloseFails(t *testing.T) {
	p, err := Open(tmpDB(t), Options{CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 2; i++ {
		id, _, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := p.View(id); err == nil {
			t.Fatalf("View(%d) after Close succeeded", id)
		}
	}
}

func TestMemRoundTrip(t *testing.T) {
	p := residentPager(t)
	id, page, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(page, "hello")
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := p.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) != "hello" {
		t.Fatalf("got %q", got[:5])
	}
}

func TestCommitDurableAcrossReopen(t *testing.T) {
	path := tmpDB(t)
	p, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, page, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(page, "persisted")
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	// No checkpoint, no Close: simulate a crash by just reopening. The
	// committed page must come back from the WAL.
	p2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.PageCount(); got != int(id)+1 {
		t.Fatalf("page count = %d, want %d", got, id+1)
	}
	d, err := p2.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(d[:9]) != "persisted" {
		t.Fatalf("got %q", d[:9])
	}
}

func TestUncommittedRollsBackOnReopen(t *testing.T) {
	path := tmpDB(t)
	p, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, page, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(page, "committed")
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	// Mutate without committing: must vanish on reopen.
	mut, err := p.Mut(id)
	if err != nil {
		t.Fatal(err)
	}
	copy(mut, "uncommitted")
	if _, _, err := p.Allocate(); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	d, err := p2.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(d[:9]) != "committed" {
		t.Fatalf("got %q, want the committed image", d[:11])
	}
	if got := p2.PageCount(); got != int(id)+1 {
		t.Fatalf("page count = %d, want %d (uncommitted allocation must roll back)", got, id+1)
	}
}

func TestTornWALTailIgnored(t *testing.T) {
	path := tmpDB(t)
	p, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, page, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(page, "good")
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a page frame with no commit frame,
	// then garbage.
	f, err := os.OpenFile(path+"-wal", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 4+PageSize+4)
	binary.BigEndian.PutUint32(frame, uint32(id))
	copy(frame[4:], bytes.Repeat([]byte("evil"), 1024))
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-tail-garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	d, err := p2.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(d[:4]) != "good" {
		t.Fatalf("got %q, torn tail must not replay", d[:4])
	}
}

func TestCheckpointMovesPagesToDB(t *testing.T) {
	path := tmpDB(t)
	p, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, page, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(page, "checkpointed")
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", st.Checkpoints)
	}
	if st.WALBytes != 8 {
		t.Fatalf("wal bytes = %d, want header only (8)", st.WALBytes)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// The page must now come from the database file.
	p2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	d, err := p2.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(d[:12]) != "checkpointed" {
		t.Fatalf("got %q", d[:12])
	}
}

func TestCacheEviction(t *testing.T) {
	path := tmpDB(t)
	p, err := Open(path, Options{CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var ids []PageID
	for i := 0; i < 16; i++ {
		id, page, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		page[0] = byte(i)
		ids = append(ids, id)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		d, err := p.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if d[0] != byte(i) {
			t.Fatalf("page %d: got %d want %d", id, d[0], i)
		}
	}
	st := p.Stats()
	if st.CacheMisses == 0 {
		t.Fatal("expected cache misses with a 4-page cache over 16 pages")
	}
}

// TestRepeatedOpenCloseCycles pins a recovery regression: reopening a
// checkpointed WAL (header only, no committed frames) must keep the
// header as the valid length — an early version truncated such a WAL
// to zero bytes, so the next commit wrote frames where the header
// belongs and the THIRD open failed with "bad header".
func TestRepeatedOpenCloseCycles(t *testing.T) {
	path := tmpDB(t)
	var id PageID
	for cycle := 0; cycle < 4; cycle++ {
		p, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cycle %d: open: %v", cycle, err)
		}
		if cycle == 0 {
			var page []byte
			id, page, err = p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			copy(page, "cycled")
		} else {
			d, err := p.View(id)
			if err != nil {
				t.Fatalf("cycle %d: view: %v", cycle, err)
			}
			if string(d[:6]) != "cycled" {
				t.Fatalf("cycle %d: got %q", cycle, d[:6])
			}
			// Dirty the page again so every cycle commits fresh frames
			// into the just-reopened WAL.
			w, err := p.Mut(id)
			if err != nil {
				t.Fatal(err)
			}
			copy(w, "cycled")
		}
		if err := p.Commit(); err != nil {
			t.Fatalf("cycle %d: commit: %v", cycle, err)
		}
		// Close checkpoints, leaving a header-only WAL behind.
		if err := p.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", cycle, err)
		}
	}
}

func TestFreeListReuseAndPersistence(t *testing.T) {
	path := tmpDB(t)
	p, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, page, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		page[0] = byte(i + 1)
		ids = append(ids, id)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := freeCount(t, p); got != 2 {
		t.Fatalf("free count = %d, want 2", got)
	}
	before := p.PageCount()
	// Reopen: the free list must survive and feed allocations before
	// the file grows.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := freeCount(t, p); got != 2 {
		t.Fatalf("free count after reopen = %d, want 2", got)
	}
	seen := map[PageID]bool{}
	for i := 0; i < 2; i++ {
		id, page, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range page {
			if b != 0 {
				t.Fatal("reused page not zeroed")
			}
		}
		seen[id] = true
	}
	if !seen[ids[1]] || !seen[ids[3]] {
		t.Fatalf("allocations %v did not reuse freed pages %v/%v", seen, ids[1], ids[3])
	}
	if p.PageCount() != before {
		t.Fatalf("file grew to %d pages despite free list (was %d)", p.PageCount(), before)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := freeCount(t, p); got != 0 {
		t.Fatalf("free count after reuse = %d, want 0", got)
	}
}

func TestFreePagesEnumeratesChain(t *testing.T) {
	p, err := Open(tmpDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _, err := p.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := p.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	free, err := p.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	if len(free) != 4 {
		t.Fatalf("FreePages = %v, want 4 entries", free)
	}
	want := map[PageID]bool{}
	for _, id := range ids {
		want[id] = true
	}
	for _, id := range free {
		if !want[id] {
			t.Fatalf("unexpected free page %d", id)
		}
	}
}

// freeCount is the length of p's free list.
func freeCount(t *testing.T, p *Pager) int {
	t.Helper()
	ids, err := p.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	return len(ids)
}
