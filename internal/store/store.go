// Package store is TATOOINE's durable storage: a Store is a set of
// named keyspaces (ordered key→value maps) over the paged on-disk
// B-tree engine (internal/pager + internal/btree), with transactional
// commit — everything written between two Commit calls becomes durable
// atomically (one WAL transaction).
//
// Its one user is the persistent core.Instance: rdf.Graph's SPO/POS/OSP
// indexes and dictionary for G and G∞, plus the instance catalog.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"tatooine/internal/btree"
	"tatooine/internal/pager"
)

// Stats is the "store" block of the mediator's /stats.
type Stats struct {
	pager.Stats
	Keyspaces int `json:"keyspaces"`
	// LiveBytes sums the key+value payload live across all keyspaces —
	// the numerator of the fragmentation ratio that triggers
	// auto-vacuum (pages×PageSize being the denominator).
	LiveBytes int64 `json:"liveBytes"`
	// Vacuums counts completed vacuum passes.
	Vacuums int64 `json:"vacuums"`
}

// Options tune a store.
type Options struct {
	// Pager tunes the page cache and sync behavior.
	Pager pager.Options
}

// autoCheckpointBytes bounds WAL growth: a Commit that leaves the WAL
// larger than 8 MiB checkpoints it.
const autoCheckpointBytes = 8 << 20

// autoVacuumRatio is the live-payload fraction below which Commit
// triggers an automatic vacuum: when live payload falls below this
// fraction of the in-use (non-free) page bytes, most of the file is
// dead space from deletes. The B-tree's structural overhead (cell
// headers, slot arrays, page slack) keeps healthy trees' ratios well
// above this, so only genuine garbage — deleted rows — trips it.
// Stores smaller than minAutoVacuumPages are never auto-vacuumed, and
// a vacuum re-arms only after the file grows past its post-vacuum size
// again.
const autoVacuumRatio = 0.10

// minAutoVacuumPages exempts small stores from auto-vacuum: below 256
// pages (1 MiB) fragmentation cannot matter.
const minAutoVacuumPages = 256

// catalogPage is the fixed page holding the keyspace directory.
const catalogPage pager.PageID = 1

// Store is a collection of named keyspaces with atomic durability.
type Store struct {
	mu      sync.Mutex
	pg      *pager.Pager
	spaces  map[string]*Keyspace
	closed  bool
	vacuums int64
	// noAutoVacuum turns auto-vacuum off, for tests that count pages
	// or vacuums themselves.
	noAutoVacuum bool
	// vacuumArmPages re-arms auto-vacuum: after a vacuum, Commit will
	// not trigger another until the file grows past this page count,
	// so a store whose ratio stays low from structural overhead alone
	// cannot thrash.
	vacuumArmPages int
}

// Keyspace is one keyspace: an ordered map from byte keys to byte
// values, safe for concurrent use; writers are serialized per
// keyspace.
type Keyspace struct {
	mu    sync.RWMutex
	tree  *btree.BTree
	count int
}

// Open opens (or creates) the persistent store rooted at the file
// path (conventionally <dir>/tatooine.db; the WAL lives next to it).
func Open(path string, opts Options) (*Store, error) {
	pg, err := pager.Open(path, opts.Pager)
	if err != nil {
		return nil, err
	}
	s := &Store{pg: pg, spaces: make(map[string]*Keyspace)}
	if pg.PageCount() <= int(catalogPage) {
		// Fresh store: allocate the catalog page and persist the empty
		// directory so a reopened store always finds page 1.
		id, page, err := pg.Allocate()
		if err != nil {
			pg.Close()
			return nil, err
		}
		if id != catalogPage {
			pg.Close()
			return nil, fmt.Errorf("store: catalog landed on page %d, want %d", id, catalogPage)
		}
		writeCatalog(page, nil)
		if err := pg.Commit(); err != nil {
			pg.Close()
			return nil, err
		}
		return s, nil
	}
	page, err := pg.View(catalogPage)
	if err != nil {
		pg.Close()
		return nil, err
	}
	entries, err := readCatalog(page)
	if err != nil {
		pg.Close()
		return nil, err
	}
	for _, e := range entries {
		tree := btree.Open(pg, e.root)
		tree.SetLiveBytes(e.live)
		s.spaces[e.name] = &Keyspace{tree: tree, count: int(e.count)}
	}
	return s, nil
}

type catEntry struct {
	name  string
	root  pager.PageID
	count uint64
	live  int64
}

// Catalog layout on page 1: "TATD", n u16, then per entry
// [2 namelen][name][4 root][8 count][8 liveBytes]. The previous
// format ("TATC") lacked liveBytes; readCatalog still accepts it so
// PR-8-era files open, with live bytes rebuilt as zero (a vacuum
// restores accurate counters).
func writeCatalog(page []byte, entries []catEntry) {
	copy(page[0:4], "TATD")
	binary.BigEndian.PutUint16(page[4:], uint16(len(entries)))
	off := 6
	for _, e := range entries {
		binary.BigEndian.PutUint16(page[off:], uint16(len(e.name)))
		off += 2
		copy(page[off:], e.name)
		off += len(e.name)
		binary.BigEndian.PutUint32(page[off:], uint32(e.root))
		off += 4
		binary.BigEndian.PutUint64(page[off:], e.count)
		off += 8
		binary.BigEndian.PutUint64(page[off:], uint64(e.live))
		off += 8
	}
	for i := off; i < len(page); i++ {
		page[i] = 0
	}
}

func readCatalog(page []byte) ([]catEntry, error) {
	magic := string(page[0:4])
	if magic != "TATD" && magic != "TATC" {
		return nil, fmt.Errorf("store: corrupt keyspace catalog")
	}
	n := int(binary.BigEndian.Uint16(page[4:]))
	out := make([]catEntry, 0, n)
	off := 6
	for i := 0; i < n; i++ {
		nl := int(binary.BigEndian.Uint16(page[off:]))
		off += 2
		name := string(page[off : off+nl])
		off += nl
		root := pager.PageID(binary.BigEndian.Uint32(page[off:]))
		off += 4
		count := binary.BigEndian.Uint64(page[off:])
		off += 8
		var live int64
		if magic == "TATD" {
			live = int64(binary.BigEndian.Uint64(page[off:]))
			off += 8
		}
		out = append(out, catEntry{name: name, root: root, count: count, live: live})
	}
	return out, nil
}

func (s *Store) catalogEntries() []catEntry {
	names := make([]string, 0, len(s.spaces))
	for n := range s.spaces {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]catEntry, 0, len(names))
	for _, n := range names {
		ks := s.spaces[n]
		ks.mu.RLock()
		count := ks.count
		live := ks.tree.LiveBytes()
		root := ks.tree.Root()
		ks.mu.RUnlock()
		out = append(out, catEntry{name: n, root: root, count: uint64(count), live: live})
	}
	return out
}

// catalogCapacity guards the single-page directory: each entry costs
// 22+len(name) bytes after the 6-byte header.
func catalogFits(entries []catEntry) bool {
	size := 6
	for _, e := range entries {
		size += 22 + len(e.name)
	}
	return size <= pager.PageSize
}

// Keyspace returns the named keyspace, creating it if absent.
func (s *Store) Keyspace(name string) (*Keyspace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ks, ok := s.spaces[name]; ok {
		return ks, nil
	}
	tree, err := btree.New(s.pg)
	if err != nil {
		return nil, err
	}
	ks := &Keyspace{tree: tree}
	s.spaces[name] = ks
	if !catalogFits(s.catalogEntries()) {
		delete(s.spaces, name)
		return nil, fmt.Errorf("store: keyspace directory full (cannot add %q)", name)
	}
	return ks, nil
}

// Commit makes every mutation since the last Commit durable as one
// atomic transaction. It must not run beside a Put or Delete on any
// keyspace (it would copy a page mid-write): the owner serializes
// writes with commits, while reads may run beside either.
func (s *Store) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.commitLocked(); err != nil {
		return err
	}
	if s.shouldAutoVacuumLocked() {
		if err := s.vacuumLocked(); err != nil {
			return err
		}
	}
	if s.pg.WALSize() > autoCheckpointBytes {
		return s.pg.Checkpoint()
	}
	return nil
}

// commitLocked persists the catalog and commits the pager transaction.
func (s *Store) commitLocked() error {
	page, err := s.pg.Mut(catalogPage)
	if err != nil {
		return err
	}
	writeCatalog(page, s.catalogEntries())
	return s.pg.Commit()
}

func (s *Store) liveBytesLocked() int64 {
	var live int64
	for _, ks := range s.spaces {
		ks.mu.RLock()
		live += ks.tree.LiveBytes()
		ks.mu.RUnlock()
	}
	return live
}

func (s *Store) shouldAutoVacuumLocked() bool {
	if s.noAutoVacuum {
		return false
	}
	st := s.pg.Stats()
	if st.Pages < minAutoVacuumPages || st.Pages <= s.vacuumArmPages {
		return false
	}
	used := int64(st.Pages-st.FreePages) * pager.PageSize
	return float64(s.liveBytesLocked()) < float64(used)*autoVacuumRatio
}

// vacuumLocked rewrites every keyspace into freshly packed pages, then
// mark-sweeps: any allocated page reachable from neither the catalog,
// a keyspace tree, nor the free list is garbage (including pages
// leaked by a crash mid-vacuum) and goes onto the free list. Each
// keyspace commits separately so the dirty set stays bounded by the
// largest keyspace, not the whole store; a crash between those commits
// leaks the in-flight rewrite's pages, which the next completed vacuum
// reclaims.
func (s *Store) vacuumLocked() error {
	names := make([]string, 0, len(s.spaces))
	for n := range s.spaces {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ks := s.spaces[n]
		ks.mu.Lock()
		err := s.rewriteKeyspace(ks)
		ks.mu.Unlock()
		if err != nil {
			return err
		}
		if err := s.commitLocked(); err != nil {
			return err
		}
	}
	if err := s.sweepLocked(); err != nil {
		return err
	}
	if err := s.commitLocked(); err != nil {
		return err
	}
	s.vacuums++
	storeVacuumTotal.Inc()
	s.vacuumArmPages = s.pg.PageCount() + s.pg.PageCount()/4
	return nil
}

// rewriteKeyspace copies ks's live entries into a new tree and frees
// the old tree's pages. Caller holds ks.mu (writers and readers are
// out) and s.mu.
func (s *Store) rewriteKeyspace(ks *Keyspace) error {
	old := ks.tree
	oldPages, err := old.Pages()
	if err != nil {
		return err
	}
	nt, err := btree.New(s.pg)
	if err != nil {
		return err
	}
	c := old.NewCursor()
	for c.Seek(nil); c.Valid(); c.Next() {
		if _, err := nt.Insert(c.Key(), c.Value()); err != nil {
			return err
		}
	}
	if err := c.Err(); err != nil {
		return err
	}
	for _, id := range oldPages {
		if err := s.pg.Free(id); err != nil {
			return err
		}
	}
	ks.tree = nt
	return nil
}

// sweepLocked frees every allocated page that is not the header, the
// catalog, part of a keyspace tree, or already on the free list.
func (s *Store) sweepLocked() error {
	n := s.pg.PageCount()
	reach := make([]bool, n)
	reach[0] = true
	if int(catalogPage) < n {
		reach[catalogPage] = true
	}
	for _, ks := range s.spaces {
		ks.mu.RLock()
		pages, err := ks.tree.Pages()
		ks.mu.RUnlock()
		if err != nil {
			return err
		}
		for _, id := range pages {
			if int(id) < n {
				reach[id] = true
			}
		}
	}
	free, err := s.pg.FreePages()
	if err != nil {
		return err
	}
	for _, id := range free {
		if int(id) < n {
			reach[id] = true
		}
	}
	for id := 2; id < n; id++ {
		if reach[id] {
			continue
		}
		if err := s.pg.Free(pager.PageID(id)); err != nil {
			return err
		}
	}
	return nil
}

// Close checkpoints and releases the store. Uncommitted mutations
// are discarded.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.pg.Close()
}

// Stats snapshots engine counters for the mediator's /stats.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := len(s.spaces)
	live := s.liveBytesLocked()
	vacs := s.vacuums
	s.mu.Unlock()
	return Stats{Stats: s.pg.Stats(), Keyspaces: n, LiveBytes: live, Vacuums: vacs}
}

// clampKey bounds keys to the B-tree's limit: longer keys keep their
// prefix and replace the tail with a SHA-256 digest. Equality lookups
// stay exact (the mapping is deterministic) and prefix scans with
// prefixes shorter than the preserved prefix still work; only the
// relative order of clamped keys past that point is scrambled.
func clampKey(key []byte) []byte {
	if len(key) <= btree.MaxKey {
		return key
	}
	sum := sha256.Sum256(key)
	out := make([]byte, 0, btree.MaxKey)
	out = append(out, key[:btree.MaxKey-len(sum)]...)
	return append(out, sum[:]...)
}

// Get returns the value stored under key.
func (ks *Keyspace) Get(key []byte) ([]byte, bool, error) {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.tree.Get(clampKey(key))
}

// Put stores value under key, reporting whether the key was new.
func (ks *Keyspace) Put(key, value []byte) (bool, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	fresh, err := ks.tree.Insert(clampKey(key), value)
	if err != nil {
		return false, err
	}
	if fresh {
		ks.count++
	}
	return fresh, nil
}

// Delete removes key, reporting whether it was present.
func (ks *Keyspace) Delete(key []byte) (bool, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	deleted, err := ks.tree.Delete(clampKey(key))
	if err != nil {
		return false, err
	}
	if deleted {
		ks.count--
	}
	return deleted, nil
}

// Scan calls fn for every pair whose key starts with prefix, in
// ascending key order, until fn returns false. key and value are
// sub-slices of a page, valid only during the call: fn copies what it
// keeps.
func (ks *Keyspace) Scan(prefix []byte, fn func(key, value []byte) bool) error {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.tree.Walk(prefix, func(k, v []byte) bool {
		return bytes.HasPrefix(k, prefix) && fn(k, v)
	})
}

// ScanFrom calls fn for every pair with key >= start, in ascending key
// order, until fn returns false (seek-skip iteration). As in Scan, key
// and value are valid only during the call.
func (ks *Keyspace) ScanFrom(start []byte, fn func(key, value []byte) bool) error {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.tree.Walk(start, fn)
}

// Count returns the number of keys that start with prefix, exactly, at
// a page read per B-tree leaf in the range.
func (ks *Keyspace) Count(prefix []byte) (int, error) {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.tree.CountPrefix(prefix)
}

// Len returns the number of keys (maintained, not counted).
func (ks *Keyspace) Len() int {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.count
}
