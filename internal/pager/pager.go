// Package pager implements the bottom layer of TATOOINE's storage
// engine: a fixed-size-page file with a clock page cache and a redo-only
// write-ahead log.
//
// The design follows the SQLite page model (PAPERS.md: abk171/gosqlite,
// khandu-utkarsh/codecrafters-sqlite-go walk the original format): the
// database file is an array of PageSize-byte pages addressed by PageID,
// page 0 is the file header, and every higher-level structure (B-trees,
// the store catalog) is built out of pages obtained from the pager.
// Unlike those readers, this pager also writes:
//
//   - Mutations go through Mut/Allocate and accumulate as in-memory
//     dirty copies; readers of the same pager see them immediately
//     (there is a single writer generation — transaction isolation is
//     provided by the locks of the structures above, not the pager).
//
//   - Commit appends the dirty pages to the WAL as checksummed frames
//     followed by a commit frame, fsyncs the WAL, and only then
//     publishes the pages to the cache. A crash before the commit
//     frame reaches disk rolls the whole transaction back on replay; a
//     crash after it replays the transaction completely — mutations
//     are atomic and durable at commit granularity.
//
//   - Checkpoint copies the newest committed version of every
//     WAL-resident page into the database file, fsyncs it, and resets
//     the WAL. Reads resolve dirty → cache → WAL → database file, so
//     checkpointing is purely a space/boot-time optimization.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// PageID addresses a page within the database file. Page 0 is the file
// header and is never handed out by Allocate.
type PageID uint32

// dbMagic opens page 0, the header: magic, page size, page count,
// free-list head, free-list length (8+4+4+4+4 bytes). Files written
// before the free list existed carry zeroes in the last two fields,
// which reads back as "empty free list" — exactly right.
const dbMagic = "TATPG001"

// errClosed is what every read of a closed pager returns.
var errClosed = errors.New("pager: closed")

// Options tune a Pager.
type Options struct {
	// CacheSize bounds the clock page cache, in pages. Zero means
	// DefaultCacheSize; negative means unbounded (every page read or
	// committed stays resident).
	CacheSize int
	// NoSync skips fsync on commit/checkpoint. Crash durability is
	// lost (torn tails are still detected); useful for benchmarks.
	NoSync bool
}

// DefaultCacheSize is the page-cache capacity when Options.CacheSize is
// zero: 4096 pages = 16 MiB.
const DefaultCacheSize = 4096

// Stats counts pager activity since open.
type Stats struct {
	Pages         int   `json:"pages"`         // allocated pages (incl. header)
	FreePages     int   `json:"freePages"`     // pages on the free list, reusable by Allocate
	ResidentPages int   `json:"residentPages"` // pages held in memory (cache + dirty buffers)
	CacheHits     int64 `json:"cacheHits"`     // reads served from cache or dirty set
	CacheMisses   int64 `json:"cacheMisses"`   // reads that went to WAL or db file
	Evictions     int64 `json:"evictions"`     // clean pages dropped from the cache under pressure
	WALBytes      int64 `json:"walBytes"`      // current WAL file length
	Commits       int64 `json:"commits"`       // committed transactions
	Checkpoints   int64 `json:"checkpoints"`   // completed checkpoints
}

// Pager is a page-granular storage manager. All methods are safe for
// concurrent use; writers of the structures above must still serialize
// themselves (the pager has one shared dirty set, not per-transaction
// snapshots).
type Pager struct {
	mu   sync.Mutex
	db   *os.File
	wal  *wal
	opts Options

	pageCount uint32
	dirty     map[PageID][]byte // mutated since last Commit
	cache     *clockCache

	// Free-list state mirrors the header fields (bytes 16..24 of page
	// 0): freeHead chains through the first 4 bytes of each free page.
	freeHead  PageID
	freeCount uint32

	hits, misses, commits, checkpoints, evictions int64
	lastResident                                  int // last value pushed to the resident gauge
}

// Open opens (or creates) the page file at path and replays any
// committed WAL tail next to it.
func Open(path string, opts Options) (*Pager, error) {
	if path == "" {
		return nil, fmt.Errorf("pager: empty path")
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = DefaultCacheSize
	}
	p := &Pager{
		opts:  opts,
		dirty: make(map[PageID][]byte),
		cache: newClockCache(opts.CacheSize),
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("pager: %w", err)
	}
	db, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: %w", err)
	}
	p.db = db
	st, err := db.Stat()
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("pager: %w", err)
	}
	if st.Size() == 0 {
		// Fresh file: write the header page.
		hdr := make([]byte, PageSize)
		copy(hdr, dbMagic)
		binary.BigEndian.PutUint32(hdr[8:], PageSize)
		binary.BigEndian.PutUint32(hdr[12:], 1)
		if _, err := db.WriteAt(hdr, 0); err != nil {
			db.Close()
			return nil, fmt.Errorf("pager: init header: %w", err)
		}
		if !opts.NoSync {
			if err := db.Sync(); err != nil {
				db.Close()
				return nil, fmt.Errorf("pager: init header: %w", err)
			}
		}
	}

	w, err := openWAL(path+"-wal", opts.NoSync)
	if err != nil {
		db.Close()
		return nil, err
	}
	p.wal = w

	hdr, err := p.readPage(0)
	if err != nil {
		p.closeFiles()
		return nil, err
	}
	if string(hdr[:8]) != dbMagic {
		p.closeFiles()
		return nil, fmt.Errorf("pager: %s is not a tatooine page file", path)
	}
	if ps := binary.BigEndian.Uint32(hdr[8:]); ps != PageSize {
		p.closeFiles()
		return nil, fmt.Errorf("pager: %s has page size %d, want %d", path, ps, PageSize)
	}
	p.pageCount = binary.BigEndian.Uint32(hdr[12:])
	p.freeHead = PageID(binary.BigEndian.Uint32(hdr[16:]))
	p.freeCount = binary.BigEndian.Uint32(hdr[20:])
	return p, nil
}

func (p *Pager) closeFiles() {
	if p.db != nil {
		p.db.Close()
	}
	if p.wal != nil {
		p.wal.close()
	}
}

// PageCount returns the number of allocated pages, including header.
func (p *Pager) PageCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.pageCount)
}

// View returns the current contents of the page. The returned slice is
// shared with the pager and MUST NOT be modified. Its bytes stay as
// they are until that page itself is written (Mut, Free or a reusing
// Allocate): the pager copies a page before its first write in a
// transaction and never recycles an evicted buffer. After Close every
// View fails.
func (p *Pager) View(id PageID) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.viewLocked(id)
}

func (p *Pager) viewLocked(id PageID) ([]byte, error) {
	if p.wal == nil {
		return nil, errClosed
	}
	if id >= PageID(p.pageCount) {
		return nil, fmt.Errorf("pager: page %d out of range (have %d)", id, p.pageCount)
	}
	if d, ok := p.dirty[id]; ok {
		p.hits++
		pagerCacheHitTotal.Inc()
		return d, nil
	}
	if d, ok := p.cache.get(id); ok {
		p.hits++
		pagerCacheHitTotal.Inc()
		return d, nil
	}
	p.misses++
	pagerCacheMissTotal.Inc()
	d, err := p.readPage(id)
	if err != nil {
		return nil, err
	}
	p.cachePut(id, d)
	return d, nil
}

// cachePut inserts into the clock cache, accounting evictions and the
// resident-page gauge.
func (p *Pager) cachePut(id PageID, d []byte) {
	if p.cache.put(id, d) {
		p.evictions++
		pagerEvictTotal.Inc()
	}
	p.updateResident()
}

// updateResident pushes the pager's in-memory page count (cache entries
// plus dirty transaction buffers — a page in both holds two buffers and
// counts twice) to the process-wide gauge as a delta, so concurrent
// pagers aggregate instead of overwriting each other.
func (p *Pager) updateResident() {
	resident := len(p.cache.entries) + len(p.dirty)
	if d := resident - p.lastResident; d != 0 {
		pagerResidentPages.Add(int64(d))
	}
	p.lastResident = resident
}

// readPage fetches a page from the WAL (newest committed frame) or the
// database file.
func (p *Pager) readPage(id PageID) ([]byte, error) {
	if d, ok, err := p.wal.readPage(id); err != nil {
		return nil, err
	} else if ok {
		return d, nil
	}
	buf := make([]byte, PageSize)
	n, err := p.db.ReadAt(buf, int64(id)*PageSize)
	if err != nil && n != PageSize {
		// Reading past EOF yields zeroes: the page was allocated in a
		// committed transaction but checkpointed before being written,
		// or the file simply hasn't grown yet.
		for i := n; i < PageSize; i++ {
			buf[i] = 0
		}
	}
	return buf, nil
}

// Mut returns a writable copy of the page, registered in the current
// transaction's dirty set. Successive Mut calls for the same page
// return the same buffer.
func (p *Pager) Mut(id PageID) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mutLocked(id)
}

func (p *Pager) mutLocked(id PageID) ([]byte, error) {
	if id >= PageID(p.pageCount) {
		return nil, fmt.Errorf("pager: page %d out of range (have %d)", id, p.pageCount)
	}
	if d, ok := p.dirty[id]; ok {
		return d, nil
	}
	cur, err := p.viewLocked(id)
	if err != nil {
		return nil, err
	}
	d := make([]byte, PageSize)
	copy(d, cur)
	p.dirty[id] = d
	p.updateResident()
	return d, nil
}

// Allocate returns a zeroed page and its writable buffer (already in
// the dirty set): the head of the free list when one is there, a fresh
// page extending the file otherwise.
func (p *Pager) Allocate() (PageID, []byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freeHead != 0 {
		id := p.freeHead
		d, err := p.mutLocked(id)
		if err != nil {
			return 0, nil, err
		}
		next := PageID(binary.BigEndian.Uint32(d[0:]))
		clear(d)
		p.freeHead = next
		p.freeCount--
		if err := p.syncHeaderLocked(); err != nil {
			return 0, nil, err
		}
		return id, d, nil
	}
	id := PageID(p.pageCount)
	p.pageCount++
	d := make([]byte, PageSize)
	p.dirty[id] = d
	p.updateResident()
	if err := p.syncHeaderLocked(); err != nil {
		return 0, nil, err
	}
	return id, d, nil
}

// Free returns a page to the free list for reuse by a later Allocate.
// The push is part of the current transaction (the link pointer and the
// header travel through the WAL with everything else), so a rollback
// un-frees the page and a crash recovers a consistent list. Freeing the
// header page or an out-of-range page is an error; freeing a page twice
// corrupts the list and is the caller's to avoid (the structures above
// free only pages they own exactly once).
func (p *Pager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == 0 || id >= PageID(p.pageCount) {
		return fmt.Errorf("pager: free page %d out of range (have %d)", id, p.pageCount)
	}
	d, err := p.mutLocked(id)
	if err != nil {
		return err
	}
	clear(d)
	binary.BigEndian.PutUint32(d[0:], uint32(p.freeHead))
	p.freeHead = id
	p.freeCount++
	return p.syncHeaderLocked()
}

// FreePages walks the free list and returns the IDs on it, head first.
// The store's vacuum sweep uses it to tell freed pages from leaked
// ones.
func (p *Pager) FreePages() ([]PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PageID, 0, p.freeCount)
	for id := p.freeHead; id != 0; {
		out = append(out, id)
		d, err := p.viewLocked(id)
		if err != nil {
			return nil, err
		}
		id = PageID(binary.BigEndian.Uint32(d[0:]))
		if len(out) > int(p.pageCount) {
			return nil, fmt.Errorf("pager: free list cycle detected")
		}
	}
	return out, nil
}

// syncHeaderLocked keeps the header page's count and free-list fields
// in step with the mirror, within the current transaction.
func (p *Pager) syncHeaderLocked() error {
	hdr, err := p.mutLocked(0)
	if err != nil {
		return err
	}
	copy(hdr, dbMagic)
	binary.BigEndian.PutUint32(hdr[8:], PageSize)
	binary.BigEndian.PutUint32(hdr[12:], p.pageCount)
	binary.BigEndian.PutUint32(hdr[16:], uint32(p.freeHead))
	binary.BigEndian.PutUint32(hdr[20:], p.freeCount)
	return nil
}

// Commit makes every mutation since the last Commit durable as one
// atomic transaction and publishes the pages to the read path.
func (p *Pager) Commit() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.dirty) == 0 {
		return nil
	}
	if err := p.wal.commit(p.dirty); err != nil {
		return err
	}
	for id, d := range p.dirty {
		p.cachePut(id, d)
		delete(p.dirty, id)
	}
	p.commits++
	p.updateResident()
	return nil
}

// Checkpoint copies every committed WAL page into the database file,
// fsyncs it and resets the WAL. A crash during checkpointing is safe:
// the WAL is only reset after the database file is durable, so replay
// simply redoes the copy.
func (p *Pager) Checkpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, err := p.wal.checkpointInto(p.db, p.opts.NoSync)
	if err != nil {
		return err
	}
	if n > 0 {
		p.checkpoints++
	}
	return nil
}

// WALSize returns the current WAL length in bytes.
func (p *Pager) WALSize() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wal.size()
}

// Stats snapshots the pager counters.
func (p *Pager) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Pages:         int(p.pageCount),
		FreePages:     int(p.freeCount),
		ResidentPages: len(p.cache.entries) + len(p.dirty),
		CacheHits:     p.hits,
		CacheMisses:   p.misses,
		Evictions:     p.evictions,
		Commits:       p.commits,
		Checkpoints:   p.checkpoints,
		WALBytes:      p.wal.size(),
	}
}

// Close flushes (checkpoint) and closes the pager. Uncommitted
// mutations are discarded — that is the crash the WAL protects against.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastResident != 0 {
		pagerResidentPages.Add(int64(-p.lastResident))
		p.lastResident = 0
	}
	_, err := p.wal.checkpointInto(p.db, p.opts.NoSync)
	if cerr := p.db.Close(); err == nil {
		err = cerr
	}
	if cerr := p.wal.close(); err == nil {
		err = cerr
	}
	p.db, p.wal = nil, nil
	return err
}

// clockCache is a clock (second-chance) page cache.
type clockCache struct {
	cap     int // negative: unbounded
	entries map[PageID]*cacheEntry
	ring    []*cacheEntry
	hand    int
}

type cacheEntry struct {
	id   PageID
	data []byte
	ref  bool
}

func newClockCache(capacity int) *clockCache {
	return &clockCache{cap: capacity, entries: make(map[PageID]*cacheEntry)}
}

func (c *clockCache) get(id PageID) ([]byte, bool) {
	e, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	e.ref = true
	return e.data, true
}

// put inserts (or refreshes) a page, reporting whether a clean page was
// evicted to make room. Only committed pages live here — dirty
// transaction buffers are pinned in the pager's dirty set until Commit,
// which is what keeps writeback ordering behind the WAL: a page can
// never reach the cache (and thus be the only copy) before its
// after-image is durable.
func (c *clockCache) put(id PageID, data []byte) (evicted bool) {
	if e, ok := c.entries[id]; ok {
		e.data, e.ref = data, true
		return false
	}
	e := &cacheEntry{id: id, data: data, ref: true}
	if c.cap < 0 || len(c.ring) < c.cap {
		c.entries[id] = e
		c.ring = append(c.ring, e)
		return false
	}
	// Advance the hand, giving referenced pages a second chance.
	for {
		victim := c.ring[c.hand]
		if victim.ref {
			victim.ref = false
			c.hand = (c.hand + 1) % len(c.ring)
			continue
		}
		delete(c.entries, victim.id)
		c.ring[c.hand] = e
		c.entries[id] = e
		c.hand = (c.hand + 1) % len(c.ring)
		return true
	}
}
