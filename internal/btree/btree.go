// Package btree implements an order-N B-tree over pager pages: the
// index layer of TATOOINE's storage engine, modeled on the SQLite
// B-tree page format (PAPERS.md: abk171/gosqlite,
// khandu-utkarsh/codecrafters-sqlite-go) but writable.
//
// Each tree maps variable-length byte keys to variable-length values in
// sorted order. Pages are slotted: a header, an array of 2-byte cell
// offsets sorted by key, and cell content growing down from the page
// end. Leaf cells hold the key plus an inline value prefix (long values
// spill into an overflow page chain); interior cells hold a router key
// and a child pointer, with keys <= router in the child and a rightmost
// pointer for the rest. The root page never moves: a root split pushes
// both halves into fresh pages and rewrites the root in place, so a
// tree is durably identified by one PageID.
//
// Leaves and interior pages split by one rule, while the cell that did
// not fit is placed: over the page's n cells plus the pending one, the
// split point s in [1, n] minimizes the larger half's bytes (cells and
// their slots). The page keeps the first s cells and a fresh right page
// takes the rest. A leaf's separator is the left half's last key; an
// interior page promotes cell s, whose key is the separator and whose
// child becomes the left page's right child, while the right page
// inherits the old right child. Every cell is under half a page
// (maxLeafCell, MaxKey), so both halves always fit.
//
// Deletes do not rebalance: an underfull (even empty) page stays in the
// tree and cursors skip it. That trades bounded space slack for
// simplicity, which suits the mediator's append-mostly workloads.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"tatooine/internal/pager"
)

const (
	typeLeaf     = 1
	typeInterior = 2

	hdrSize = 9 // type(1) + nCells(2) + cellStart(2) + rightChild(4)

	// MaxKey bounds key length so that any page can hold at least two
	// cells; the store layer clamps longer keys before they reach here.
	MaxKey = 1024

	// maxLeafCell bounds one leaf cell (header + key + inline value);
	// values that would exceed it continue in overflow pages.
	maxLeafCell = 1900

	leafCellHdr     = 10 // klen(2) + inlineLen(4) + overflow(4)
	interiorCellHdr = 6  // klen(2) + child(4)

	// Overflow page: next(4) + len(2) + data.
	ovflHdr  = 6
	ovflData = pager.PageSize - ovflHdr
)

// BTree is one tree within a pager. It is NOT internally synchronized:
// callers (the store layer) serialize writers per tree and exclude
// writers during reads.
type BTree struct {
	pg   *pager.Pager
	root pager.PageID
	// live is the payload the tree currently holds: the sum of
	// len(key)+len(value) over every live entry, maintained across
	// inserts, replacements and deletes. Dead space (removed cells,
	// page slack) is NOT counted, so pages-used×PageSize versus live is
	// the store's vacuum signal. The store catalog persists it per
	// keyspace and restores it through SetLiveBytes on reopen.
	live int64
}

// New allocates an empty tree and returns it; the root PageID is stable
// for the tree's lifetime (persist it to reopen the tree later).
func New(pg *pager.Pager) (*BTree, error) {
	id, page, err := pg.Allocate()
	if err != nil {
		return nil, err
	}
	initPage(page, typeLeaf)
	return &BTree{pg: pg, root: id}, nil
}

// Open returns the tree rooted at root.
func Open(pg *pager.Pager, root pager.PageID) *BTree {
	return &BTree{pg: pg, root: root}
}

// Root returns the tree's root page.
func (t *BTree) Root() pager.PageID { return t.root }

// LiveBytes returns the summed key+value payload of the live entries.
func (t *BTree) LiveBytes() int64 { return t.live }

// SetLiveBytes restores the live-byte counter of a reopened tree (the
// store catalog persists it alongside the root and count).
func (t *BTree) SetLiveBytes(n int64) { t.live = n }

func initPage(p []byte, typ byte) {
	for i := range p[:hdrSize] {
		p[i] = 0
	}
	p[0] = typ
	binary.BigEndian.PutUint16(p[3:], pager.PageSize)
}

// --- page accessors -------------------------------------------------

func pageType(p []byte) byte { return p[0] }
func nCells(p []byte) int    { return int(binary.BigEndian.Uint16(p[1:])) }
func cellStart(p []byte) int { return int(binary.BigEndian.Uint16(p[3:])) }
func rightChild(p []byte) pager.PageID {
	return pager.PageID(binary.BigEndian.Uint32(p[5:]))
}
func setNCells(p []byte, n int)    { binary.BigEndian.PutUint16(p[1:], uint16(n)) }
func setCellStart(p []byte, o int) { binary.BigEndian.PutUint16(p[3:], uint16(o)) }
func setRightChild(p []byte, c pager.PageID) {
	binary.BigEndian.PutUint32(p[5:], uint32(c))
}

func slotOff(p []byte, i int) int {
	return int(binary.BigEndian.Uint16(p[hdrSize+2*i:]))
}
func setSlotOff(p []byte, i, off int) {
	binary.BigEndian.PutUint16(p[hdrSize+2*i:], uint16(off))
}

func cellKey(p []byte, i int) []byte {
	off := slotOff(p, i)
	klen := int(binary.BigEndian.Uint16(p[off:]))
	if pageType(p) == typeLeaf {
		return p[off+leafCellHdr : off+leafCellHdr+klen]
	}
	return p[off+interiorCellHdr : off+interiorCellHdr+klen]
}

// leafCellValue returns the inline value bytes and the overflow chain
// head (0 if none).
func leafCellValue(p []byte, i int) ([]byte, pager.PageID) {
	off := slotOff(p, i)
	klen := int(binary.BigEndian.Uint16(p[off:]))
	ilen := int(binary.BigEndian.Uint32(p[off+2:]))
	ovfl := pager.PageID(binary.BigEndian.Uint32(p[off+6:]))
	start := off + leafCellHdr + klen
	return p[start : start+ilen], ovfl
}

func interiorChild(p []byte, i int) pager.PageID {
	if i >= nCells(p) {
		return rightChild(p)
	}
	off := slotOff(p, i)
	return pager.PageID(binary.BigEndian.Uint32(p[off+2:]))
}

func setInteriorChild(p []byte, i int, c pager.PageID) {
	if i >= nCells(p) {
		setRightChild(p, c)
		return
	}
	off := slotOff(p, i)
	binary.BigEndian.PutUint32(p[off+2:], uint32(c))
}

func cellSize(p []byte, i int) int {
	off := slotOff(p, i)
	klen := int(binary.BigEndian.Uint16(p[off:]))
	if pageType(p) == typeLeaf {
		ilen := int(binary.BigEndian.Uint32(p[off+2:]))
		return leafCellHdr + klen + ilen
	}
	return interiorCellHdr + klen
}

// search returns the index of the first cell whose key is >= key, and
// whether an exact match was found there.
func search(p []byte, key []byte) (int, bool) {
	lo, hi := 0, nCells(p)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(cellKey(p, mid), key) {
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	exact := lo < nCells(p) && bytes.Equal(cellKey(p, lo), key)
	return lo, exact
}

// insertCell places raw cell bytes at slot i, compacting first when
// dead space from deletes or replacements fragments the page. Returns
// false if the page is full even after compaction.
func insertCell(p []byte, i int, cell []byte) bool {
	n := nCells(p)
	if cellStart(p) < hdrSize+2*(n+1)+len(cell) {
		live := 0
		for j := 0; j < n; j++ {
			live += cellSize(p, j)
		}
		if hdrSize+2*(n+1)+live+len(cell) > pager.PageSize {
			return false
		}
		compact(p)
	}
	off := cellStart(p) - len(cell)
	copy(p[off:], cell)
	n = nCells(p)
	copy(p[hdrSize+2*(i+1):hdrSize+2*(n+1)], p[hdrSize+2*i:hdrSize+2*n])
	setSlotOff(p, i, off)
	setNCells(p, n+1)
	setCellStart(p, off)
	return true
}

// removeCell drops slot i; the cell content becomes dead space
// reclaimed by the next compact.
func removeCell(p []byte, i int) {
	n := nCells(p)
	copy(p[hdrSize+2*i:hdrSize+2*(n-1)], p[hdrSize+2*(i+1):hdrSize+2*n])
	setNCells(p, n-1)
	if n-1 == 0 {
		setCellStart(p, pager.PageSize)
	}
}

// compact rewrites all cells tightly against the page end.
func compact(p []byte) {
	n := nCells(p)
	var scratch [pager.PageSize]byte
	end := pager.PageSize
	offs := make([]int, n)
	for i := 0; i < n; i++ {
		sz := cellSize(p, i)
		end -= sz
		copy(scratch[end:], p[slotOff(p, i):slotOff(p, i)+sz])
		offs[i] = end
	}
	copy(p[end:], scratch[end:])
	for i, off := range offs {
		setSlotOff(p, i, off)
	}
	setCellStart(p, end)
}

// --- public operations ----------------------------------------------

// Get returns the value for key.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	id := t.root
	for {
		p, err := t.pg.View(id)
		if err != nil {
			return nil, false, err
		}
		i, exact := search(p, key)
		if pageType(p) == typeLeaf {
			if !exact {
				return nil, false, nil
			}
			return t.materialize(p, i)
		}
		id = interiorChild(p, i)
	}
}

// materialize copies the full value of leaf cell i, following any
// overflow chain.
func (t *BTree) materialize(p []byte, i int) ([]byte, bool, error) {
	inline, ovfl := leafCellValue(p, i)
	out := make([]byte, len(inline))
	copy(out, inline)
	for ovfl != 0 {
		op, err := t.pg.View(ovfl)
		if err != nil {
			return nil, false, err
		}
		next := pager.PageID(binary.BigEndian.Uint32(op[0:]))
		l := int(binary.BigEndian.Uint16(op[4:]))
		out = append(out, op[ovflHdr:ovflHdr+l]...)
		ovfl = next
	}
	return out, true, nil
}

// Insert sets key to value, replacing any existing value. It reports
// whether the key was new.
func (t *BTree) Insert(key, value []byte) (bool, error) {
	if len(key) == 0 || len(key) > MaxKey {
		return false, fmt.Errorf("btree: key length %d out of range [1,%d]", len(key), MaxKey)
	}
	fresh, split, err := t.insertInto(t.root, key, value)
	if err != nil {
		return false, err
	}
	if split != nil {
		if err := t.splitRoot(split); err != nil {
			return false, err
		}
	}
	return fresh, nil
}

// splitResult describes a child split to be absorbed by the parent:
// the child (which kept its PageID) now holds keys <= sep, and right
// holds the rest.
type splitResult struct {
	sep   []byte
	right pager.PageID
}

// splitRoot absorbs a split of the root itself: the root currently
// holds the left half (placeCell splits in place). Move that half into
// a fresh page and rewrite the root as a two-child interior node, so
// the root PageID stays stable for the tree's whole lifetime.
func (t *BTree) splitRoot(split *splitResult) error {
	rootPage, err := t.pg.Mut(t.root)
	if err != nil {
		return err
	}
	leftID, leftPage, err := t.pg.Allocate()
	if err != nil {
		return err
	}
	copy(leftPage, rootPage)
	initPage(rootPage, typeInterior)
	insertCell(rootPage, 0, interiorCell(split.sep, leftID))
	setRightChild(rootPage, split.right)
	return nil
}

// interiorCell encodes a router cell: keys <= key live under child.
func interiorCell(key []byte, child pager.PageID) []byte {
	cell := make([]byte, interiorCellHdr+len(key))
	binary.BigEndian.PutUint16(cell[0:], uint16(len(key)))
	binary.BigEndian.PutUint32(cell[2:], uint32(child))
	copy(cell[interiorCellHdr:], key)
	return cell
}

// insertInto inserts into the subtree rooted at id. If the page had to
// split, the page keeps the left half and the returned splitResult
// carries the separator and the new right page.
func (t *BTree) insertInto(id pager.PageID, key, value []byte) (fresh bool, split *splitResult, err error) {
	view, err := t.pg.View(id)
	if err != nil {
		return false, nil, err
	}
	if pageType(view) == typeLeaf {
		return t.insertLeaf(id, key, value)
	}
	i, _ := search(view, key)
	child := interiorChild(view, i)
	fresh, childSplit, err := t.insertInto(child, key, value)
	if err != nil || childSplit == nil {
		return fresh, nil, err
	}
	// Absorb the child's split: the slot that led to child now covers
	// the right half, and a router cell (sep -> child) goes in front of
	// it.
	p, err := t.pg.Mut(id)
	if err != nil {
		return false, nil, err
	}
	setInteriorChild(p, i, childSplit.right)
	split, err = t.placeCell(id, p, i, interiorCell(childSplit.sep, child))
	return fresh, split, err
}

func (t *BTree) insertLeaf(id pager.PageID, key, value []byte) (bool, *splitResult, error) {
	p, err := t.pg.Mut(id)
	if err != nil {
		return false, nil, err
	}
	i, exact := search(p, key)
	if exact {
		// Replace: account and drop the old cell, returning its
		// overflow chain to the pager's free list, then insert anew.
		old, err := t.dropLeafCell(p, i)
		if err != nil {
			return false, nil, err
		}
		t.live -= int64(len(key)) + old
	}
	cell, err := t.buildLeafCell(key, value)
	if err != nil {
		return false, nil, err
	}
	t.live += int64(len(key) + len(value))
	split, err := t.placeCell(id, p, i, cell)
	return !exact, split, err
}

// placeCell inserts cell at slot pos of page id, whose writable bytes
// are p. If the cell does not fit, it splits the page in place by the
// package's split rule and returns the new right page and separator.
func (t *BTree) placeCell(id pager.PageID, p []byte, pos int, cell []byte) (*splitResult, error) {
	if insertCell(p, pos, cell) {
		return nil, nil
	}
	rightID, right, err := t.pg.Allocate()
	if err != nil {
		return nil, err
	}
	var buf [pager.PageSize]byte
	old, n := buf[:], nCells(p)
	copy(old, p)
	at := func(j int) []byte { // cell j of the combined sequence
		switch {
		case j == pos:
			return cell
		case j > pos:
			j--
		}
		off := slotOff(old, j)
		return old[off : off+cellSize(old, j)]
	}
	total := 0
	for j := 0; j <= n; j++ {
		total += len(at(j)) + 2
	}
	s, best, acc := 1, total, 0
	for k := 1; k <= n; k++ {
		acc += len(at(k-1)) + 2
		if cost := max(acc, total-acc); cost < best {
			s, best = k, cost
		}
	}
	typ := pageType(old)
	initPage(p, typ)
	initPage(right, typ)
	fits := true
	for j := 0; j < s; j++ {
		fits = insertCell(p, j, at(j)) && fits
	}
	sep, upper := cellKey(p, s-1), s
	if typ == typeInterior {
		promoted := at(s)
		sep, upper = promoted[interiorCellHdr:], s+1
		setRightChild(p, pager.PageID(binary.BigEndian.Uint32(promoted[2:])))
		setRightChild(right, rightChild(old))
	}
	for j := upper; j <= n; j++ {
		fits = insertCell(right, j-upper, at(j)) && fits
	}
	if !fits {
		return nil, fmt.Errorf("btree: split of page %d overflows a half", id)
	}
	return &splitResult{sep: bytes.Clone(sep), right: rightID}, nil
}

// dropLeafCell removes leaf cell i, frees its overflow chain, and
// returns the full value length the cell held.
func (t *BTree) dropLeafCell(p []byte, i int) (int64, error) {
	inline, ovfl := leafCellValue(p, i)
	size := int64(len(inline))
	removeCell(p, i)
	if ovfl != 0 {
		n, err := t.freeOverflow(ovfl)
		if err != nil {
			return 0, err
		}
		size += n
	}
	return size, nil
}

// freeOverflow walks an overflow chain, returning every page to the
// pager's free list, and reports the chained value bytes freed.
func (t *BTree) freeOverflow(ovfl pager.PageID) (int64, error) {
	var freed int64
	for ovfl != 0 {
		op, err := t.pg.View(ovfl)
		if err != nil {
			return freed, err
		}
		next := pager.PageID(binary.BigEndian.Uint32(op[0:]))
		freed += int64(binary.BigEndian.Uint16(op[4:]))
		if err := t.pg.Free(ovfl); err != nil {
			return freed, err
		}
		ovfl = next
	}
	return freed, nil
}

// buildLeafCell encodes a leaf cell, spilling long values to overflow
// pages.
func (t *BTree) buildLeafCell(key, value []byte) ([]byte, error) {
	inline := value
	var ovfl pager.PageID
	if leafCellHdr+len(key)+len(value) > maxLeafCell {
		cut := maxLeafCell - leafCellHdr - len(key)
		if cut < 0 {
			cut = 0
		}
		inline = value[:cut]
		rest := value[cut:]
		// Build the chain back-to-front so each page knows its next.
		var next pager.PageID
		chunks := (len(rest) + ovflData - 1) / ovflData
		for c := chunks - 1; c >= 0; c-- {
			lo := c * ovflData
			hi := lo + ovflData
			if hi > len(rest) {
				hi = len(rest)
			}
			id, page, err := t.pg.Allocate()
			if err != nil {
				return nil, err
			}
			binary.BigEndian.PutUint32(page[0:], uint32(next))
			binary.BigEndian.PutUint16(page[4:], uint16(hi-lo))
			copy(page[ovflHdr:], rest[lo:hi])
			next = id
		}
		ovfl = next
	}
	cell := make([]byte, leafCellHdr+len(key)+len(inline))
	binary.BigEndian.PutUint16(cell[0:], uint16(len(key)))
	binary.BigEndian.PutUint32(cell[2:], uint32(len(inline)))
	binary.BigEndian.PutUint32(cell[6:], uint32(ovfl))
	copy(cell[leafCellHdr:], key)
	copy(cell[leafCellHdr+len(key):], inline)
	return cell, nil
}

// Delete removes key, reporting whether it was present. Tree pages are
// not rebalanced (an underfull page stays in the tree), but the value's
// overflow chain goes back to the pager's free list and the live-byte
// counter retreats by the entry's payload.
func (t *BTree) Delete(key []byte) (bool, error) {
	id := t.root
	for {
		view, err := t.pg.View(id)
		if err != nil {
			return false, err
		}
		i, exact := search(view, key)
		if pageType(view) == typeLeaf {
			if !exact {
				return false, nil
			}
			p, err := t.pg.Mut(id)
			if err != nil {
				return false, err
			}
			i, exact = search(p, key)
			if !exact {
				return false, nil
			}
			old, err := t.dropLeafCell(p, i)
			if err != nil {
				return false, err
			}
			t.live -= int64(len(key)) + old
			return true, nil
		}
		id = interiorChild(view, i)
	}
}

// Pages enumerates every page the tree owns — interior and leaf nodes
// plus all overflow chains — so the store layer can return them to the
// pager's free list when a keyspace is dropped or rewritten by vacuum.
func (t *BTree) Pages() ([]pager.PageID, error) {
	var out []pager.PageID
	var walk func(id pager.PageID) error
	walk = func(id pager.PageID) error {
		p, err := t.pg.View(id)
		if err != nil {
			return err
		}
		out = append(out, id)
		if pageType(p) == typeLeaf {
			for i := 0; i < nCells(p); i++ {
				_, ovfl := leafCellValue(p, i)
				for ovfl != 0 {
					op, err := t.pg.View(ovfl)
					if err != nil {
						return err
					}
					out = append(out, ovfl)
					ovfl = pager.PageID(binary.BigEndian.Uint32(op[0:]))
				}
			}
			return nil
		}
		for i := 0; i <= nCells(p); i++ { // interior has nCells+1 children
			if err := walk(interiorChild(p, i)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	return out, nil
}

// Cursor iterates keys in ascending order. It must not be used across
// writes to the same tree (callers hold the tree's lock while
// iterating). While positioned it holds its leaf's page bytes, so Next,
// Key and Value within a leaf touch no pager: without a write to the
// tree those bytes cannot change (the pager copies a page before
// writing it and never recycles an evicted buffer).
type Cursor struct {
	t     *BTree
	stack []cursorLevel
	leaf  []byte // the page of the top stack level while valid
	err   error
	valid bool
}

type cursorLevel struct {
	page pager.PageID
	idx  int
}

// NewCursor returns an unpositioned cursor; call Seek first.
func (t *BTree) NewCursor() *Cursor { return &Cursor{t: t} }

// Seek positions the cursor at the first key >= key.
func (c *Cursor) Seek(key []byte) {
	c.stack = c.stack[:0]
	c.err = nil
	c.valid = false
	id := c.t.root
	for {
		p, err := c.t.pg.View(id)
		if err != nil {
			c.err = err
			return
		}
		i, _ := search(p, key)
		c.stack = append(c.stack, cursorLevel{page: id, idx: i})
		if pageType(p) == typeLeaf {
			if i < nCells(p) {
				c.leaf, c.valid = p, true
				return
			}
			c.advance()
			return
		}
		id = interiorChild(p, i)
	}
}

// Next advances to the next key.
func (c *Cursor) Next() {
	if !c.valid {
		return
	}
	top := &c.stack[len(c.stack)-1]
	top.idx++
	if top.idx < nCells(c.leaf) {
		return
	}
	c.advance()
}

// advance pops the current leaf and descends to the first cell of the
// next non-empty one.
func (c *Cursor) advance() {
	c.valid = false
	// Pop the exhausted leaf.
	c.stack = c.stack[:len(c.stack)-1]
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		p, err := c.t.pg.View(top.page)
		if err != nil {
			c.err = err
			return
		}
		top.idx++
		if top.idx <= nCells(p) { // interior has nCells+1 children
			if c.descendMin(interiorChild(p, top.idx)) {
				return
			}
			continue // empty subtree: keep advancing at this level
		}
		c.stack = c.stack[:len(c.stack)-1]
	}
}

// descendMin pushes the path to the smallest key under id; returns
// true if it found a leaf cell. Deletes can empty whole leaves (the
// tree does not rebalance), so the minimum is not always down the
// leftmost path: each interior level tries its children left to right
// until one subtree yields a cell.
func (c *Cursor) descendMin(id pager.PageID) bool {
	p, err := c.t.pg.View(id)
	if err != nil {
		c.err = err
		return false
	}
	if pageType(p) == typeLeaf {
		if nCells(p) == 0 {
			return false
		}
		c.stack = append(c.stack, cursorLevel{page: id, idx: 0})
		c.leaf, c.valid = p, true
		return true
	}
	for i := 0; i <= nCells(p); i++ {
		c.stack = append(c.stack, cursorLevel{page: id, idx: i})
		if c.descendMin(interiorChild(p, i)) {
			return true
		}
		c.stack = c.stack[:len(c.stack)-1]
		if c.err != nil {
			return false
		}
	}
	return false
}

// Valid reports whether the cursor is on a cell.
func (c *Cursor) Valid() bool { return c.valid }

// Err returns the first I/O error the cursor hit.
func (c *Cursor) Err() error { return c.err }

// Key returns a copy of the current key.
func (c *Cursor) Key() []byte {
	if !c.valid {
		return nil
	}
	return append([]byte(nil), cellKey(c.leaf, c.stack[len(c.stack)-1].idx)...)
}

// Value returns a copy of the current value (following overflow).
func (c *Cursor) Value() []byte {
	if !c.valid {
		return nil
	}
	v, _, err := c.t.materialize(c.leaf, c.stack[len(c.stack)-1].idx)
	if err != nil {
		c.err, c.valid = err, false
		return nil
	}
	return v
}

// leaves calls fn with each non-empty leaf holding keys >= start, in
// key order, and the slot of the first such key in it (0 after the
// first leaf), until fn returns false. Empty leaves are skipped as the
// cursor skips them.
func (t *BTree) leaves(start []byte, fn func(p []byte, from int) bool) error {
	c := t.NewCursor()
	for c.Seek(start); c.valid; c.advance() {
		if !fn(c.leaf, c.stack[len(c.stack)-1].idx) {
			break
		}
	}
	return c.err
}

// CountPrefix returns the number of keys that start with prefix. It
// adds whole leaves by their cell count while a leaf's last key still
// has the prefix and searches only the leaf where the range ends, so it
// costs one page read per leaf, not per key. The count is exact.
func (t *BTree) CountPrefix(prefix []byte) (int, error) {
	n := 0
	err := t.leaves(prefix, func(p []byte, from int) bool {
		cells := nCells(p)
		if bytes.HasPrefix(cellKey(p, cells-1), prefix) {
			n += cells - from
			return true
		}
		// Keys >= prefix that have it form a run, which ends here.
		n += sort.Search(cells-from, func(j int) bool {
			return !bytes.HasPrefix(cellKey(p, from+j), prefix)
		})
		return false
	})
	return n, err
}

// Walk calls fn for every pair with key >= start, in ascending key
// order, until fn returns false. It reads each leaf once and passes
// sub-slices of the page: key and value are valid only during the call
// and must be copied to be kept. A value is materialized only when it
// continues in an overflow chain.
func (t *BTree) Walk(start []byte, fn func(key, value []byte) bool) error {
	var err error
	lerr := t.leaves(start, func(p []byte, from int) bool {
		for i := from; i < nCells(p); i++ {
			k := cellKey(p, i)
			v, ovfl := leafCellValue(p, i)
			if ovfl != 0 {
				if v, _, err = t.materialize(p, i); err != nil {
					return false
				}
			}
			// Cap both slices so an append by fn cannot write into the page.
			if !fn(k[:len(k):len(k)], v[:len(v):len(v)]) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	return lerr
}
