package core

import (
	"errors"
	"sort"
	"unsafe"

	"tatooine/internal/value"
)

// Iterator is the Volcano-style operator interface of the residual-join
// engine: Open, repeated Next until exhausted, Close. Operators carry
// no column names: the plan resolved every column to a position.
type Iterator interface {
	// Open prepares the iterator; it must be called before Next.
	Open() error
	// Next returns the next row. ok=false signals exhaustion.
	Next() (row value.Row, ok bool, err error)
	// Close releases resources; the iterator cannot be reused.
	Close() error
}

// Materialize drains an iterator into rows. A Close error on a cleanly
// drained input surfaces (a streaming input may only learn of an
// upstream failure when it releases its resources); after an Open or
// Next error the Close error is secondary and the original wins.
func Materialize(it Iterator) ([]value.Row, error) {
	if err := it.Open(); err != nil {
		it.Close()
		return nil, err
	}
	var out []value.Row
	for {
		row, ok, err := it.Next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if !ok {
			if err := it.Close(); err != nil {
				return nil, err
			}
			return out, nil
		}
		out = append(out, row)
	}
}

// bufferedIterator is the optional capability of iterators that can
// report whether a row is ready without blocking. The streaming
// executor uses it to flush partial batches — a probe dispatch or a
// wire write — when the input would otherwise stall, instead of
// holding early rows hostage to a full batch.
type bufferedIterator interface {
	// Buffered reports (best effort) whether Next returns without
	// blocking on an upstream channel.
	Buffered() bool
}

// iterBuffered reports whether it can serve a Next without blocking.
// Iterators without the capability are fully materialized and never
// block.
func iterBuffered(it Iterator) bool {
	if b, ok := it.(bufferedIterator); ok {
		return b.Buffered()
	}
	return true
}

// ---------- scan ----------

// scanIterator iterates materialized rows.
type scanIterator struct {
	rows   []value.Row
	pos    int
	closed bool
}

func newScan(rows []value.Row) *scanIterator { return &scanIterator{rows: rows} }

func (s *scanIterator) Open() error { s.pos = 0; return nil }

// Close is idempotent; a closed scan stops yielding rows.
func (s *scanIterator) Close() error {
	s.closed = true
	return nil
}

func (s *scanIterator) Next() (value.Row, bool, error) {
	if s.closed || s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, true, nil
}

// ---------- hash join ----------

// hashJoin joins two inputs on the key positions of a plan-time
// joinStep; with no keys every row has the empty key, so the join is a
// cross product. The right input is materialized into a hash table on
// Open; the left side streams. With a positive budget, a build side
// that outgrows it spills to a Grace-style partitioned on-disk join
// instead of growing without bound — see spilljoin.go.
type hashJoin struct {
	left, right Iterator
	joinStep
	table   joinTable
	cur     value.Row   // current left row
	matches []value.Row // pending right matches for cur
	mi      int
	key     []byte  // scratch for join keys
	slab    rowSlab // backing for combined rows
	closed  bool

	budget  int64             // build-side byte budget; <= 0 never spills
	onSpill func(bytes int64) // called with byte deltas as spill files grow
	sj      *spillJoin        // non-nil once the build side spilled
}

// newHashJoin builds the join j of left and right under a build-side
// memory budget in bytes: when the right input's estimated footprint
// exceeds it, the join spills both sides to temporary partition files
// and joins partition-at-a-time (same row multiset, different order).
// onSpill, when non-nil, receives byte deltas as spill files grow.
// Cross products never spill.
func newHashJoin(left, right Iterator, j joinStep, budget int64, onSpill func(bytes int64)) *hashJoin {
	return &hashJoin{left: left, right: right, joinStep: j, budget: budget, onSpill: onSpill}
}

// valueBytes is the resident size of one value.Value.
const valueBytes = int64(unsafe.Sizeof(value.Value{}))

// rowBytes is the resident cost of a row of width values carrying
// strBytes of string payload: the slice header, the value array and
// the strings. The executor charges measured rows with it (see
// rowFootprint); explain sizes a step's output from its layout width.
// An estimate is enough — the budget bounds order-of-magnitude growth,
// not exact bytes.
func rowBytes(width int, strBytes int64) int64 {
	return 24 + int64(width)*valueBytes + strBytes
}

// rowFootprint is rowBytes for a concrete row.
func rowFootprint(r value.Row) int64 {
	var strBytes int64
	for _, v := range r {
		if v.Kind() == value.String {
			strBytes += int64(len(v.Str()))
		}
	}
	return rowBytes(len(r), strBytes)
}

func (h *hashJoin) Open() error {
	if err := h.left.Open(); err != nil {
		return err
	}
	if err := h.right.Open(); err != nil {
		return err
	}
	h.table = newJoinTable()
	var buildBytes int64
	for {
		row, ok, err := h.right.Next()
		if err != nil || !ok {
			if err == nil && h.sj != nil {
				err = h.sj.flush()
			}
			return err
		}
		var null bool
		if h.key, null = appendJoinKey(h.key[:0], row, h.rightKey); null {
			continue // nulls never join
		}
		if h.sj == nil && h.budget > 0 && len(h.rightKey) > 0 {
			if buildBytes += rowFootprint(row); buildBytes > h.budget {
				// Budget exceeded: switch to the spill path, moving the
				// rows accumulated so far to disk before continuing.
				if h.sj, err = newSpillJoin(h); err != nil {
					return err
				}
				for k, i := range h.table.index {
					for _, r := range h.table.rows[i] {
						if err := h.sj.add(spillBuild, []byte(k), r); err != nil {
							return err
						}
					}
				}
				h.table = joinTable{}
			}
		}
		if h.sj != nil {
			if err := h.sj.add(spillBuild, h.key, row); err != nil {
				return err
			}
			continue
		}
		h.table.add(h.key, row)
	}
}

// appendJoinKey appends row's key over positions to b; null reports a
// null component (nulls never join). A single column's key is its
// value's key, self-delimiting as a lone component; several columns
// are framed as Row.Key frames them.
func appendJoinKey(b []byte, row value.Row, positions []int) ([]byte, bool) {
	for _, p := range positions {
		v := row[p]
		if v.IsNull() {
			return b, true
		}
		if len(positions) == 1 {
			return value.AppendKey(b, v), false
		}
		b = value.AppendKeyFrame(b, v)
	}
	return b, false
}

// joinTable is a hash join's build side: its rows grouped by join key.
// Keys are looked up from a scratch buffer, so only a new key is made
// into a string.
type joinTable struct {
	index map[string]int // key -> position in rows
	rows  [][]value.Row
}

func newJoinTable() joinTable { return joinTable{index: make(map[string]int)} }

func (t *joinTable) add(key []byte, row value.Row) {
	i, ok := t.index[string(key)]
	if !ok {
		i = len(t.rows)
		t.index[string(key)] = i
		t.rows = append(t.rows, nil)
	}
	t.rows[i] = append(t.rows[i], row)
}

// get returns the rows under key, or nil.
func (t *joinTable) get(key []byte) []value.Row {
	if i, ok := t.index[string(key)]; ok {
		return t.rows[i]
	}
	return nil
}

func (h *hashJoin) Next() (value.Row, bool, error) {
	if h.sj != nil {
		return h.sj.next()
	}
	for {
		if h.mi < len(h.matches) {
			return h.combine(), true, nil
		}
		row, ok, err := h.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		h.cur = row
		h.mi = 0
		var null bool
		if h.key, null = appendJoinKey(h.key[:0], row, h.leftKey); null {
			h.matches = nil
			continue
		}
		h.matches = h.table.get(h.key)
	}
}

// combine joins the current left row with its next match, in a row
// cut from a backing array with room for all of the left row's
// remaining matches.
func (h *hashJoin) combine() value.Row {
	l, r := h.cur, h.matches[h.mi]
	out := h.slab.row(len(l)+len(h.pass), len(h.matches)-h.mi)
	h.mi++
	copy(out, l)
	for i, p := range h.pass {
		out[len(l)+i] = r[p]
	}
	return out
}

// maxSlabRows bounds the rows of one rowSlab array, and so the rows
// made and never used when an operator stops early.
const maxSlabRows = 64

// rowSlab cuts an operator's output rows from shared backing arrays,
// which double from one row up to maxSlabRows, so an operator does not
// allocate per row and a small result makes few rows it never uses. An
// array is never reused, so a row that went downstream is never
// overwritten.
type rowSlab struct {
	free []value.Value // the current array's uncut part
	rows int           // rows of the current array
}

// row returns a zeroed row of width w, capped at w, from an array with
// room for at least n such rows when a new one is made. A row of width
// 0 is empty, never nil: a nil row encodes as JSON null.
func (s *rowSlab) row(w, n int) value.Row {
	if len(s.free) < w || s.free == nil {
		s.rows = min(max(2*s.rows, 1), maxSlabRows)
		s.free = make([]value.Value, w*max(n, s.rows))
	}
	r := s.free[:w:w]
	s.free = s.free[w:]
	return r
}

// Close closes both inputs exactly once, combining their errors
// (errors.Join) so a failure in either child surfaces instead of one
// masking the other. Repeated calls are no-ops returning nil.
func (h *hashJoin) Close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	var spillErr error
	if h.sj != nil {
		spillErr = h.sj.release()
	}
	return errors.Join(h.left.Close(), h.right.Close(), spillErr)
}

// Buffered reports whether Next would return without blocking: either
// matches for the current left row remain, or the streaming left side
// has a row ready. Best effort — a buffered left row may still join to
// nothing. A spilled join's first Next blocks draining the probe side
// (a grace join barriers on both inputs); afterwards everything is
// local, so it defers to the left input's readiness either way.
func (h *hashJoin) Buffered() bool {
	if h.sj != nil && h.sj.leftDone {
		return true
	}
	return h.mi < len(h.matches) || iterBuffered(h.left)
}

// ---------- project ----------

// projectIterator reorders/narrows columns: output column i is input
// position pos[i].
type projectIterator struct {
	in   Iterator
	pos  []int
	slab rowSlab
}

func newProject(in Iterator, pos []int) *projectIterator {
	return &projectIterator{in: in, pos: pos}
}

func (p *projectIterator) Open() error { return p.in.Open() }

func (p *projectIterator) Next() (value.Row, bool, error) {
	row, ok, err := p.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := p.slab.row(len(p.pos), 1)
	for i, j := range p.pos {
		out[i] = row[j]
	}
	return out, true, nil
}

func (p *projectIterator) Close() error { return p.in.Close() }

// Buffered reports whether the input has a row ready (projection is
// row-at-a-time, so it adds no buffering of its own).
func (p *projectIterator) Buffered() bool { return iterBuffered(p.in) }

// ---------- distinct ----------

// distinctIterator removes duplicate rows.
type distinctIterator struct {
	in   Iterator
	seen map[string]struct{}
	key  []byte // scratch for row keys
}

func newDistinct(in Iterator) *distinctIterator { return &distinctIterator{in: in} }

func (d *distinctIterator) Open() error {
	d.seen = make(map[string]struct{})
	return d.in.Open()
}

func (d *distinctIterator) Close() error { return d.in.Close() }

// Buffered is best effort: a ready input row may be a duplicate.
func (d *distinctIterator) Buffered() bool { return iterBuffered(d.in) }

func (d *distinctIterator) Next() (value.Row, bool, error) {
	for {
		row, ok, err := d.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		d.key = d.key[:0]
		for _, v := range row {
			d.key = value.AppendKeyFrame(d.key, v)
		}
		if _, dup := d.seen[string(d.key)]; dup {
			continue
		}
		d.seen[string(d.key)] = struct{}{}
		return row, true, nil
	}
}

// ---------- sort ----------

// sortIterator materializes and orders rows by the column at pos.
type sortIterator struct {
	in   Iterator
	pos  int
	desc bool
	rows []value.Row
	next int
}

func newSort(in Iterator, pos int, desc bool) *sortIterator {
	return &sortIterator{in: in, pos: pos, desc: desc}
}

func (s *sortIterator) Open() error {
	if err := s.in.Open(); err != nil {
		return err
	}
	s.rows = nil
	for {
		row, ok, err := s.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.rows = append(s.rows, row)
	}
	sort.SliceStable(s.rows, func(i, j int) bool {
		c, _ := value.Compare(s.rows[i][s.pos], s.rows[j][s.pos])
		if s.desc {
			return c > 0
		}
		return c < 0
	})
	s.next = 0
	return nil
}

func (s *sortIterator) Next() (value.Row, bool, error) {
	if s.next >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.next]
	s.next++
	return row, true, nil
}

func (s *sortIterator) Close() error { return s.in.Close() }

// ---------- limit ----------

// limitIterator truncates the input after n rows.
type limitIterator struct {
	in   Iterator
	n    int
	seen int
}

// newLimit bounds the input to n rows (n <= 0 passes everything).
func newLimit(in Iterator, n int) *limitIterator { return &limitIterator{in: in, n: n} }

func (l *limitIterator) Open() error  { l.seen = 0; return l.in.Open() }
func (l *limitIterator) Close() error { return l.in.Close() }

// Buffered reports whether Next returns without blocking — trivially
// true once the bound is reached (exhaustion is immediate).
func (l *limitIterator) Buffered() bool {
	return (l.n > 0 && l.seen >= l.n) || iterBuffered(l.in)
}

func (l *limitIterator) Next() (value.Row, bool, error) {
	if l.n > 0 && l.seen >= l.n {
		return nil, false, nil
	}
	row, ok, err := l.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}
