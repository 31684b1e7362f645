package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"tatooine/internal/value"
)

// Iterator is the Volcano-style operator interface of the residual-join
// engine: Open, repeated Next until exhausted, Close.
type Iterator interface {
	// Cols returns the output column names, stable across the iteration.
	Cols() []string
	// Open prepares the iterator; it must be called before Next.
	Open() error
	// Next returns the next row. ok=false signals exhaustion.
	Next() (row value.Row, ok bool, err error)
	// Close releases resources; the iterator cannot be reused.
	Close() error
}

// Relation is a materialized intermediate result.
type Relation struct {
	Cols []string
	Rows []value.Row
}

// colIndex returns the position of name, or -1.
func (r *Relation) colIndex(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Materialize drains an iterator into a Relation. A Close error on a
// cleanly drained input surfaces (a streaming input may only learn of
// an upstream failure when it releases its resources); after an Open
// or Next error the Close error is secondary and the original wins.
func Materialize(it Iterator) (*Relation, error) {
	if err := it.Open(); err != nil {
		it.Close()
		return nil, err
	}
	out := &Relation{Cols: it.Cols()}
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
		out.Rows = append(out.Rows, row)
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

// ScanIterator iterates a materialized relation.
type ScanIterator struct {
	rel    *Relation
	pos    int
	closed bool
}

// NewScan returns an iterator over rel.
func NewScan(rel *Relation) *ScanIterator { return &ScanIterator{rel: rel} }

func (s *ScanIterator) Cols() []string { return s.rel.Cols }
func (s *ScanIterator) Open() error    { s.pos = 0; return nil }

// Close is idempotent; a closed scan stops yielding rows.
func (s *ScanIterator) Close() error {
	s.closed = true
	return nil
}

func (s *ScanIterator) Next() (value.Row, bool, error) {
	if s.closed || s.pos >= len(s.rel.Rows) {
		return nil, false, nil
	}
	row := s.rel.Rows[s.pos]
	s.pos++
	return row, true, nil
}

// ---------- hash join ----------

// HashJoinIterator joins two inputs on their shared column names
// (natural join); with no shared columns it degrades to a cross
// product. The right input is materialized into a hash table on Open;
// the left side streams. With a budget set (NewHashJoinBudget) a build
// side that outgrows it spills to a Grace-style partitioned on-disk
// join instead of growing without bound — see spilljoin.go.
type HashJoinIterator struct {
	left, right Iterator
	cols        []string
	shared      []string
	leftKey     []int // positions of shared cols in left
	rightKey    []int // positions of shared cols in right
	rightPass   []int // positions of right cols not shared
	table       map[string][]value.Row
	rightRows   []value.Row // used for cross product
	cur         value.Row   // current left row
	matches     []value.Row // pending right matches for cur
	mi          int
	closed      bool

	budget  int64             // build-side byte budget; 0 = unbounded
	onSpill func(bytes int64) // called with byte deltas as spill files grow
	sj      *spillJoin        // non-nil once the build side spilled
}

// NewHashJoin builds a natural-join iterator over the inputs.
func NewHashJoin(left, right Iterator) *HashJoinIterator {
	h := &HashJoinIterator{left: left, right: right}
	lcols, rcols := left.Cols(), right.Cols()
	rset := make(map[string]int, len(rcols))
	for i, c := range rcols {
		rset[c] = i
	}
	for i, c := range lcols {
		if j, ok := rset[c]; ok {
			h.shared = append(h.shared, c)
			h.leftKey = append(h.leftKey, i)
			h.rightKey = append(h.rightKey, j)
		}
	}
	h.cols = append(h.cols, lcols...)
	for i, c := range rcols {
		if _, dup := indexOf(lcols, c); !dup {
			h.cols = append(h.cols, c)
			h.rightPass = append(h.rightPass, i)
		}
	}
	return h
}

// NewHashJoinBudget is NewHashJoin with a build-side memory budget in
// bytes; when the right input's estimated footprint exceeds it, the
// join spills both sides to a temporary on-disk store and joins
// partition-at-a-time (same row multiset, different order). budget <= 0
// never spills. onSpill, when non-nil, receives byte deltas as spill
// files grow. Cross products (no shared columns) never spill.
func NewHashJoinBudget(left, right Iterator, budget int64, onSpill func(bytes int64)) *HashJoinIterator {
	h := NewHashJoin(left, right)
	h.budget = budget
	h.onSpill = onSpill
	return h
}

// rowFootprint estimates a resident row's memory cost: slice and value
// headers plus string payloads. An estimate is enough — the budget
// bounds order-of-magnitude growth, not exact bytes.
func rowFootprint(r value.Row) int64 {
	n := int64(48)
	for _, v := range r {
		n += 32
		if v.Kind() == value.String {
			n += int64(len(v.Str()))
		}
	}
	return n
}

func indexOf(cols []string, name string) (int, bool) {
	for i, c := range cols {
		if c == name {
			return i, true
		}
	}
	return -1, false
}

func (h *HashJoinIterator) Cols() []string { return h.cols }

func (h *HashJoinIterator) Open() error {
	if err := h.left.Open(); err != nil {
		return err
	}
	if err := h.right.Open(); err != nil {
		return err
	}
	if len(h.shared) == 0 {
		for {
			row, ok, err := h.right.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			h.rightRows = append(h.rightRows, row)
		}
		return nil
	}
	h.table = make(map[string][]value.Row)
	var buildBytes int64
	for {
		row, ok, err := h.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			if h.sj != nil {
				return h.sj.flush()
			}
			return nil
		}
		key, null := joinKey(row, h.rightKey)
		if null {
			continue // nulls never join
		}
		if h.sj != nil {
			if err := h.sj.addRight(row); err != nil {
				return err
			}
			continue
		}
		if h.budget > 0 {
			buildBytes += rowFootprint(row)
			if buildBytes > h.budget {
				// Budget exceeded: switch to the spill path, moving the
				// rows accumulated so far to disk before continuing.
				sj, err := newSpillJoin(h)
				if err != nil {
					return err
				}
				h.sj = sj
				for _, rows := range h.table {
					for _, r := range rows {
						if err := sj.addRight(r); err != nil {
							return err
						}
					}
				}
				h.table = nil
				if err := sj.addRight(row); err != nil {
					return err
				}
				continue
			}
		}
		h.table[key] = append(h.table[key], row)
	}
}

func joinKey(row value.Row, positions []int) (string, bool) {
	// Single-column joins (the common case) need no length framing: the
	// value key is already self-delimiting for a lone component.
	if len(positions) == 1 {
		v := row[positions[0]]
		if v.IsNull() {
			return "", true
		}
		return v.Key(), false
	}
	var b strings.Builder
	for _, p := range positions {
		v := row[p]
		if v.IsNull() {
			return "", true
		}
		value.Frame(&b, v.Key())
	}
	return b.String(), false
}

func (h *HashJoinIterator) Next() (value.Row, bool, error) {
	if h.sj != nil {
		return h.sj.next()
	}
	for {
		if h.mi < len(h.matches) {
			r := h.matches[h.mi]
			h.mi++
			return h.combine(h.cur, r), true, nil
		}
		row, ok, err := h.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		h.cur = row
		h.mi = 0
		if len(h.shared) == 0 {
			h.matches = h.rightRows
			continue
		}
		key, null := joinKey(row, h.leftKey)
		if null {
			h.matches = nil
			continue
		}
		h.matches = h.table[key]
	}
}

func (h *HashJoinIterator) combine(l, r value.Row) value.Row {
	out := make(value.Row, 0, len(h.cols))
	out = append(out, l...)
	for _, p := range h.rightPass {
		out = append(out, r[p])
	}
	return out
}

// Close closes both inputs exactly once, combining their errors
// (errors.Join) so a failure in either child surfaces instead of one
// masking the other. Repeated calls are no-ops returning nil.
func (h *HashJoinIterator) Close() error {
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
func (h *HashJoinIterator) Buffered() bool {
	if h.sj != nil && h.sj.leftDone {
		return true
	}
	return h.mi < len(h.matches) || iterBuffered(h.left)
}

// ---------- project ----------

// ProjectIterator reorders/narrows columns by name.
type ProjectIterator struct {
	in   Iterator
	cols []string
	pos  []int
}

// NewProject projects the input onto cols (which must exist in the
// input); construction errors surface at Open.
func NewProject(in Iterator, cols []string) *ProjectIterator {
	return &ProjectIterator{in: in, cols: cols}
}

func (p *ProjectIterator) Cols() []string { return p.cols }

func (p *ProjectIterator) Open() error {
	p.pos = p.pos[:0]
	for _, c := range p.cols {
		i, ok := indexOf(p.in.Cols(), c)
		if !ok {
			return fmt.Errorf("core: projection column %q not in input %v", c, p.in.Cols())
		}
		p.pos = append(p.pos, i)
	}
	return p.in.Open()
}

func (p *ProjectIterator) Next() (value.Row, bool, error) {
	row, ok, err := p.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(value.Row, len(p.pos))
	for i, j := range p.pos {
		out[i] = row[j]
	}
	return out, true, nil
}

func (p *ProjectIterator) Close() error { return p.in.Close() }

// Buffered reports whether the input has a row ready (projection is
// row-at-a-time, so it adds no buffering of its own).
func (p *ProjectIterator) Buffered() bool { return iterBuffered(p.in) }

// ---------- distinct ----------

// DistinctIterator removes duplicate rows.
type DistinctIterator struct {
	in   Iterator
	seen map[string]struct{}
}

// NewDistinct wraps in with duplicate elimination.
func NewDistinct(in Iterator) *DistinctIterator { return &DistinctIterator{in: in} }

func (d *DistinctIterator) Cols() []string { return d.in.Cols() }

func (d *DistinctIterator) Open() error {
	d.seen = make(map[string]struct{})
	return d.in.Open()
}

func (d *DistinctIterator) Close() error { return d.in.Close() }

// Buffered is best effort: a ready input row may be a duplicate.
func (d *DistinctIterator) Buffered() bool { return iterBuffered(d.in) }

func (d *DistinctIterator) Next() (value.Row, bool, error) {
	for {
		row, ok, err := d.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		k := row.Key()
		if _, dup := d.seen[k]; dup {
			continue
		}
		d.seen[k] = struct{}{}
		return row, true, nil
	}
}

// ---------- sort ----------

// SortIterator materializes and orders rows by one column.
type SortIterator struct {
	in   Iterator
	col  string
	desc bool
	rows []value.Row
	pos  int
}

// NewSort sorts the input by the named column.
func NewSort(in Iterator, col string, desc bool) *SortIterator {
	return &SortIterator{in: in, col: col, desc: desc}
}

func (s *SortIterator) Cols() []string { return s.in.Cols() }

func (s *SortIterator) Open() error {
	if err := s.in.Open(); err != nil {
		return err
	}
	ci, ok := indexOf(s.in.Cols(), s.col)
	if !ok {
		return fmt.Errorf("core: sort column %q not in input %v", s.col, s.in.Cols())
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
		c, _ := value.Compare(s.rows[i][ci], s.rows[j][ci])
		if s.desc {
			return c > 0
		}
		return c < 0
	})
	s.pos = 0
	return nil
}

func (s *SortIterator) Next() (value.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, true, nil
}

func (s *SortIterator) Close() error { return s.in.Close() }

// ---------- limit ----------

// LimitIterator truncates the input after n rows.
type LimitIterator struct {
	in   Iterator
	n    int
	seen int
}

// NewLimit bounds the input to n rows (n <= 0 passes everything).
func NewLimit(in Iterator, n int) *LimitIterator { return &LimitIterator{in: in, n: n} }

func (l *LimitIterator) Cols() []string { return l.in.Cols() }
func (l *LimitIterator) Open() error    { l.seen = 0; return l.in.Open() }
func (l *LimitIterator) Close() error   { return l.in.Close() }

// Buffered reports whether Next returns without blocking — trivially
// true once the bound is reached (exhaustion is immediate).
func (l *LimitIterator) Buffered() bool {
	return (l.n > 0 && l.seen >= l.n) || iterBuffered(l.in)
}

func (l *LimitIterator) Next() (value.Row, bool, error) {
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
