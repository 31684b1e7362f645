package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"tatooine/internal/value"
)

// Grace-style spill path for hashJoin. When a join's build side
// exceeds ExecOptions.JoinMemBudget the iterator stops growing its
// in-memory hash table and instead hash-partitions BOTH inputs into
// plain files in a temporary directory, then joins partition-at-a-time:
// one partition's build rows are resident at a time (~1/spillPartitions
// of the build side), and probe rows stream back one by one. Output is
// the same row multiset as the in-memory join; only order differs.
//
// Each side of each partition is one append-only file, created on its
// first row and closed once its side is written (so at most one side's
// files are open at a time), then reopened and read once, in order. A
// file is a sequence of frames: a uvarint length, then value.EncodeRow
// bytes.
//
// Cross products (no shared columns) never spill — there is no join key
// to partition on, and partitioning cannot shrink them anyway. Extreme
// key skew (one key carrying most of the build side) also cannot be
// split by hashing; such a partition is loaded whole, like every hash
// join must.

// spillPartitions is the grace-join fan-out. The resident build table
// per partition is ~1/32 of the build side, so builds up to roughly 32x
// the budget stay within it.
const spillPartitions = 32

// Spill sides: the build (right) input, then the probe (left) input.
const (
	spillBuild = iota
	spillProbe
)

// spillFile is one side of one partition.
type spillFile struct {
	f    *os.File      // open while the side is being written
	w    *bufio.Writer // buffers f
	rows int           // frames written
}

// spillJoin holds the on-disk state of a spilled hash join.
type spillJoin struct {
	h     *hashJoin
	dir   string
	files [2][spillPartitions]spillFile

	bytes    int64 // bytes written and not yet reported to onSpill
	leftDone bool
	part     int          // current partition being joined; -1 before the first
	table    joinTable    // current partition's build table
	probe    *spillReader // current partition's probe rows
}

// newSpillJoin creates the temp directory. The caller moves
// already-built rows in via add.
func newSpillJoin(h *hashJoin) (*spillJoin, error) {
	dir, err := os.MkdirTemp("", "tat-spill-")
	if err != nil {
		return nil, fmt.Errorf("core: spill join: %w", err)
	}
	return &spillJoin{h: h, dir: dir, part: -1}, nil
}

func (s *spillJoin) path(side, p int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%d-%d", side, p))
}

// add appends a row with a non-null join key to its partition's file
// on side. Appending preserves the input multiset exactly (duplicate
// rows stay duplicated).
func (s *spillJoin) add(side int, key []byte, row value.Row) error {
	hash := fnv.New32a()
	hash.Write(key)
	p := int(hash.Sum32() % spillPartitions)
	sf := &s.files[side][p]
	if sf.w == nil {
		f, err := os.Create(s.path(side, p))
		if err != nil {
			return fmt.Errorf("core: spill join: %w", err)
		}
		sf.f, sf.w = f, bufio.NewWriter(f)
	}
	buf := value.EncodeRow(row)
	n, err := sf.w.Write(binary.AppendUvarint(nil, uint64(len(buf))))
	if err == nil {
		_, err = sf.w.Write(buf)
	}
	if err != nil {
		return fmt.Errorf("core: spill join: %w", err)
	}
	sf.rows++
	s.bytes += int64(n + len(buf))
	return nil
}

// flush closes every file open for writing and reports the byte delta.
func (s *spillJoin) flush() error {
	var errs []error
	for side := range s.files {
		for p := range s.files[side] {
			if sf := &s.files[side][p]; sf.w != nil {
				errs = append(errs, sf.w.Flush(), sf.f.Close())
				sf.f, sf.w = nil, nil
			}
		}
	}
	if s.bytes > 0 && s.h.onSpill != nil {
		s.h.onSpill(s.bytes)
		s.bytes = 0
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("core: spill join: %w", err)
	}
	return nil
}

// partitionLeft drains the streaming probe side to disk. A grace join
// is a barrier on both inputs; this runs once, on the first Next.
func (s *spillJoin) partitionLeft() error {
	for {
		row, ok, err := s.h.left.Next()
		if err != nil {
			return err
		}
		if !ok {
			return s.flush()
		}
		var null bool
		if s.h.key, null = appendJoinKey(s.h.key[:0], row, s.h.leftKey); !null { // null keys match nothing
			if err := s.add(spillProbe, s.h.key, row); err != nil {
				return err
			}
		}
	}
}

// spillReader reads one partition file's frames back in order, closing
// the file after the last. Closing it again is harmless (os.ErrClosed,
// ignored).
type spillReader struct {
	f *os.File
	r *bufio.Reader
	n int // frames left
}

func (s *spillJoin) open(side, p int) (*spillReader, error) {
	f, err := os.Open(s.path(side, p))
	if err != nil {
		return nil, fmt.Errorf("core: spill join: %w", err)
	}
	return &spillReader{f: f, r: bufio.NewReader(f), n: s.files[side][p].rows}, nil
}

// next returns the next row, or ok=false after the last. The frame
// count is known, so a file that ends early is an error, never a short
// result.
func (rd *spillReader) next() (value.Row, bool, error) {
	if rd.n == 0 {
		return nil, false, rd.f.Close()
	}
	rd.n--
	var row value.Row
	n, err := binary.ReadUvarint(rd.r)
	if err == nil {
		buf := make([]byte, n)
		if _, err = io.ReadFull(rd.r, buf); err == nil {
			row, err = value.DecodeRow(buf)
		}
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, false, fmt.Errorf("core: spill join: %s: %w", rd.f.Name(), err)
	}
	return row, true, nil
}

// loadRightPartition materializes partition p's build table.
func (s *spillJoin) loadRightPartition(p int) error {
	s.table = newJoinTable()
	if s.files[spillBuild][p].rows == 0 {
		return nil
	}
	rd, err := s.open(spillBuild, p)
	if err != nil {
		return err
	}
	defer rd.f.Close()
	for {
		row, ok, err := rd.next()
		if err != nil || !ok {
			return err
		}
		s.h.key, _ = appendJoinKey(s.h.key[:0], row, s.h.rightKey) // null-keyed rows were never spilled
		s.table.add(s.h.key, row)
	}
}

// next is the spilled iterator's Next: partition the probe side once,
// then walk partitions, probing each against its resident build table.
func (s *spillJoin) next() (value.Row, bool, error) {
	h := s.h
	if !s.leftDone {
		if err := s.partitionLeft(); err != nil {
			return nil, false, err
		}
		s.leftDone = true
	}
	for {
		if h.mi < len(h.matches) {
			return h.combine(), true, nil
		}
		if s.probe != nil {
			row, ok, err := s.probe.next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				h.key, _ = appendJoinKey(h.key[:0], row, h.leftKey) // null-keyed rows were never spilled
				h.cur, h.mi, h.matches = row, 0, s.table.get(h.key)
				continue
			}
		}
		// Advance to the next partition with probe rows.
		if s.part++; s.part >= spillPartitions {
			return nil, false, nil
		}
		s.probe = nil
		if s.files[spillProbe][s.part].rows == 0 {
			continue // nothing to probe; skip the build load too
		}
		if err := s.loadRightPartition(s.part); err != nil {
			return nil, false, err
		}
		var err error
		if s.probe, err = s.open(spillProbe, s.part); err != nil {
			return nil, false, err
		}
	}
}

// release closes any open file and removes the temp directory. It is
// idempotent.
func (s *spillJoin) release() error {
	err := s.flush()
	if s.probe != nil {
		s.probe.f.Close()
	}
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}
