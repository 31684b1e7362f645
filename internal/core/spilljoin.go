package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"tatooine/internal/pager"
	"tatooine/internal/store"
	"tatooine/internal/value"
)

// Grace-style spill path for hashJoin. When a join's build side
// exceeds ExecOptions.JoinMemBudget the iterator stops growing its
// in-memory hash table and instead hash-partitions BOTH inputs into a
// temporary on-disk store, then joins partition-at-a-time: one
// partition's build rows are resident at a time (~1/spillPartitions of
// the build side), and probe rows are read back one by one through the
// temp store's small page cache. Output is the same row multiset as the
// in-memory join; only order differs.
//
// Cross products (no shared columns) never spill — there is no join key
// to partition on, and partitioning cannot shrink them anyway. Extreme
// key skew (one key carrying most of the build side) also cannot be
// split by hashing; such a partition is loaded whole, like every hash
// join must.

const (
	// spillPartitions is the grace-join fan-out. The resident build
	// table per partition is ~1/32 of the build side, so builds up to
	// roughly 32x the budget stay within it.
	spillPartitions = 32
	// spillCommitEvery bounds the temp store's uncommitted dirty page
	// set: partition writes commit every this many rows.
	spillCommitEvery = 4096
	// spillCacheSize is the temp store's page-cache budget in pages
	// (256 pages = 1 MiB); spill I/O is sequential, cache residency
	// buys little.
	spillCacheSize = 256
)

// spillJoin holds the on-disk state of a spilled hash join.
type spillJoin struct {
	h   *hashJoin
	dir string
	st  store.Store

	rightKS  [spillPartitions]store.KV
	leftKS   [spillPartitions]store.KV
	rightSeq [spillPartitions]uint64
	leftSeq  [spillPartitions]uint64

	pending       int   // rows written since the last temp-store commit
	bytes         int64 // bytes written and not yet reported to onSpill
	leftDone      bool
	part          int // current partition being joined; -1 before the first
	leftPos       uint64
	table         map[string][]value.Row // current partition's build table
	closed        bool
	rightReported bool
}

// newSpillJoin creates the temp store. The caller moves already-built
// rows in via addRight.
func newSpillJoin(h *hashJoin) (*spillJoin, error) {
	dir, err := os.MkdirTemp("", "tat-spill-")
	if err != nil {
		return nil, fmt.Errorf("core: spill join: %w", err)
	}
	st, err := store.Open(filepath.Join(dir, "spill.db"), store.Options{
		Pager:           pager.Options{CacheSize: spillCacheSize, NoSync: true},
		AutoVacuumRatio: -1,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("core: spill join: %w", err)
	}
	s := &spillJoin{h: h, dir: dir, st: st, part: -1}
	for p := 0; p < spillPartitions; p++ {
		if s.rightKS[p], err = st.Keyspace(fmt.Sprintf("r/%d", p)); err == nil {
			s.leftKS[p], err = st.Keyspace(fmt.Sprintf("l/%d", p))
		}
		if err != nil {
			s.release()
			return nil, fmt.Errorf("core: spill join: %w", err)
		}
	}
	return s, nil
}

func spillPartOf(key string) int {
	f := fnv.New32a()
	f.Write([]byte(key))
	return int(f.Sum32() % spillPartitions)
}

func seqKey(n uint64) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], n)
	return k[:]
}

// addRight spills one build-side row. Null-keyed rows never join and
// are dropped here, exactly as the in-memory build drops them.
func (s *spillJoin) addRight(row value.Row) error {
	key, null := joinKey(row, s.h.rightKey)
	if null {
		return nil
	}
	p := spillPartOf(key)
	return s.putRow(s.rightKS[p], &s.rightSeq[p], row)
}

// addLeft spills one probe-side row; null-keyed rows match nothing.
func (s *spillJoin) addLeft(row value.Row) error {
	key, null := joinKey(row, s.h.leftKey)
	if null {
		return nil
	}
	p := spillPartOf(key)
	return s.putRow(s.leftKS[p], &s.leftSeq[p], row)
}

// putRow appends a row to a partition keyspace under the next sequence
// number — sequence keys preserve the input multiset exactly
// (duplicate rows stay duplicated) and make read-back a series of O(1)
// cursor-free point gets.
func (s *spillJoin) putRow(kv store.KV, seq *uint64, row value.Row) error {
	buf := value.EncodeRow(row)
	if _, err := kv.Put(seqKey(*seq), buf); err != nil {
		return fmt.Errorf("core: spill join: %w", err)
	}
	*seq++
	s.bytes += int64(len(buf)) + 8
	s.pending++
	if s.pending >= spillCommitEvery {
		return s.flush()
	}
	return nil
}

// flush commits buffered partition writes and reports the byte delta.
func (s *spillJoin) flush() error {
	if s.pending > 0 {
		s.pending = 0
		if err := s.st.Commit(); err != nil {
			return fmt.Errorf("core: spill join: %w", err)
		}
	}
	if s.bytes > 0 && s.h.onSpill != nil {
		s.h.onSpill(s.bytes)
		s.bytes = 0
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
		if err := s.addLeft(row); err != nil {
			return err
		}
	}
}

// loadRightPartition materializes partition p's build table.
func (s *spillJoin) loadRightPartition(p int) error {
	s.table = make(map[string][]value.Row)
	if s.rightSeq[p] == 0 {
		return nil
	}
	var decErr error
	err := s.rightKS[p].Scan(nil, func(_, v []byte) bool {
		row, err := value.DecodeRow(v)
		if err != nil {
			decErr = err
			return false
		}
		key, _ := joinKey(row, s.h.rightKey) // null-keyed rows were never spilled
		s.table[key] = append(s.table[key], row)
		return true
	})
	if err == nil {
		err = decErr
	}
	if err != nil {
		return fmt.Errorf("core: spill join: %w", err)
	}
	return nil
}

// nextLeftRow reads the current partition's next probe row, or ok=false
// at the partition's end.
func (s *spillJoin) nextLeftRow() (value.Row, bool, error) {
	if s.part < 0 || s.leftPos >= s.leftSeq[s.part] {
		return nil, false, nil
	}
	v, ok, err := s.leftKS[s.part].Get(seqKey(s.leftPos))
	if err != nil {
		return nil, false, fmt.Errorf("core: spill join: %w", err)
	}
	if !ok {
		return nil, false, fmt.Errorf("core: spill join: missing probe row %d in partition %d", s.leftPos, s.part)
	}
	s.leftPos++
	row, err := value.DecodeRow(v)
	if err != nil {
		return nil, false, fmt.Errorf("core: spill join: %w", err)
	}
	return row, true, nil
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
			r := h.matches[h.mi]
			h.mi++
			return h.combine(h.cur, r), true, nil
		}
		row, ok, err := s.nextLeftRow()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			// Advance to the next partition with probe rows.
			s.part++
			if s.part >= spillPartitions {
				return nil, false, nil
			}
			s.leftPos = 0
			if s.leftSeq[s.part] == 0 {
				continue // nothing to probe; skip the build load too
			}
			if err := s.loadRightPartition(s.part); err != nil {
				return nil, false, err
			}
			continue
		}
		key, _ := joinKey(row, h.leftKey) // null-keyed rows were never spilled
		h.cur = row
		h.mi = 0
		h.matches = s.table[key]
	}
}

// release tears down the temp store and its directory.
func (s *spillJoin) release() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.bytes > 0 && s.h.onSpill != nil {
		s.h.onSpill(s.bytes)
		s.bytes = 0
	}
	err := s.st.Close()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}
