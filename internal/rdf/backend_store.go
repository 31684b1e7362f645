package rdf

import (
	"encoding/binary"
	"sync/atomic"

	"tatooine/internal/store"
)

// storeTriples is the B-tree-backed triple backend: the SPO, POS and
// OSP access paths are three store keyspaces whose 12-byte keys are the
// dictionary-encoded triple in the respective permutation. Pattern
// matching and counting become prefix scans and counts over B-tree
// leaves, so a disk-resident graph probes pages through the pager's
// cache instead of walking maps — and the triples survive the process.
//
// Storage errors cannot surface through the Graph's error-less probe
// API; the backend treats a failed read as "no triples" and keeps the
// FIRST error sticky (Graph.StoreErr), which the owning layer checks
// at commit points. A graph whose store has failed degrades to missing
// answers, never to wrong ones. Readers fail under the graph's shared
// read lock, so the sticky error is an atomic first-wins pointer.
type storeTriples struct {
	spo, pos, osp *store.Keyspace
	firstErr      atomic.Pointer[error]
}

func openStoreTriples(st *store.Store, prefix string) (*storeTriples, error) {
	spo, err := st.Keyspace(prefix + "/spo")
	if err != nil {
		return nil, err
	}
	pos, err := st.Keyspace(prefix + "/pos")
	if err != nil {
		return nil, err
	}
	osp, err := st.Keyspace(prefix + "/osp")
	if err != nil {
		return nil, err
	}
	return &storeTriples{spo: spo, pos: pos, osp: osp}, nil
}

func (b *storeTriples) fail(err error) {
	if err != nil {
		b.firstErr.CompareAndSwap(nil, &err)
	}
}

func (b *storeTriples) err() error {
	if p := b.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

func key12(a, b, c TermID) []byte {
	var k [12]byte
	binary.BigEndian.PutUint32(k[0:], uint32(a))
	binary.BigEndian.PutUint32(k[4:], uint32(b))
	binary.BigEndian.PutUint32(k[8:], uint32(c))
	return k[:]
}

func key8(a, b TermID) []byte {
	var k [8]byte
	binary.BigEndian.PutUint32(k[0:], uint32(a))
	binary.BigEndian.PutUint32(k[4:], uint32(b))
	return k[:]
}

func key4(a TermID) []byte {
	var k [4]byte
	binary.BigEndian.PutUint32(k[0:], uint32(a))
	return k[:]
}

func id3(k []byte) (TermID, TermID, TermID) {
	return TermID(binary.BigEndian.Uint32(k[0:])),
		TermID(binary.BigEndian.Uint32(k[4:])),
		TermID(binary.BigEndian.Uint32(k[8:]))
}

func (b *storeTriples) add(s, p, o TermID) bool {
	fresh, err := b.spo.Put(key12(s, p, o), nil)
	if err != nil {
		b.fail(err)
		return false
	}
	if !fresh {
		return false
	}
	if _, err := b.pos.Put(key12(p, o, s), nil); err != nil {
		b.fail(err)
	}
	if _, err := b.osp.Put(key12(o, s, p), nil); err != nil {
		b.fail(err)
	}
	return true
}

func (b *storeTriples) remove(s, p, o TermID) bool {
	deleted, err := b.spo.Delete(key12(s, p, o))
	if err != nil {
		b.fail(err)
		return false
	}
	if !deleted {
		return false
	}
	if _, err := b.pos.Delete(key12(p, o, s)); err != nil {
		b.fail(err)
	}
	if _, err := b.osp.Delete(key12(o, s, p)); err != nil {
		b.fail(err)
	}
	return true
}

func (b *storeTriples) contains(s, p, o TermID) bool {
	_, ok, err := b.spo.Get(key12(s, p, o))
	if err != nil {
		b.fail(err)
		return false
	}
	return ok
}

func (b *storeTriples) size() int { return b.spo.Len() }

// access picks, for a pattern's bound positions, the permutation whose
// keys start with them, the key prefix, and how a key of that
// permutation decodes back to (s, p, o). match scans that range and
// count counts it, so the two cannot disagree.
func (b *storeTriples) access(s, p, o TermID) (*store.Keyspace, []byte, func(k []byte) (s, p, o TermID)) {
	switch {
	case s != NoTerm && p != NoTerm && o != NoTerm:
		return b.spo, key12(s, p, o), fromSPO
	case s != NoTerm && p != NoTerm:
		return b.spo, key8(s, p), fromSPO
	case s != NoTerm && o != NoTerm:
		// (s,?,o): the OSP permutation has them adjacent.
		return b.osp, key8(o, s), fromOSP
	case s != NoTerm:
		return b.spo, key4(s), fromSPO
	case p != NoTerm && o != NoTerm:
		return b.pos, key8(p, o), fromPOS
	case p != NoTerm:
		return b.pos, key4(p), fromPOS
	case o != NoTerm:
		return b.osp, key4(o), fromOSP
	default:
		return b.spo, nil, fromSPO
	}
}

func fromSPO(k []byte) (s, p, o TermID) { return id3(k) }

func fromPOS(k []byte) (s, p, o TermID) {
	p, o, s = id3(k)
	return s, p, o
}

func fromOSP(k []byte) (s, p, o TermID) {
	o, s, p = id3(k)
	return s, p, o
}

func (b *storeTriples) match(s, p, o TermID, fn func(s, p, o TermID) bool) {
	kv, prefix, decode := b.access(s, p, o)
	b.fail(kv.Scan(prefix, func(k, _ []byte) bool { return fn(decode(k)) }))
}

// count counts the pattern's key range a B-tree leaf at a time
// (store.Keyspace.Count), so planning and the BGP evaluator pay a page
// read per leaf of the range, not per matching triple.
func (b *storeTriples) count(s, p, o TermID) int {
	if s == NoTerm && p == NoTerm && o == NoTerm {
		return b.size()
	}
	kv, prefix, _ := b.access(s, p, o)
	n, err := kv.Count(prefix)
	if err != nil {
		b.fail(err)
		return 0
	}
	return n
}

// properties iterates distinct predicates via seek-skip on POS: after
// reporting p it jumps straight past p's whole key range.
func (b *storeTriples) properties(fn func(p TermID) bool) {
	start := []byte{0, 0, 0, 0}
	for {
		var found []byte
		err := b.pos.ScanFrom(start, func(k, _ []byte) bool {
			found = append([]byte(nil), k[:4]...)
			return false
		})
		if err != nil {
			b.fail(err)
			return
		}
		if found == nil {
			return
		}
		p := TermID(binary.BigEndian.Uint32(found))
		if !fn(p) {
			return
		}
		// Next predicate group: smallest key with prefix > p.
		next := binary.BigEndian.Uint32(found) + 1
		if next == 0 {
			return // wrapped: p was the max
		}
		start = make([]byte, 4)
		binary.BigEndian.PutUint32(start, next)
	}
}
