package rdf

import (
	"encoding/binary"

	"tatooine/internal/store"
)

// storeTriples is the B-tree-backed triple backend: the SPO, POS and
// OSP access paths are three store keyspaces whose 12-byte keys are the
// dictionary-encoded triple in the respective permutation. Pattern
// matching becomes prefix cursor scans, so a disk-resident graph probes
// pages through the pager's cache instead of walking maps — and the
// triples survive the process.
//
// Storage errors cannot surface through the Graph's error-less probe
// API; the backend treats a failed read as "no triples" and keeps the
// FIRST error sticky (Graph.StoreErr), which the owning layer checks
// at commit points. A graph whose store has failed degrades to missing
// answers, never to wrong ones.
type storeTriples struct {
	spo, pos, osp *store.Keyspace
	firstErr      error
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
	if err != nil && b.firstErr == nil {
		b.firstErr = err
	}
}

func (b *storeTriples) err() error { return b.firstErr }

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

func (b *storeTriples) match(s, p, o TermID, fn func(s, p, o TermID) bool) {
	switch {
	case s != NoTerm && p != NoTerm && o != NoTerm:
		if b.contains(s, p, o) {
			fn(s, p, o)
		}
	case s != NoTerm && p != NoTerm:
		b.scan(b.spo, key8(s, p), func(x, y, z TermID) bool { return fn(x, y, z) })
	case s != NoTerm && o != NoTerm:
		// (s,?,o): the OSP permutation has them adjacent.
		b.scan(b.osp, key8(o, s), func(o2, s2, p2 TermID) bool { return fn(s2, p2, o2) })
	case s != NoTerm:
		b.scan(b.spo, key4(s), func(x, y, z TermID) bool { return fn(x, y, z) })
	case p != NoTerm && o != NoTerm:
		b.scan(b.pos, key8(p, o), func(p2, o2, s2 TermID) bool { return fn(s2, p2, o2) })
	case p != NoTerm:
		b.scan(b.pos, key4(p), func(p2, o2, s2 TermID) bool { return fn(s2, p2, o2) })
	case o != NoTerm:
		b.scan(b.osp, key4(o), func(o2, s2, p2 TermID) bool { return fn(s2, p2, o2) })
	default:
		b.scan(b.spo, nil, func(x, y, z TermID) bool { return fn(x, y, z) })
	}
}

// scan walks kv entries under prefix, decoding each 12-byte key in its
// native permutation order.
func (b *storeTriples) scan(kv *store.Keyspace, prefix []byte, fn func(a, x, c TermID) bool) {
	err := kv.Scan(prefix, func(k, _ []byte) bool {
		a, x, c := id3(k)
		return fn(a, x, c)
	})
	b.fail(err)
}

func (b *storeTriples) count(s, p, o TermID) int {
	if s == NoTerm && p == NoTerm && o == NoTerm {
		return b.size()
	}
	n := 0
	b.match(s, p, o, func(_, _, _ TermID) bool { n++; return true })
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
