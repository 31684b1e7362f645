// Package digest implements TATOOINE's source digests (§2.2): for each
// data source, a digest combines (i) a schema graph — nodes for
// attributes / properties / document paths, edges for structural and
// join relationships — and (ii) a value-set representation per node
// (Bloom filters for membership, histograms for numeric distributions)
// under a configurable space budget. Digests power the keyword-based
// query engine: keywords are located in digests, then join paths
// between matched nodes generate candidate mixed queries.
package digest

import (
	"hash/fnv"
	"math"
	"math/bits"
)

// Bloom is a fixed-size Bloom filter over strings.
type Bloom struct {
	bits   []uint64
	m      uint64 // number of bits
	k      int    // number of hash functions
	nAdded int
}

// NewBloom sizes a filter for expectedN items at the target false
// positive rate (standard m/k formulas). Both inputs are clamped to
// sane minimums.
func NewBloom(expectedN int, fpr float64) *Bloom {
	if expectedN < 1 {
		expectedN = 1
	}
	if fpr <= 0 || fpr >= 1 {
		fpr = 0.01
	}
	m := uint64(math.Ceil(-float64(expectedN) * math.Log(fpr) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(expectedN) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Bloom{bits: make([]uint64, (m+63)/64), m: m, k: k}
}

// maxBloomHashes bounds k: past a few dozen hashes a filter only gets
// worse, and MayContain's cost is linear in k.
const maxBloomHashes = 32

// NewBloomWithBits builds a filter with an explicit bit budget (space-
// budget experiments sweep this).
func NewBloomWithBits(bits uint64, k int) *Bloom {
	if bits < 64 {
		bits = 64
	}
	if k < 1 {
		k = 4
	}
	if k > maxBloomHashes {
		k = maxBloomHashes
	}
	return &Bloom{bits: make([]uint64, (bits+63)/64), m: bits, k: k}
}

// hash2 derives two independent 64-bit hashes of s.
func hash2(s string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(s))
	h1 := h.Sum64()
	h.Write([]byte{0xff})
	h2 := h.Sum64()
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return h1, h2
}

// Add inserts s.
func (b *Bloom) Add(s string) {
	h1, h2 := hash2(s)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.m
		b.bits[pos/64] |= 1 << (pos % 64)
	}
	b.nAdded++
}

// MayContain reports whether s may have been added (false positives
// possible, false negatives impossible). A filter decoded from an
// unknown wire version has k == 0 and answers true for everything —
// the fail-open degradation cross-version peers rely on.
func (b *Bloom) MayContain(s string) bool {
	if b.k == 0 || b.m == 0 {
		return true
	}
	h1, h2 := hash2(s)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.m
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// MayContainKey implements the probe-filter contract used by semi-join
// pruning (source.ProbeFilter): the key is a pre-normalized digest key
// (see ProbeKey), tested directly against the filter.
func (b *Bloom) MayContainKey(key string) bool { return b.MayContain(key) }

// Bits returns the filter's bit capacity.
func (b *Bloom) Bits() uint64 { return b.m }

// Hashes returns the number of hash functions.
func (b *Bloom) Hashes() int { return b.k }

// Added returns how many values were inserted.
func (b *Bloom) Added() int { return b.nAdded }

// EstimatedFPR returns the expected false-positive rate at the current
// fill level: (1 - e^{-kn/m})^k.
func (b *Bloom) EstimatedFPR() float64 {
	if b.nAdded == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(b.k)*float64(b.nAdded)/float64(b.m)), float64(b.k))
}

// EstimatedDistinct estimates how many *distinct* keys were inserted
// from the filter's fill ratio: with X of m bits set after n distinct
// insertions under k hashes, E[X/m] = 1 - e^{-kn/m}, so
// n ≈ -(m/k)·ln(1 - X/m). Saturated filters (X == m) fall back to the
// insertion count, which over-counts duplicates but bounds the answer.
func (b *Bloom) EstimatedDistinct() int {
	if b.k == 0 || b.m == 0 || b.nAdded == 0 {
		return b.nAdded
	}
	var set int
	for _, w := range b.bits {
		set += bits.OnesCount64(w)
	}
	if set == 0 {
		return 0
	}
	if uint64(set) >= b.m {
		return b.nAdded
	}
	n := -(float64(b.m) / float64(b.k)) * math.Log(1-float64(set)/float64(b.m))
	est := int(math.Round(n))
	if est < 1 {
		est = 1
	}
	if est > b.nAdded {
		est = b.nAdded
	}
	return est
}
