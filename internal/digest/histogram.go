package digest

import (
	"fmt"
	"math"
	"sort"
)

// Histogram summarizes a numeric value set with equi-depth buckets
// (§2.2: "the precision level of the value set representations is
// controlled by parameters dividing up the available space; histograms
// and Bloom filters are used").
type Histogram struct {
	// Bounds holds bucket boundaries: bucket i covers
	// [Bounds[i], Bounds[i+1]) and the last bucket is closed.
	Bounds []float64
	// Counts holds per-bucket value counts.
	Counts []int
	// Min/Max are the exact extrema.
	Min, Max float64
	// N is the total number of values.
	N int
}

// NewEquiDepth builds a histogram whose buckets hold roughly equal
// numbers of values (better for skewed distributions). Bounds are
// quantiles: a value spanning several quantiles produces a zero-width
// singleton bucket, which keeps estimates exact for heavy hitters
// (skewed corpora are the norm in this domain).
func NewEquiDepth(values []float64, buckets int) *Histogram {
	if buckets < 1 {
		buckets = 1
	}
	h := &Histogram{}
	if len(values) == 0 {
		return h
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	h.Min, h.Max = sorted[0], sorted[len(sorted)-1]
	h.N = len(sorted)

	per := float64(len(sorted)) / float64(buckets)
	h.Bounds = append(h.Bounds, h.Min)
	for i := 1; i < buckets; i++ {
		idx := int(math.Round(per * float64(i)))
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		bound := sorted[idx]
		n := len(h.Bounds)
		// Allow at most two equal consecutive bounds (one singleton).
		if bound > h.Bounds[n-1] || (n < 2 || h.Bounds[n-2] != bound) && bound == h.Bounds[n-1] {
			h.Bounds = append(h.Bounds, bound)
		}
	}
	if h.Max > h.Bounds[len(h.Bounds)-1] || len(h.Bounds) == 1 {
		h.Bounds = append(h.Bounds, h.Max)
	}
	h.Counts = make([]int, len(h.Bounds)-1)
	for _, v := range sorted {
		h.Counts[h.bucketOf(v)]++
	}
	return h
}

func (h *Histogram) bucketOf(v float64) int {
	// Last bucket is closed on the right.
	n := len(h.Bounds) - 1
	i := sort.SearchFloat64s(h.Bounds, v)
	// SearchFloat64s returns the first index with Bounds[i] >= v.
	if i > 0 && (i == len(h.Bounds) || h.Bounds[i] != v) {
		i--
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.Counts) }

// EstimateRange estimates how many values fall in [lo, hi] assuming
// uniformity within buckets.
func (h *Histogram) EstimateRange(lo, hi float64) float64 {
	if h.N == 0 || hi < lo || hi < h.Min || lo > h.Max {
		return 0
	}
	total := 0.0
	for i, c := range h.Counts {
		bLo, bHi := h.Bounds[i], h.Bounds[i+1]
		if bHi < lo || bLo > hi {
			continue
		}
		overlapLo := math.Max(bLo, lo)
		overlapHi := math.Min(bHi, hi)
		width := bHi - bLo
		if width == 0 {
			total += float64(c)
			continue
		}
		frac := (overlapHi - overlapLo) / width
		if frac < 0 {
			frac = 0
		}
		total += float64(c) * frac
	}
	return total
}

// String renders a short summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{n=%d min=%g max=%g buckets=%d}", h.N, h.Min, h.Max, h.Buckets())
}
