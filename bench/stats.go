package main

import (
	"math"
	"sort"
	"time"
)

// samples collects latencies of one operation kind, in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// percentile returns the q-quantile (0 < q < 1) of s by the nearest-rank
// rule. It sorts s in place and returns 0 for an empty sample.
func (s samples) percentile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// tailQuantile is the sample-count rule of the choosing-metrics guide: the
// highest of the percentiles we report (p99, p95, p90) that still has at
// least ten samples beyond it, or the median when none does.
func tailQuantile(n int) float64 {
	for _, pct := range []int{99, 95, 90} {
		if n*(100-pct)/100 >= 10 {
			return float64(pct) / 100
		}
	}
	return 0.5
}

// interval is a half-open time span [start, end).
type interval struct{ start, end time.Time }

// unionDuration returns the total time covered by at least one interval, so
// overlapping and nested source calls of a parallel bind join are not counted
// twice when they are subtracted from a query's wall time.
func unionDuration(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	var total time.Duration
	cur := sorted[0]
	for _, iv := range sorted[1:] {
		if iv.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
