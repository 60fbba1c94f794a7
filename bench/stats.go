package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it. It
// returns 0 for an empty slice and does not modify xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// kindMedian is the median over operation kinds of each kind's median.
// The workloads mix kinds of very different cost (codes, Table I rows) in
// equal numbers, and the plain median of such a mixture falls in the gap
// between two kinds, where the edge samples of each decide it.
func kindMedian(byKind map[string][]float64) float64 {
	var meds []float64
	for _, v := range byKind {
		meds = append(meds, median(v))
	}
	return median(meds)
}

// kindGeomean is the geometric mean over operation kinds of each kind's
// median: every kind weighs the same however often it was sampled.
func kindGeomean(byKind map[string][]float64) float64 {
	var meds []float64
	for _, v := range byKind {
		meds = append(meds, median(v))
	}
	return geomean(meds)
}

// geomean is the geometric mean of positive samples; it returns 0 if xs is
// empty or holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailQuantile picks the highest of the candidate quantiles that leaves at
// least minAbove samples strictly above its rank among n samples, so a
// reported tail always rests on enough samples. ok is false when none does.
func tailQuantile(n, minAbove int, candidates ...float64) (q float64, ok bool) {
	best := -1.0
	for _, c := range candidates {
		rank := int(math.Ceil(c * float64(n)))
		if n-rank >= minAbove && c > best {
			best = c
		}
	}
	return best, best >= 0
}

// interval is a closed time span in nanoseconds.
type interval struct{ lo, hi int64 }

// coveredLength is the total length of the union of spans, each clipped to
// [lo, hi]. Overlapping children are counted once, so a parent's self time
// never goes negative when children run concurrently.
func coveredLength(spans []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, s := range spans {
		a, b := max(s.lo, lo), min(s.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	cur := interval{-1, -1}
	for _, s := range clipped {
		if s.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = s
			continue
		}
		cur.hi = max(cur.hi, s.hi)
	}
	return total + cur.hi - cur.lo
}
