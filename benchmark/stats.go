package main

import (
	"math"
	"sort"
)

// rank is the 1-based nearest-rank position of the p-th percentile
// among n sorted samples: the smallest rank with at least p% of the
// samples at or below it. The epsilon absorbs float error in p·n/100
// (99.9 % of 10000 must be rank 9990, not 9991).
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond counts the samples above the p-th percentile's position: the
// evidence a tail percentile rests on.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailCandidates are the tail percentiles a report may quote, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it; with too few samples for any it falls
// back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// median returns the middle value of xs (mean of the two middle values
// for an even count) without modifying xs; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latencies collects one class's client-observed latencies in
// milliseconds. Not safe for concurrent use: every client keeps its own
// and the workload merges them after the phase.
type latencies struct {
	ms []float64
}

func (l *latencies) add(ms float64)     { l.ms = append(l.ms, ms) }
func (l *latencies) merge(o *latencies) { l.ms = append(l.ms, o.ms...) }
func (l *latencies) n() int             { return len(l.ms) }

// sorted sorts in place and returns the samples.
func (l *latencies) sorted() []float64 {
	sort.Float64s(l.ms)
	return l.ms
}

func (l *latencies) p(p float64) float64 { return percentile(l.sorted(), p) }
