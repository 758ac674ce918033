package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the exact q-th order statistic of sorted by the
// nearest-rank rule: the smallest value with at least q of the
// samples at or below it. No interpolation, no buckets.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedCopy(v []int64) []int64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// failedLatency stands in for an operation that failed: it sorts above
// every real latency, so a failure counts as missing the upper tail.
const failedLatency = math.MaxInt64

// window is the measured part of one lane-merged run.
type window struct {
	length time.Duration
	open   bool
	all    []sample
}

// key is the instant that places a sample in time: when an open-loop
// request was due, when a closed-loop request completed.
func (w window) key(s sample) int64 {
	if w.open {
		return s.start
	}
	return s.end()
}

// latencies returns, sorted, the latencies of the samples whose key
// falls in [from, to), failures as failedLatency.
func (w window) latencies(from, to time.Duration) []int64 {
	var out []int64
	for _, s := range w.all {
		if k := w.key(s); k < int64(from) || k >= int64(to) {
			continue
		}
		if s.failed {
			out = append(out, failedLatency)
		} else {
			out = append(out, s.lat)
		}
	}
	slices.Sort(out)
	return out
}

// completed counts acknowledged operations that finished in [from, to).
func (w window) completed(from, to time.Duration) int {
	n := 0
	for _, s := range w.all {
		if e := s.end(); !s.failed && e >= int64(from) && e < int64(to) {
			n++
		}
	}
	return n
}

// due counts operations whose start falls in [from, to).
func (w window) due(from, to time.Duration) int {
	n := 0
	for _, s := range w.all {
		if s.start >= int64(from) && s.start < int64(to) {
			n++
		}
	}
	return n
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
