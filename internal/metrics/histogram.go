// Package metrics provides the measurement substrate for DepFast
// experiments: log-bucketed latency histograms with quantile queries,
// windowed histogram registries, counters and gauges.
//
// The package is deliberately allocation-light: a Histogram is a fixed
// array of buckets, and recording a sample is a single atomic add, so
// the measurement path does not perturb the systems under test.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// histogram geometry: buckets are log-spaced. Bucket i covers
// [lowest * growth^i, lowest * growth^(i+1)). With lowest = 1µs and
// growth = 1.07 (~7% relative error), 360 buckets reach past 30 minutes,
// far beyond any latency this repo can produce.
const (
	numBuckets    = 360
	lowestNanos   = 1000.0 // 1µs
	bucketGrowth  = 1.07
	logGrowthBase = 0.06765864847 // math.Log(bucketGrowth), precomputed
)

// Histogram is a concurrency-safe log-bucketed latency histogram.
// The zero value is ready to use.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; 0 means unset
	max     atomic.Int64 // nanoseconds
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns < lowestNanos {
		return 0
	}
	i := int(math.Log(ns/lowestNanos) / logGrowthBase)
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// bucketLower returns the lower bound of bucket i as a duration.
func bucketLower(i int) time.Duration {
	return time.Duration(lowestNanos * math.Pow(bucketGrowth, float64(i)))
}

// Record adds one latency sample.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := d.Nanoseconds()
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if cur != 0 && cur <= ns {
			break
		}
		if ns == 0 {
			ns = 1 // preserve the "0 = unset" sentinel
		}
		if h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= ns {
			break
		}
		if h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the average latency, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Min returns the smallest recorded sample, or 0 if empty.
func (h *Histogram) Min() time.Duration { return time.Duration(h.min.Load()) }

// Max returns the largest recorded sample, or 0 if empty.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the latency at quantile q in [0,1]. The result is the
// lower bound of the bucket containing the q-th sample, so it is accurate
// to within one bucket width (~7%). Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < numBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return bucketLower(i)
		}
	}
	return time.Duration(h.max.Load())
}

// P50, P95 and P99 are convenience quantile accessors.
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }
func (h *Histogram) P95() time.Duration { return h.Quantile(0.95) }
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Reset clears all samples.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(0)
	h.max.Store(0)
}

// Merge adds all samples of other into h. Other is not modified. Merge
// is not atomic with respect to concurrent Records on other; call it
// after the run has quiesced.
func (h *Histogram) Merge(other *Histogram) {
	for i := range other.buckets {
		if v := other.buckets[i].Load(); v != 0 {
			h.buckets[i].Add(v)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	if om := other.min.Load(); om != 0 {
		for {
			cur := h.min.Load()
			if cur != 0 && cur <= om {
				break
			}
			if h.min.CompareAndSwap(cur, om) {
				break
			}
		}
	}
	if om := other.max.Load(); om != 0 {
		for {
			cur := h.max.Load()
			if cur >= om {
				break
			}
			if h.max.CompareAndSwap(cur, om) {
				break
			}
		}
	}
}

// Snapshot captures the key statistics of a histogram at a point in
// time. Snapshots taken from a Histogram also carry the bucket counts,
// so two snapshots can be merged exactly (same geometry, additive
// buckets) without touching the live histograms they came from.
type Snapshot struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Min   time.Duration
	Max   time.Duration

	// buckets holds the log-bucket counts backing the quantiles; nil for
	// hand-constructed snapshots, which Merge handles with a weighted
	// fallback.
	buckets []int64
}

// Snapshot returns the current statistics.
func (h *Histogram) Snapshot() Snapshot {
	buckets := make([]int64, numBuckets)
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return Snapshot{
		Count:   h.Count(),
		Mean:    h.Mean(),
		P50:     h.P50(),
		P95:     h.P95(),
		P99:     h.P99(),
		Min:     h.Min(),
		Max:     h.Max(),
		buckets: buckets,
	}
}

// quantileFromBuckets walks log-bucket counts for the q-th of count
// samples, mirroring Histogram.Quantile; fallback is returned when the
// walk runs off the end.
func quantileFromBuckets(buckets []int64, count int64, q float64, fallback time.Duration) time.Duration {
	if count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, v := range buckets {
		seen += v
		if seen >= rank {
			return bucketLower(i)
		}
	}
	return fallback
}

// Merge combines two snapshots into one describing the union of their
// samples: counts add, the mean is count-weighted, min/max take the
// extremes, and — when both sides carry bucket data — the quantiles
// are recomputed exactly from the merged buckets. A side without
// bucket data (a hand-constructed Snapshot) degrades that merge to a
// count-weighted average of the quantiles, which is approximate but
// monotone. Either side may be empty. Neither receiver nor argument
// is modified.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	if s.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return s
	}
	m := Snapshot{Count: s.Count + o.Count}
	m.Mean = time.Duration((int64(s.Mean)*s.Count + int64(o.Mean)*o.Count) / m.Count)
	m.Min = s.Min
	if o.Min > 0 && (m.Min == 0 || o.Min < m.Min) {
		m.Min = o.Min
	}
	m.Max = s.Max
	if o.Max > m.Max {
		m.Max = o.Max
	}
	if s.buckets != nil && o.buckets != nil {
		merged := make([]int64, numBuckets)
		copy(merged, s.buckets)
		for i, v := range o.buckets {
			merged[i] += v
		}
		m.buckets = merged
		m.P50 = quantileFromBuckets(merged, m.Count, 0.50, m.Max)
		m.P95 = quantileFromBuckets(merged, m.Count, 0.95, m.Max)
		m.P99 = quantileFromBuckets(merged, m.Count, 0.99, m.Max)
		return m
	}
	weight := func(a, b time.Duration) time.Duration {
		return time.Duration((int64(a)*s.Count + int64(b)*o.Count) / m.Count)
	}
	m.P50 = weight(s.P50, o.P50)
	m.P95 = weight(s.P95, o.P95)
	m.P99 = weight(s.P99, o.P99)
	return m
}

// String renders a compact one-line summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

// Percentiles computes exact quantiles over a raw sample slice; useful
// in tests to validate the bucketed approximation. The input is sorted
// in place.
func Percentiles(samples []time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(samples) == 0 {
		return out
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for k, q := range qs {
		idx := int(math.Ceil(q*float64(len(samples)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		out[k] = samples[idx]
	}
	return out
}
