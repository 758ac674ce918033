package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.P99() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram not all-zero: %+v", h.Snapshot())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if got := h.Mean(); got != 10*time.Millisecond {
		t.Errorf("mean = %v, want 10ms", got)
	}
	// Quantiles are bucket lower bounds: within ~7% below the sample.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got > 10*time.Millisecond || got < 9*time.Millisecond {
			t.Errorf("quantile(%v) = %v, want within [9ms,10ms]", q, got)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	raw := make([]time.Duration, 0, 10000)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		// log-uniform over [10µs, 1s)
		d := time.Duration(float64(10*time.Microsecond) *
			math.Pow(1e5, rng.Float64()))
		raw = append(raw, d)
		h.Record(d)
	}
	exact := Percentiles(raw, 0.5, 0.95, 0.99)
	approx := []time.Duration{h.P50(), h.P95(), h.P99()}
	for i := range exact {
		lo := float64(exact[i]) * 0.90
		hi := float64(exact[i]) * 1.10
		if float64(approx[i]) < lo || float64(approx[i]) > hi {
			t.Errorf("quantile %d: approx %v not within 10%% of exact %v",
				i, approx[i], exact[i])
		}
	}
}

func TestHistogramMinMax(t *testing.T) {
	h := NewHistogram()
	h.Record(5 * time.Millisecond)
	h.Record(1 * time.Millisecond)
	h.Record(20 * time.Millisecond)
	if h.Min() != time.Millisecond {
		t.Errorf("min = %v, want 1ms", h.Min())
	}
	if h.Max() != 20*time.Millisecond {
		t.Errorf("max = %v, want 20ms", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-time.Second)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if h.Max() > time.Microsecond {
		t.Errorf("negative sample recorded as %v", h.Max())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(time.Millisecond)
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.P99() != 0 {
		t.Fatalf("reset did not clear: %+v", h.Snapshot())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 50; i++ {
		a.Record(time.Millisecond)
		b.Record(10 * time.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d, want 100", a.Count())
	}
	if a.Min() > time.Millisecond || a.Max() < 10*time.Millisecond {
		t.Errorf("merge lost min/max: min=%v max=%v", a.Min(), a.Max())
	}
	mean := a.Mean()
	if mean < 5*time.Millisecond || mean > 6*time.Millisecond {
		t.Errorf("merged mean = %v, want ~5.5ms", mean)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const goroutines, perG = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(time.Duration(g+1) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*perG {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*perG)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(samples []uint32) bool {
		h := NewHistogram()
		for _, s := range samples {
			h.Record(time.Duration(s) * time.Microsecond)
		}
		prev := time.Duration(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	// Property: any quantile lies within [Min*(1-eps), Max].
	f := func(samples []uint16) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHistogram()
		for _, s := range samples {
			h.Record(time.Duration(int(s)+1) * time.Microsecond)
		}
		for _, q := range []float64{0, 0.5, 1} {
			v := h.Quantile(q)
			if float64(v) < float64(h.Min())*0.92 || v > h.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentilesExact(t *testing.T) {
	samples := []time.Duration{5, 1, 4, 2, 3} // will be sorted
	got := Percentiles(samples, 0.2, 0.5, 1.0)
	want := []time.Duration{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("percentile[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := Percentiles(nil, 0.5); got[0] != 0 {
		t.Errorf("empty percentiles = %v, want 0", got[0])
	}
}

func TestSnapshotMerge(t *testing.T) {
	// Two histograms over disjoint latency bands: merging their
	// snapshots must reproduce the snapshot of a histogram holding the
	// union of the samples.
	low, high, both := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 1; i <= 90; i++ {
		d := time.Duration(i) * time.Millisecond
		low.Record(d)
		both.Record(d)
	}
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * time.Second
		high.Record(d)
		both.Record(d)
	}
	lowSnap, highSnap, want := low.Snapshot(), high.Snapshot(), both.Snapshot()

	empty := Snapshot{}
	noBuckets := Snapshot{Count: 10, Mean: 20 * time.Millisecond,
		P50: 15 * time.Millisecond, P95: 40 * time.Millisecond, P99: 50 * time.Millisecond,
		Min: time.Millisecond, Max: 60 * time.Millisecond}

	cases := []struct {
		name string
		a, b Snapshot
		want Snapshot
		// approx marks merges without full bucket data: only count,
		// mean, min, max are exact.
		approx bool
	}{
		{name: "disjoint bands", a: lowSnap, b: highSnap, want: want},
		{name: "commutes", a: highSnap, b: lowSnap, want: want},
		{name: "self-merge doubles count", a: lowSnap, b: lowSnap,
			want: Snapshot{Count: 2 * lowSnap.Count, Mean: lowSnap.Mean,
				P50: lowSnap.P50, P95: lowSnap.P95, P99: lowSnap.P99,
				Min: lowSnap.Min, Max: lowSnap.Max}},
		{name: "empty left", a: empty, b: highSnap, want: highSnap},
		{name: "empty right", a: lowSnap, b: empty, want: lowSnap},
		{name: "both empty", a: empty, b: empty, want: empty},
		{name: "one side without buckets", a: lowSnap, b: noBuckets, approx: true,
			want: Snapshot{Count: lowSnap.Count + 10, Min: time.Millisecond, Max: lowSnap.Max}},
	}
	for _, tc := range cases {
		got := tc.a.Merge(tc.b)
		if got.Count != tc.want.Count {
			t.Errorf("%s: count = %d, want %d", tc.name, got.Count, tc.want.Count)
		}
		if tc.approx {
			// Weighted fallback: mean/min/max still exact.
			wantMean := time.Duration((int64(tc.a.Mean)*tc.a.Count + int64(tc.b.Mean)*tc.b.Count) / got.Count)
			if got.Mean != wantMean || got.Min != tc.want.Min || got.Max != tc.want.Max {
				t.Errorf("%s: mean/min/max = %v/%v/%v", tc.name, got.Mean, got.Min, got.Max)
			}
			if got.P99 < got.P50 {
				t.Errorf("%s: fallback quantiles not monotone: p50=%v p99=%v", tc.name, got.P50, got.P99)
			}
			continue
		}
		if got.Mean != tc.want.Mean || got.Min != tc.want.Min || got.Max != tc.want.Max {
			t.Errorf("%s: mean/min/max = %v/%v/%v, want %v/%v/%v",
				tc.name, got.Mean, got.Min, got.Max, tc.want.Mean, tc.want.Min, tc.want.Max)
		}
		if got.P50 != tc.want.P50 || got.P95 != tc.want.P95 || got.P99 != tc.want.P99 {
			t.Errorf("%s: p50/p95/p99 = %v/%v/%v, want %v/%v/%v",
				tc.name, got.P50, got.P95, got.P99, tc.want.P50, tc.want.P95, tc.want.P99)
		}
	}

	// Merged snapshots chain: a third merge still walks exact buckets.
	chained := lowSnap.Merge(highSnap).Merge(empty)
	if chained.P99 != want.P99 {
		t.Errorf("chained merge p99 = %v, want %v", chained.P99, want.P99)
	}
	// Inputs must not be mutated by merging.
	if low.Snapshot().Count != 90 || lowSnap.Count != 90 {
		t.Error("merge mutated its inputs")
	}
}
