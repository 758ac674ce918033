package metrics

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestHistogramConcurrentRecordQuantiles hammers one histogram from
// many goroutines with randomized samples and checks no sample is lost
// and the quantiles stay inside the recorded range (run under -race in
// CI).
func TestHistogramConcurrentRecordQuantiles(t *testing.T) {
	h := NewHistogram()
	const goroutines, per = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				h.Record(time.Duration(1+rng.Intn(50_000)) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("lost samples: count=%d want %d", got, goroutines*per)
	}
	s := h.Snapshot()
	if s.Min < time.Microsecond || s.Max > 51*time.Millisecond {
		t.Fatalf("range escaped: min=%v max=%v", s.Min, s.Max)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Fatalf("quantiles not monotone: %v", s)
	}
}

// TestSnapshotMergeAssociativity is the property test behind the
// mergeable-snapshots claim: for random histograms A, B, C,
// (A∪B)∪C must equal A∪(B∪C) exactly — same count, mean, min/max and
// bucket-derived quantiles — and both must equal the histogram that
// recorded all three sample sets directly.
func TestSnapshotMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		hs := make([]*Histogram, 3)
		all := NewHistogram()
		for i := range hs {
			hs[i] = NewHistogram()
			n := rng.Intn(400) // may be zero: empty operand
			for j := 0; j < n; j++ {
				d := time.Duration(1+rng.Intn(2_000_000)) * time.Microsecond
				hs[i].Record(d)
				all.Record(d)
			}
		}
		a, b, c := hs[0].Snapshot(), hs[1].Snapshot(), hs[2].Snapshot()
		left := a.Merge(b).Merge(c)
		right := a.Merge(b.Merge(c))
		assertSnapEq(t, trial, "assoc", left, right)
		assertSnapEq(t, trial, "direct", left, all.Snapshot())
	}
}

// assertSnapEq compares the externally visible statistics (mean may
// differ by integer-division rounding across association orders).
func assertSnapEq(t *testing.T, trial int, what string, x, y Snapshot) {
	t.Helper()
	if x.Count != y.Count || x.Min != y.Min || x.Max != y.Max ||
		x.P50 != y.P50 || x.P95 != y.P95 || x.P99 != y.P99 {
		t.Fatalf("trial %d %s mismatch:\n  %v\n  %v", trial, what, x, y)
	}
	diff := x.Mean - y.Mean
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Microsecond {
		t.Fatalf("trial %d %s mean drift %v", trial, what, diff)
	}
}

// TestSnapshotMergeCommutative: A∪B == B∪A.
func TestSnapshotMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 500; i++ {
		a.Record(time.Duration(1+rng.Intn(10_000)) * time.Microsecond)
		b.Record(time.Duration(1+rng.Intn(900_000)) * time.Microsecond)
	}
	assertSnapEq(t, 0, "commute", a.Snapshot().Merge(b.Snapshot()), b.Snapshot().Merge(a.Snapshot()))
}

func TestWindowedAgesOut(t *testing.T) {
	w := NewWindowed(2, 10*time.Millisecond)
	w.Record(5 * time.Millisecond)
	if got := w.Snapshot().Count; got != 1 {
		t.Fatalf("fresh sample missing (count=%d)", got)
	}
	// After > windows×width idle, the old sample must age out on the
	// next touch.
	time.Sleep(35 * time.Millisecond)
	w.Record(time.Millisecond)
	s := w.Snapshot()
	if s.Count != 1 || s.Max > 2*time.Millisecond {
		t.Fatalf("stale window survived: %v", s)
	}
}

func TestWindowedConcurrent(t *testing.T) {
	w := NewWindowed(4, 50*time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				w.Record(time.Duration(i+1) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := w.Snapshot().Count; got != 4000 {
		t.Fatalf("windowed lost samples: %d", got)
	}
}

func TestRegistryGetOrCreateAndSnapshot(t *testing.T) {
	r := NewRegistry(0, 0)
	r.Counter("ops").Add(3)
	if r.Counter("ops").Value() != 3 {
		t.Fatal("second Counter() returned a fresh instrument")
	}
	r.Gauge("backlog").Set(7)
	r.Histogram("latency").Record(2 * time.Millisecond)

	ext := NewCounter("proposals")
	ext.Add(41)
	r.Attach(ext)
	r.Gauge("dirty").Set(9)

	snap := r.Snapshot()
	if snap.Counters["ops"] != 3 || snap.Counters["proposals"] != 41 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if snap.Gauges["backlog"].Value != 7 || snap.Gauges["dirty"].Value != 9 {
		t.Fatalf("gauges: %+v", snap.Gauges)
	}
	h := snap.Histograms["latency"]
	if h.Count != 1 || h.P50Us <= 0 {
		t.Fatalf("histogram scrape: %+v", h)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
	want := []string{"counter:ops", "counter:proposals", "gauge:backlog", "gauge:dirty", "hist:latency"}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("names: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names: %v", got)
		}
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Record(time.Millisecond)
	r.Attach(nil)
	if len(r.Snapshot().Counters) != 0 || r.Names() != nil {
		t.Fatal("nil registry leaked state")
	}
	var w *Windowed
	w.Record(time.Second)
	if w.Snapshot().Count != 0 {
		t.Fatal("nil windowed recorded")
	}
	w.Reset()
}
