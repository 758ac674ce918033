package harness

import (
	"sync"
	"time"

	"depfast/internal/metrics"
)

// sliceWidth is the timeline's resolution and the flight recorder's
// gauge cadence: fine enough that the report analyzer's
// sustained-recovery rule (a few consecutive samples) still answers in
// sub-second resolution. Phase lengths that are multiples of it make
// every phase window exact.
const sliceWidth = 100 * time.Millisecond

// Stats summarizes the operations of one class over a window.
type Stats struct {
	Ops  int64
	Tput float64 // ops/sec over the window
	Mean time.Duration
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
}

// Window is the measured load over a range of timeline slices, with
// reads and writes kept apart — a read-tail claim must not be diluted
// by write latencies.
type Window struct {
	Errs   int64 `json:"errs"`
	All    Stats `json:"all"`
	Reads  Stats `json:"reads"`
	Writes Stats `json:"writes"`
}

// Measure is the load over a range of timeline slices: every group
// together, and each group apart.
type Measure struct {
	Window
	Groups []Window `json:"groups"`
}

// cell is one group's share of one slice: the latency histogram (the
// repo's one measurement substrate, ~7% resolution) of the measured
// operations that completed in it, writes and reads apart.
type cell struct {
	lat  [2]metrics.Histogram
	errs int64
}

// timeline is the population's always-on record: fixed-width time
// slices from t0 (when the population started, which is when the first
// phase does), so a measurement window — a phase, a sampler tick, a
// figure cell — is just a range of slices.
type timeline struct {
	t0     time.Time
	groups int
	mu     sync.Mutex
	cells  [][]cell // [slice][group]
}

// record files one completed (or, with err, failed) operation under
// the slice its completion time falls in.
func (t *timeline) record(group int, read bool, done time.Time, lat time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := int(done.Sub(t.t0) / sliceWidth)
	for len(t.cells) <= i {
		t.cells = append(t.cells, make([]cell, t.groups))
	}
	c := &t.cells[i][group]
	if err != nil {
		c.errs++
		return
	}
	h := &c.lat[0]
	if read {
		h = &c.lat[1]
	}
	h.Record(lat)
}

// sliceCeil is the first slice starting at or after offset d from t0;
// sliceEnd the index one past the last slice wholly inside [0, d).
func sliceCeil(d time.Duration) int { return int((d + sliceWidth - 1) / sliceWidth) }
func sliceEnd(d time.Duration) int  { return int(d / sliceWidth) }

// window aggregates slices [from, to) of group (every group when
// group < 0).
func (t *timeline) window(from, to, group int) Window {
	t.mu.Lock()
	defer t.mu.Unlock()
	var w Window
	var lat [3]metrics.Histogram // writes, reads, both
	for i := from; i < to && i < len(t.cells); i++ {
		for g := range t.cells[i] {
			if group >= 0 && g != group {
				continue
			}
			c := &t.cells[i][g]
			w.Errs += c.errs
			for k := range c.lat {
				lat[k].Merge(&c.lat[k])
				lat[2].Merge(&c.lat[k])
			}
		}
	}
	span := (time.Duration(to-from) * sliceWidth).Seconds()
	w.Writes, w.Reads, w.All = statsOf(&lat[0], span), statsOf(&lat[1], span), statsOf(&lat[2], span)
	return w
}

// measure reads slices [from, to) for every group.
func (t *timeline) measure(from, to int) Measure {
	m := Measure{Window: t.window(from, to, -1)}
	for g := 0; g < t.groups; g++ {
		m.Groups = append(m.Groups, t.window(from, to, g))
	}
	return m
}

func statsOf(h *metrics.Histogram, span float64) Stats {
	s := Stats{Ops: h.Count(), Mean: h.Mean(), P50: h.P50(), P95: h.P95(), P99: h.P99()}
	if span > 0 {
		s.Tput = float64(s.Ops) / span
	}
	return s
}
