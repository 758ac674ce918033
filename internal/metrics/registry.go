package metrics

import (
	"sort"
	"sync"
	"time"
)

// Windowed is a rotating set of histograms covering the recent past:
// samples land in the current window, Snapshot merges the live windows
// exactly (bucket-additive), and windows older than windows×width age
// out on rotation. This gives the metrics plane "P99 over the last
// minute" semantics instead of since-process-start, while individual
// window snapshots stay mergeable across nodes.
type Windowed struct {
	mu    sync.Mutex
	width time.Duration
	wins  []*Histogram
	born  []time.Time
	cur   int
}

// NewWindowed returns a windowed histogram of n windows of width each
// (defaults: 6 × 10s).
func NewWindowed(n int, width time.Duration) *Windowed {
	if n <= 0 {
		n = 6
	}
	if width <= 0 {
		width = 10 * time.Second
	}
	w := &Windowed{width: width, wins: make([]*Histogram, n), born: make([]time.Time, n)}
	for i := range w.wins {
		w.wins[i] = NewHistogram()
	}
	return w
}

// rotateLocked advances to (and clears) the next window when the
// current one is older than width; skipped intervals clear multiple.
func (w *Windowed) rotateLocked(now time.Time) {
	if w.born[w.cur].IsZero() {
		w.born[w.cur] = now
		return
	}
	if now.Sub(w.born[w.cur]) >= w.width*time.Duration(len(w.wins)) {
		// Idle longer than the whole ring covers: everything is stale.
		for i := range w.wins {
			w.wins[i].Reset()
			w.born[i] = time.Time{}
		}
		w.cur = 0
		w.born[0] = now
		return
	}
	for now.Sub(w.born[w.cur]) >= w.width {
		next := (w.cur + 1) % len(w.wins)
		w.wins[next].Reset()
		w.born[next] = w.born[w.cur].Add(w.width)
		w.cur = next
	}
}

// Record adds one sample to the current window.
func (w *Windowed) Record(d time.Duration) {
	if w == nil {
		return
	}
	now := time.Now()
	w.mu.Lock()
	w.rotateLocked(now)
	h := w.wins[w.cur]
	w.mu.Unlock()
	h.Record(d)
}

// Snapshot merges every live window into one exact snapshot of the
// recent past.
func (w *Windowed) Snapshot() Snapshot {
	if w == nil {
		return Snapshot{}
	}
	now := time.Now()
	w.mu.Lock()
	w.rotateLocked(now)
	parts := make([]Snapshot, 0, len(w.wins))
	for _, h := range w.wins {
		parts = append(parts, h.Snapshot())
	}
	w.mu.Unlock()
	var s Snapshot
	for _, p := range parts {
		s = s.Merge(p)
	}
	return s
}

// Reset clears all windows.
func (w *Windowed) Reset() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, h := range w.wins {
		h.Reset()
		w.born[i] = time.Time{}
	}
	w.cur = 0
}

// Registry is a named get-or-create home for counters, gauges, and
// windowed histograms — the live metrics plane a server exposes over
// HTTP and the harness dumps periodically. Existing instruments (a
// raft server's proposal counters) can be attached so one scrape sees
// everything. Nil-safe like the rest of the observability layer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Windowed
	winN     int
	winW     time.Duration
}

// NewRegistry returns a registry whose histograms use n windows of
// width each (zero = defaults).
func NewRegistry(n int, width time.Duration) *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Windowed),
		winN:     n,
		winW:     width,
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return NewCounter(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = NewCounter(name)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return NewGauge(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = NewGauge(name)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named windowed histogram, creating it on
// first use.
func (r *Registry) Histogram(name string) *Windowed {
	if r == nil {
		return NewWindowed(0, 0)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewWindowed(r.winN, r.winW)
		r.hists[name] = h
	}
	return h
}

// Attach registers an existing counter under its own name, replacing
// any previous registration.
func (r *Registry) Attach(c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[c.Name] = c
}

// GaugeSnap is one gauge's scrape value.
type GaugeSnap struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// HistSnap is one histogram's scrape value, microsecond units.
type HistSnap struct {
	Count  int64 `json:"count"`
	MeanUs int64 `json:"mean_us"`
	P50Us  int64 `json:"p50_us"`
	P95Us  int64 `json:"p95_us"`
	P99Us  int64 `json:"p99_us"`
	MinUs  int64 `json:"min_us"`
	MaxUs  int64 `json:"max_us"`
}

// RegistrySnapshot is one consistent scrape of the whole registry,
// JSON-marshalable for the /metrics endpoint.
type RegistrySnapshot struct {
	Counters   map[string]int64     `json:"counters"`
	Gauges     map[string]GaugeSnap `json:"gauges"`
	Histograms map[string]HistSnap  `json:"histograms"`
}

// Snapshot scrapes every registered instrument.
func (r *Registry) Snapshot() RegistrySnapshot {
	out := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]GaugeSnap{},
		Histograms: map[string]HistSnap{},
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Windowed, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, c := range counters {
		out.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		out.Gauges[k] = GaugeSnap{Value: g.Value(), Max: g.Max()}
	}
	for k, h := range hists {
		s := h.Snapshot()
		out.Histograms[k] = HistSnap{
			Count:  s.Count,
			MeanUs: s.Mean.Microseconds(),
			P50Us:  s.P50.Microseconds(),
			P95Us:  s.P95.Microseconds(),
			P99Us:  s.P99.Microseconds(),
			MinUs:  s.Min.Microseconds(),
			MaxUs:  s.Max.Microseconds(),
		}
	}
	return out
}

// Names lists every registered instrument name, sorted, for
// discoverability endpoints and tests.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for k := range r.counters {
		names = append(names, "counter:"+k)
	}
	for k := range r.gauges {
		names = append(names, "gauge:"+k)
	}
	for k := range r.hists {
		names = append(names, "hist:"+k)
	}
	sort.Strings(names)
	return names
}
