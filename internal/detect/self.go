package detect

import (
	"sync"
	"time"
)

// Self-probe constants: the stretch EWMA weighs a new probe at
// selfAlpha, and the resource is slow once that stretch reaches
// selfSlowFactor over at least selfMinSamples probes.
const (
	selfAlpha      = 1.0 / 4
	selfSlowFactor = 4
	selfMinSamples = 3
)

// Self monitors one of the node's *own* resources for fail-slow
// behavior — the paper's observation that a node can often tell it is
// degraded (a throttled CPU, a wearing disk) before its peers can.
// The caller periodically measures how long a fixed-size unit of work
// actually takes and feeds it alongside the nominal (healthy) cost;
// Self smooths the stretch ratio and reports Slow once it stays above
// selfSlowFactor.
//
// Safe for concurrent use: the sentinel writes from the runtime
// coroutine while harness code reads Slow()/Stretch().
type Self struct {
	mu sync.Mutex
	// name identifies the resource ("cpu", "disk") in diagnostics.
	name    string
	stretch EWMA // of actual/nominal
}

// NewSelf returns a monitor for one resource.
func NewSelf(name string) *Self { return &Self{name: name} }

// Observe folds one measurement: the actual time a probe took against
// its nominal healthy cost. Non-positive inputs are ignored.
func (s *Self) Observe(actual, nominal time.Duration) {
	if actual <= 0 || nominal <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stretch.Add(float64(actual)/float64(nominal), selfAlpha)
}

// Stretch returns the smoothed actual/nominal ratio (1 = healthy).
func (s *Self) Stretch() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stretch.Samples() == 0 {
		return 1
	}
	return s.stretch.Value()
}

// Slow reports whether the resource's smoothed stretch has crossed
// the slow factor, once enough samples exist to judge.
func (s *Self) Slow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stretch.Samples() >= selfMinSamples && s.stretch.Value() >= selfSlowFactor
}

// Name returns the resource label.
func (s *Self) Name() string { return s.name }

// Reset clears the monitor (e.g. after mitigation acted on it).
func (s *Self) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stretch.Reset()
}
