package metrics

import (
	"fmt"
	"sync/atomic"
)

// Counter is a named atomic counter for incidental statistics
// (retries, discarded messages, cache misses, ...).
type Counter struct {
	Name string
	v    atomic.Int64
}

// NewCounter returns a named counter.
func NewCounter(name string) *Counter { return &Counter{Name: name} }

// Inc adds one. Add adds n. Value reads the count.
func (c *Counter) Inc()           { c.v.Add(1) }
func (c *Counter) Add(n int64)    { c.v.Add(n) }
func (c *Counter) Value() int64   { return c.v.Load() }
func (c *Counter) Reset()         { c.v.Store(0) }
func (c *Counter) String() string { return fmt.Sprintf("%s=%d", c.Name, c.v.Load()) }

// Gauge is a set-or-read value for instantaneous measurements
// (buffer bytes, queue depth).
type Gauge struct {
	Name string
	v    atomic.Int64
	max  atomic.Int64
}

// NewGauge returns a named gauge.
func NewGauge(name string) *Gauge { return &Gauge{Name: name} }

// Set stores the current value and tracks the high-water mark.
func (g *Gauge) Set(n int64) {
	g.v.Store(n)
	for {
		cur := g.max.Load()
		if cur >= n {
			return
		}
		if g.max.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Add adjusts the current value by delta and tracks the high-water mark.
func (g *Gauge) Add(delta int64) {
	n := g.v.Add(delta)
	for {
		cur := g.max.Load()
		if cur >= n {
			return
		}
		if g.max.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value reads the current value; Max reads the high-water mark.
func (g *Gauge) Value() int64 { return g.v.Load() }
func (g *Gauge) Max() int64   { return g.max.Load() }
