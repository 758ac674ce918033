//go:build !race

// Package race reports whether the race detector instruments this
// build. Tests that pin allocation counts or timings read it: the
// detector adds allocations of its own and slows every node unevenly.
package race

// Enabled is true when the build runs under the race detector.
const Enabled = false
