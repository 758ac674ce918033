// Package clock provides the delay primitive for the resource
// simulation. Precise busy-waits for very short delays — the healthy
// compute costs on the request path, tens of microseconds — and sleeps
// for everything longer.
//
// What a sleep really takes is not a property of the host but of how
// busy the Go scheduler is. A timer is noticed when a P passes through
// the scheduler; a P with nothing to run parks in the netpoller and is
// woken on a ~1.08 ms grid. Measured on the 2-core host this repository
// is benchmarked on (median of 200, go1.24):
//
//	                 idle process   process switching goroutines all the time
//	Sleep(1µs)          7.7 µs          1.3 µs
//	Sleep(100µs)        1.09 ms         100 µs
//	Sleep(1ms)          1.09 ms         1.00 ms
//	Sleep(2ms)          2.17 ms         2.00 ms
//	Sleep(2.1ms)        3.17 ms         2.10 ms
//	Sleep(2.3ms)        3.17 ms         2.31 ms
//
// So a delay is exact on a saturated cluster (read_mostly: the 2.1 ms
// fsync takes 2.1 ms, as on the benchmark's ladder, which reads a
// ~20 µs sleep floor) and rounds up to the next grid point on a lightly
// loaded one: on put_paced the WAL fsync reads ~2.4 ms in situ
// (raft.stage.append_us, a mix of 2.1 and 3.17) against 2.11 ms on the
// ladder, and such roundings along the delay chain are the ~0.6 ms of
// its p50 that no span explains. The service times (fsync 2 ms, NIC 1 ms per
// side) were chosen near grid multiples so that the idle case — the
// ~1.1 ms floor this package was first calibrated against — stays close
// to nominal; they are the ruler every recorded number was taken with
// and are not to be "fixed".
//
// The spin threshold is deliberately low because experiments may run
// on a single core: only cheap, frequent, *healthy* costs spin;
// fault-stretched costs (hundreds of microseconds and up) sleep, so a
// fail-slow node yields the physical CPU instead of stealing it from
// the healthy nodes co-located in the process. Where sleeping
// overshoots it errs toward making the faulted component slower —
// conservative for every claim this repo measures.
package clock

import (
	"runtime"
	"time"
)

// SpinThreshold is the boundary between busy-wait and sleep.
const SpinThreshold = 100 * time.Microsecond

// Precise blocks for approximately d. Delays below SpinThreshold are
// spun with sub-10µs accuracy; longer delays use time.Sleep and, in a
// process with idle Ps, round up to the ~1.08 ms timer grid.
func Precise(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= SpinThreshold {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// WaitUntil polls cond every poll interval until it returns true or
// timeout elapses, and reports whether cond was satisfied. It is the
// harness's one condition-wait primitive: drivers that need "leader
// elected", "metric settled", or "quarantine lifted" poll here instead
// of hand-rolling time.Sleep loops, so experiment pacing stays behind
// the same calibrated delay primitive as the resource simulation.
// cond is always evaluated at least once, including with timeout <= 0.
func WaitUntil(timeout, poll time.Duration, cond func() bool) bool {
	if poll <= 0 {
		poll = time.Millisecond
	}
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		if remain := time.Until(deadline); remain < poll {
			Precise(remain)
		} else {
			Precise(poll)
		}
	}
}

// SleepFloor measures the host's minimum effective sleep, for
// calibration output in experiment reports.
func SleepFloor() time.Duration {
	const n = 5
	start := time.Now()
	for i := 0; i < n; i++ {
		time.Sleep(time.Microsecond)
	}
	return time.Since(start) / n
}
