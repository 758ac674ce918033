// Package failslow is the fault-injection tool of the reproduction:
// it implements the simulated fail-slow fault catalog of Table 1 of
// the paper (CPU slowness and contention, disk slowness and
// contention, memory contention, network slowness) and applies faults
// to node environments — directly, or step by step through a Script
// that a driver (the harness engine, the schedule explorer) replays.
package failslow

import (
	"fmt"
	"time"

	"depfast/internal/env"
	"depfast/internal/obs"
)

// Fault identifies one fail-slow fault type from Table 1.
type Fault int

const (
	// None is the healthy baseline ("No Slowness").
	None Fault = iota
	// CPUSlow models a cgroup cap allowing the process only ~5% CPU.
	CPUSlow
	// CPUContention models a contending program with 16x the CPU share.
	CPUContention
	// DiskSlow models a cgroup limit on disk I/O bandwidth.
	DiskSlow
	// DiskContention models a heavy contending writer on the shared disk.
	DiskContention
	// MemContention models a cgroup cap on user memory (reclaim cost
	// grows with resident set).
	MemContention
	// NetSlow models a tc netem delay added to the node's interface.
	NetSlow
)

// All lists every fault including the healthy baseline, in the order
// the paper's figures present them.
var All = []Fault{None, CPUSlow, CPUContention, MemContention, DiskSlow, DiskContention, NetSlow}

// Injected lists only the actual faults.
var Injected = []Fault{CPUSlow, CPUContention, MemContention, DiskSlow, DiskContention, NetSlow}

// String names the fault as in the paper's legends.
func (f Fault) String() string {
	switch f {
	case None:
		return "No Slowness"
	case CPUSlow:
		return "CPU Slowness"
	case CPUContention:
		return "CPU Contention"
	case DiskSlow:
		return "Disk Slowness"
	case DiskContention:
		return "Disk Contention"
	case MemContention:
		return "Memory Contention"
	case NetSlow:
		return "Network Slowness"
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

// Injection describes how a fault is injected, mirroring the second
// column of Table 1.
func (f Fault) Injection() string {
	switch f {
	case None:
		return "baseline, no fault injected"
	case CPUSlow:
		return "limit the RSM process to ~5% CPU (cgroup cpu.max equivalent: compute x20)"
	case CPUContention:
		return "contending program with 16x CPU share (compute x4 + probabilistic stalls)"
	case DiskSlow:
		return "limit disk I/O bandwidth for the RSM process (disk service time x10)"
	case DiskContention:
		return "contending heavy writer on the shared disk (probabilistic multi-ms disk stalls)"
	case MemContention:
		return "cap user memory for the RSM process (reclaim pause per resident MB)"
	case NetSlow:
		return "add fixed delay to the network interface (tc netem equivalent)"
	}
	return "unknown"
}

// Intensity parameterizes the faults; the zero value is unusable —
// use DefaultIntensity (scaled for seconds-long laptop experiments) as
// a starting point.
type Intensity struct {
	CPUSlowFactor       float64
	CPUContentionFactor float64
	CPUStallProb        float64
	CPUStallDur         time.Duration
	DiskSlowFactor      float64
	DiskStallProb       float64
	DiskStallDur        time.Duration
	MemPausePerMB       time.Duration
	// Memory contention also causes reclaim stalls on the faulted
	// node's compute path, independent of tracked resident bytes.
	MemStallP   float64
	MemStallDur time.Duration
	NetDelay    time.Duration
}

// DefaultIntensity mirrors Table 1 scaled for short experiments: the
// paper's 400ms tc delay becomes 40ms so runs converge in seconds; the
// CPU cap (5% ≈ x20) and bandwidth throttle ratios are kept.
func DefaultIntensity() Intensity {
	return Intensity{
		CPUSlowFactor:       20,
		CPUContentionFactor: 4,
		CPUStallProb:        0.10,
		CPUStallDur:         5 * time.Millisecond,
		DiskSlowFactor:      10,
		DiskStallProb:       0.15,
		DiskStallDur:        4 * time.Millisecond,
		MemPausePerMB:       40 * time.Microsecond,
		MemStallP:           0.08,
		MemStallDur:         4 * time.Millisecond,
		NetDelay:            40 * time.Millisecond,
	}
}

// Apply injects fault f into e with the given intensity, after
// clearing any previous fault.
func Apply(e *env.Env, f Fault, in Intensity) {
	e.ClearFaults()
	switch f {
	case None:
	case CPUSlow:
		e.SetCPUFactor(in.CPUSlowFactor)
	case CPUContention:
		e.SetCPUFactor(in.CPUContentionFactor)
		e.SetCPUStall(in.CPUStallProb, in.CPUStallDur)
	case DiskSlow:
		e.SetDiskFactor(in.DiskSlowFactor)
	case DiskContention:
		e.SetDiskStall(in.DiskStallProb, in.DiskStallDur)
	case MemContention:
		e.SetMemPressure(in.MemPausePerMB)
		e.SetCPUStall(in.MemStallP, in.MemStallDur)
	case NetSlow:
		e.SetNetDelay(in.NetDelay)
	}
}

// Clear removes any injected fault from e.
func Clear(e *env.Env) { e.ClearFaults() }

// ApplyObserved is Apply plus a flight-recorder event, so the
// injection instant lands on the same timeline as detector verdicts
// and sentinel actions (rec may be nil). Injecting None records a
// clear, matching Apply's semantics.
func ApplyObserved(rec *obs.Recorder, e *env.Env, f Fault, in Intensity) {
	Apply(e, f, in)
	if f == None {
		rec.Emit(obs.Event{Type: obs.FaultCleared, Node: e.Node()})
		return
	}
	rec.Emit(obs.Event{Type: obs.FaultInjected, Node: e.Node(), Detail: f.String()})
}

// ClearObserved is Clear plus a flight-recorder event (rec may be nil).
func ClearObserved(rec *obs.Recorder, e *env.Env) {
	Clear(e)
	rec.Emit(obs.Event{Type: obs.FaultCleared, Node: e.Node()})
}
