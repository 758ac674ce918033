package failslow

import (
	"strings"
	"testing"
	"time"

	"depfast/internal/env"
)

func newEnv() *env.Env { return env.New("s2", env.DefaultConfig()) }

func TestFaultNames(t *testing.T) {
	for _, f := range All {
		if s := f.String(); s == "" || strings.HasPrefix(s, "Fault(") {
			t.Errorf("fault %d has no name", int(f))
		}
		if f.Injection() == "unknown" {
			t.Errorf("fault %v has no injection description", f)
		}
	}
	if Fault(99).String() != "Fault(99)" {
		t.Error("unknown fault string")
	}
}

func TestAllIncludesBaselinePlusInjected(t *testing.T) {
	if len(All) != len(Injected)+1 {
		t.Fatalf("All=%d Injected=%d", len(All), len(Injected))
	}
	if All[0] != None {
		t.Fatal("All must start with the healthy baseline")
	}
}

func TestApplyCPUSlow(t *testing.T) {
	e := newEnv()
	in := DefaultIntensity()
	Apply(e, CPUSlow, in)
	healthy := time.Millisecond
	got := e.ComputeCost(healthy)
	if got != time.Duration(float64(healthy)*in.CPUSlowFactor) {
		t.Fatalf("cpu-slow compute = %v", got)
	}
	// Disk and net must be untouched.
	if e.NetDelay() != env.DefaultConfig().NetBase {
		t.Error("cpu fault leaked into net")
	}
}

func TestApplyDiskSlow(t *testing.T) {
	e := newEnv()
	in := DefaultIntensity()
	healthy := e.DiskWriteCost(1000)
	Apply(e, DiskSlow, in)
	got := e.DiskWriteCost(1000)
	ratio := float64(got) / float64(healthy)
	if ratio < in.DiskSlowFactor*0.9 || ratio > in.DiskSlowFactor*1.1 {
		t.Fatalf("disk-slow ratio = %.1f, want ~%.0f", ratio, in.DiskSlowFactor)
	}
}

func TestApplyNetSlow(t *testing.T) {
	e := newEnv()
	in := DefaultIntensity()
	Apply(e, NetSlow, in)
	if got := e.NetDelay(); got < in.NetDelay {
		t.Fatalf("net delay = %v, want >= %v", got, in.NetDelay)
	}
}

func TestApplyMemContention(t *testing.T) {
	e := newEnv()
	in := DefaultIntensity()
	in.MemStallP = 0 // isolate the resident-proportional pause
	Apply(e, MemContention, in)
	e.TrackAlloc(100 << 20) // 100 MB resident
	if got := e.ComputeCost(0); got != 100*in.MemPausePerMB {
		t.Fatalf("mem pause = %v, want %v", got, 100*in.MemPausePerMB)
	}
}

func TestApplyMemContentionStalls(t *testing.T) {
	e := newEnv()
	in := DefaultIntensity()
	in.MemStallP = 1.0 // always stall
	Apply(e, MemContention, in)
	if got := e.ComputeCost(time.Millisecond); got != time.Millisecond+in.MemStallDur {
		t.Fatalf("mem stall cost = %v", got)
	}
}

func TestApplyClearsPreviousFault(t *testing.T) {
	e := newEnv()
	in := DefaultIntensity()
	Apply(e, CPUSlow, in)
	Apply(e, NetSlow, in)
	if got := e.ComputeCost(time.Millisecond); got != time.Millisecond {
		t.Fatalf("previous CPU fault not cleared: %v", got)
	}
}

func TestApplyNoneIsHealthy(t *testing.T) {
	e := newEnv()
	Apply(e, CPUSlow, DefaultIntensity())
	Apply(e, None, DefaultIntensity())
	if got := e.ComputeCost(time.Millisecond); got != time.Millisecond {
		t.Fatalf("None not healthy: %v", got)
	}
}

func TestClear(t *testing.T) {
	e := newEnv()
	Apply(e, DiskSlow, DefaultIntensity())
	Clear(e)
	healthy := env.New("x", env.DefaultConfig()).DiskWriteCost(100)
	if got := e.DiskWriteCost(100); got != healthy {
		t.Fatalf("clear failed: %v vs %v", got, healthy)
	}
}
