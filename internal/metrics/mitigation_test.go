package metrics_test

import (
	"testing"
	"time"

	"depfast/internal/metrics"
	"depfast/internal/obs"
)

// A Mitigation keeps only counters; the MTTD and MTTR of a mitigation
// derive from the flight recorder's event stream. These tests pin the
// marking rules of that derivation: the first detection and the first
// sustained recovery of an episode win, and a new injection re-arms
// both.

func gauges(evs []obs.Event, base time.Time, from, to time.Duration, rate float64) []obs.Event {
	for at := from; at < to; at += 100 * time.Millisecond {
		evs = append(evs, obs.Event{Time: base.Add(at), Type: obs.GaugeSample, Node: "harness",
			Fields: map[string]float64{"rate": rate}})
	}
	return evs
}

func TestMitigationMTTDAndMTTR(t *testing.T) {
	m := metrics.NewMitigation()
	if m.Transfers.Value() != 0 || m.QuarantinesEntered.Value() != 0 {
		t.Fatal("new mitigation counters are not zero")
	}
	if rep := obs.Analyze(nil); len(rep.Faults) != 0 {
		t.Fatalf("empty stream reports %d faults", len(rep.Faults))
	}

	base := time.Unix(1000, 0)
	evs := gauges(nil, base, 0, time.Second, 100)
	evs = append(evs, obs.Event{Time: base.Add(time.Second), Type: obs.FaultInjected, Node: "s1", Detail: "Disk Slowness"})
	evs = gauges(evs, base, time.Second, 3*time.Second, 10)
	// Detection alone gives MTTD but no MTTR.
	detected := append(evs[:len(evs):len(evs)], obs.Event{Time: base.Add(1300 * time.Millisecond),
		Type: obs.QuarantineEnter, Node: "s2", Peer: "s1"})
	f := obs.Analyze(detected).Faults[0]
	if got := f.MTTD(); got != 300*time.Millisecond {
		t.Fatalf("MTTD = %v, want 300ms", got)
	}
	if f.MTTR() != 0 {
		t.Fatalf("MTTR = %v before recovery, want 0", f.MTTR())
	}

	// First detection wins; later signals must not stretch MTTD. First
	// sustained recovery wins; a later dip and recovery must not
	// stretch MTTR.
	evs = append(detected, obs.Event{Time: base.Add(2500 * time.Millisecond),
		Type: obs.VerdictSuspect, Node: "s3", Peer: "s1"})
	evs = gauges(evs, base, 3*time.Second, 4*time.Second, 90)
	evs = gauges(evs, base, 4*time.Second, 5*time.Second, 10)
	evs = gauges(evs, base, 5*time.Second, 6*time.Second, 90)
	f = obs.Analyze(evs).Faults[0]
	if got := f.MTTD(); got != 300*time.Millisecond {
		t.Fatalf("MTTD moved on a repeat detection: %v", got)
	}
	if got := f.MTTR(); got != 2*time.Second {
		t.Fatalf("MTTR = %v, want 2s", got)
	}
}

func TestMitigationReinjectionRearms(t *testing.T) {
	base := time.Unix(2000, 0)
	evs := gauges(nil, base, 0, time.Second, 100)
	evs = append(evs,
		obs.Event{Time: base.Add(time.Second), Type: obs.FaultInjected, Node: "s1", Detail: "CPU Slowness"},
		obs.Event{Time: base.Add(1100 * time.Millisecond), Type: obs.HandoffStarted, Node: "s1", Peer: "s2"})
	evs = gauges(evs, base, time.Second, 2*time.Second, 100)
	// A new fault episode starts unmarked: the first episode's
	// detection and recovery do not carry over.
	evs = append(evs, obs.Event{Time: base.Add(10 * time.Second), Type: obs.FaultInjected, Node: "s1", Detail: "CPU Slowness"})
	rep := obs.Analyze(evs)
	if len(rep.Faults) != 2 {
		t.Fatalf("faults = %d, want 2", len(rep.Faults))
	}
	if got := rep.Faults[0].MTTD(); got != 100*time.Millisecond {
		t.Fatalf("first episode MTTD = %v, want 100ms", got)
	}
	if second := rep.Faults[1]; second.MTTD() != 0 || second.MTTR() != 0 {
		t.Fatalf("re-injection kept stale marks: MTTD=%v MTTR=%v", second.MTTD(), second.MTTR())
	}

	evs = append(evs, obs.Event{Time: base.Add(10*time.Second + 250*time.Millisecond),
		Type: obs.VerdictSuspect, Node: "s2", Peer: "s1"})
	if got := obs.Analyze(evs).Faults[1].MTTD(); got != 250*time.Millisecond {
		t.Fatalf("second episode MTTD = %v, want 250ms", got)
	}
}
