package obs

import (
	"strings"
	"testing"
	"time"
)

// synthRun builds a synthetic stream: healthy baseline at 100 op/s,
// fault injected at T+2s, rate collapses to 10, verdict at T+2.4s,
// handoff at T+2.5s, rate recovers to 90 from T+3s on.
func synthRun() []Event {
	base := time.Unix(5000, 0)
	var evs []Event
	gauge := func(at time.Duration, rate float64) {
		evs = append(evs, Event{Time: base.Add(at), Type: GaugeSample, Node: "harness",
			Fields: map[string]float64{"rate": rate, "p50_us": 1000, "p99_us": 4000}})
	}
	span := func(at time.Duration, totalUs float64) {
		evs = append(evs, Event{Time: base.Add(at), Type: CommitSpan, Node: "s1",
			Fields: map[string]float64{
				"append_us": totalUs / 4, "replicate_us": 10,
				"quorum_us": totalUs / 2, "apply_us": totalUs / 2, "total_us": totalUs}})
	}
	for i := 0; i < 20; i++ { // 0..2s healthy
		gauge(time.Duration(i)*100*time.Millisecond, 100)
		span(time.Duration(i)*100*time.Millisecond, 2000)
	}
	evs = append(evs, Event{Time: base.Add(2 * time.Second), Type: FaultInjected,
		Node: "s1", Detail: "CPU Slowness"})
	for i := 0; i < 10; i++ { // 2..3s collapsed
		gauge(2*time.Second+time.Duration(i)*100*time.Millisecond, 10)
		span(2*time.Second+time.Duration(i)*100*time.Millisecond, 40000)
	}
	evs = append(evs, Event{Time: base.Add(2400 * time.Millisecond), Type: VerdictSuspect,
		Node: "s1", Peer: "s1", Detail: "self-cpu"})
	evs = append(evs, Event{Time: base.Add(2500 * time.Millisecond), Type: HandoffDrained,
		Node: "s1", Peer: "s2"})
	for i := 0; i < 10; i++ { // 3..4s recovered
		gauge(3*time.Second+time.Duration(i)*100*time.Millisecond, 90)
		span(3*time.Second+time.Duration(i)*100*time.Millisecond, 2500)
	}
	return evs
}

func TestAnalyzeMTTDAndMTTR(t *testing.T) {
	rep := Analyze(synthRun())
	if len(rep.Faults) != 1 {
		t.Fatalf("faults = %d, want 1", len(rep.Faults))
	}
	f := rep.Faults[0]
	if f.Node != "s1" || f.Fault != "CPU Slowness" {
		t.Fatalf("fault identity mangled: %+v", f)
	}
	// Detection: the self-verdict at T+2.4s → MTTD 400ms.
	if got := f.MTTD(); got != 400*time.Millisecond {
		t.Fatalf("MTTD = %v, want 400ms", got)
	}
	if f.DetectedBy != VerdictSuspect || f.Detector != "s1" {
		t.Fatalf("detection attribution: by=%v detector=%s", f.DetectedBy, f.Detector)
	}
	// Recovery: rate 90 >= 0.5×100 sustained from T+3s → MTTR 1s.
	if got := f.MTTR(); got != time.Second {
		t.Fatalf("MTTR = %v, want 1s", got)
	}
	if f.BaselineRate != 100 {
		t.Fatalf("baseline = %.0f, want 100", f.BaselineRate)
	}
	if f.FloorRate != 10 {
		t.Fatalf("floor = %.0f, want 10", f.FloorRate)
	}
}

func TestAnalyzeStageBreakdown(t *testing.T) {
	rep := Analyze(synthRun())
	f := rep.Faults[0]
	if f.Before.Spans == 0 || f.During.Spans == 0 || f.After.Spans == 0 {
		t.Fatalf("empty stage windows: before=%d during=%d after=%d",
			f.Before.Spans, f.During.Spans, f.After.Spans)
	}
	if f.Before.Total != 2*time.Millisecond {
		t.Fatalf("before total = %v, want 2ms", f.Before.Total)
	}
	if f.During.Total <= f.Before.Total {
		t.Fatalf("during (%v) should exceed before (%v)", f.During.Total, f.Before.Total)
	}
	if f.After.Total >= f.During.Total {
		t.Fatalf("after (%v) should undercut during (%v)", f.After.Total, f.During.Total)
	}
	out := rep.Render()
	for _, want := range []string{"MTTD", "MTTR", "before", "during", "after", "CPU Slowness"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeUndetectedUnrecovered(t *testing.T) {
	base := time.Unix(9000, 0)
	evs := []Event{
		{Time: base, Type: GaugeSample, Node: "harness", Fields: map[string]float64{"rate": 100}},
		{Time: base.Add(100 * time.Millisecond), Type: GaugeSample, Node: "harness", Fields: map[string]float64{"rate": 100}},
		{Time: base.Add(200 * time.Millisecond), Type: FaultInjected, Node: "s2", Detail: "Network Slowness"},
		{Time: base.Add(300 * time.Millisecond), Type: GaugeSample, Node: "harness", Fields: map[string]float64{"rate": 5}},
		{Time: base.Add(400 * time.Millisecond), Type: GaugeSample, Node: "harness", Fields: map[string]float64{"rate": 5}},
	}
	rep := Analyze(evs)
	f := rep.Faults[0]
	if f.MTTD() != 0 || f.MTTR() != 0 {
		t.Fatalf("undetected fault got MTTD=%v MTTR=%v", f.MTTD(), f.MTTR())
	}
	out := rep.Render()
	if !strings.Contains(out, "undetected") || !strings.Contains(out, "unrecovered") {
		t.Fatalf("render should flag undetected/unrecovered:\n%s", out)
	}
}

func TestAnalyzeMultipleInjections(t *testing.T) {
	base := time.Unix(100, 0)
	var evs []Event
	for k := 0; k < 2; k++ {
		off := time.Duration(k) * 10 * time.Second
		for i := 0; i < 10; i++ {
			evs = append(evs, Event{Time: base.Add(off + time.Duration(i)*100*time.Millisecond),
				Type: GaugeSample, Node: "harness", Fields: map[string]float64{"rate": 100}})
		}
		evs = append(evs, Event{Time: base.Add(off + time.Second), Type: FaultInjected,
			Node: "s1", Detail: "Disk Slowness"})
		evs = append(evs, Event{Time: base.Add(off + 1200*time.Millisecond), Type: QuarantineEnter,
			Node: "s3", Peer: "s1"})
	}
	rep := Analyze(evs)
	if len(rep.Faults) != 2 {
		t.Fatalf("faults = %d, want 2", len(rep.Faults))
	}
	for i, f := range rep.Faults {
		if f.MTTD() != 200*time.Millisecond {
			t.Fatalf("fault %d MTTD = %v, want 200ms", i, f.MTTD())
		}
		if f.DetectedBy != QuarantineEnter {
			t.Fatalf("fault %d detected by %v", i, f.DetectedBy)
		}
	}
}
