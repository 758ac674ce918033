package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"depfast/internal/failslow"
	"depfast/internal/kv"
	"depfast/internal/mitigate"
	"depfast/internal/obs"
	"depfast/internal/race"
	"depfast/internal/raft"
	"depfast/internal/trace"
	"depfast/internal/xtrace"
	"depfast/internal/ycsb"
)

// runSteady runs one short figure cell and returns its measure window.
func runSteady(t *testing.T, sc Scenario) (Result, Stats) {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	t.Log(res)
	return res, res.Phase("measure").All
}

func TestRunDepFastHealthy(t *testing.T) {
	res, m := runSteady(t, Steady("healthy", shortOpts(), DepFastRaft, 3, failslow.None, 1))
	if m.Ops < 50 {
		t.Fatalf("ops = %d, implausibly low", m.Ops)
	}
	if m.Tput <= 0 || m.Mean <= 0 || m.P99 < m.P50 {
		t.Fatalf("bad stats: %+v", m)
	}
	if res.LeaderCrashed {
		t.Fatal("healthy run crashed")
	}
	if len(res.Timeline) < 6 {
		t.Fatalf("timeline has %d slices for an 800ms run", len(res.Timeline))
	}
}

func TestRunDepFastWithNetSlowFollower(t *testing.T) {
	if _, m := runSteady(t, Steady("net-slow", shortOpts(), DepFastRaft, 3, failslow.NetSlow, 1)); m.Ops < 50 {
		t.Fatalf("ops = %d under one slow follower — fail-slow tolerance broken", m.Ops)
	}
}

func TestRunBaselinesHealthy(t *testing.T) {
	for _, sys := range Baselines {
		if _, m := runSteady(t, Steady(sys.String(), shortOpts(), sys, 3, failslow.None, 1)); m.Ops < 50 {
			t.Fatalf("%v ops = %d, implausibly low", sys, m.Ops)
		}
	}
}

func TestRunFiveNodes(t *testing.T) {
	res, m := runSteady(t, Steady("five", shortOpts(), DepFastRaft, 5, failslow.CPUSlow, 1))
	if len(res.Injected) != 2 {
		t.Fatalf("injected %d followers of 5, want the minority of 2", len(res.Injected))
	}
	if m.Ops < 50 {
		t.Fatalf("5-node ops = %d with 2 slow followers", m.Ops)
	}
}

func TestRunTraced(t *testing.T) {
	sc := Steady("traced", shortOpts(), DepFastRaft, 3, failslow.None, 1)
	sc.Traced = true
	res, _ := runSteady(t, sc)
	if res.Collector == nil || res.Collector.Len() == 0 {
		t.Fatal("traced run produced no records")
	}
	if viol := trace.Verify(res.Collector.Records(), trace.VerifyConfig{AllowClientPrefix: "client"}); len(viol) != 0 {
		t.Fatalf("verifier violations: %d (first: %v)", len(viol), viol[0])
	}
}

func TestRunWithYCSBWorkloads(t *testing.T) {
	// Workload E (scan-heavy) pushes the OpScan path through the full
	// replicated stack; the property string exercises a mixed workload.
	scan, err := ycsb.Preset("e")
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := ycsb.Parse("recordcount=300,readproportion=0.6,updateproportion=0.3,insertproportion=0.1,requestdistribution=latest")
	if err != nil {
		t.Fatal(err)
	}
	for name, wl := range map[string]ycsb.Workload{"scan": scan, "mixed": mixed} {
		wl := wl
		o := shortOpts()
		o.Workload = &wl
		res, m := runSteady(t, Steady(name, o, DepFastRaft, 3, failslow.None, 1))
		if m.Ops < 30 {
			t.Fatalf("%s workload ops = %d", name, m.Ops)
		}
		if errs := res.Phase("measure").Errs; errs > m.Ops/10 {
			t.Fatalf("%s workload errors = %d of %d", name, errs, m.Ops)
		}
		if m.Ops != res.Phase("measure").Reads.Ops+res.Phase("measure").Writes.Ops || res.Phase("measure").Reads.Ops == 0 {
			t.Fatalf("%s: read/write split %+v", name, res.Phase("measure"))
		}
	}
}

// measured fabricates a Result whose measure window has the given stats.
func measured(tput float64, mean, p99 time.Duration) Result {
	return Result{Phases: []PhaseResult{{Name: "measure", Measure: Measure{Window: Window{All: Stats{Tput: tput, Mean: mean, P99: p99}}}}}}
}

func TestFigureNormalizationDriftAndRender(t *testing.T) {
	// One group: the no-fault cell, one degraded cell, the rest unchanged.
	rs := make([]Result, len(failslow.All))
	for i := range rs {
		rs[i] = measured(1000, time.Millisecond, 10*time.Millisecond)
	}
	rs[1] = measured(800, 1500*time.Microsecond, 30*time.Millisecond)
	rs[1].LeaderCrashed = true
	rep := figureReport("test", []string{"A"}, labels(failslow.All), rs, true, " (note)")
	if d := rep.Derived["max_drift/A"]; d < 1.99 || d > 2.01 {
		t.Fatalf("drift = %v, want 2.0 (p99 3x)", d)
	}
	for _, want := range []string{"Throughput", "Average Latency", "P99", "No Slowness", "1.00x", "0.80x!", "1.50x!", "3.00x!", "max drift A", "200.0% (note)"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("render missing %q:\n%s", want, rep.Text)
		}
	}
	if abs := figureReport("test", []string{"A"}, labels(failslow.All), rs, false, "").Text; !strings.Contains(abs, "1000/s") || !strings.Contains(abs, "800/s!") {
		t.Errorf("absolute render missing throughput:\n%s", abs)
	}
}

func TestTable1Measured(t *testing.T) {
	rows := Table1()
	if len(rows) != len(failslow.All) {
		t.Fatalf("rows = %d", len(rows))
	}
	byFault := map[failslow.Fault]Table1Row{}
	for _, r := range rows {
		byFault[r.Fault] = r
	}
	if r := byFault[failslow.None]; r.ComputeFactor < 0.99 || r.ComputeFactor > 1.01 {
		t.Errorf("healthy compute factor = %v", r.ComputeFactor)
	}
	if r := byFault[failslow.CPUSlow]; r.ComputeFactor < 15 {
		t.Errorf("cpu-slow compute factor = %v, want ~20", r.ComputeFactor)
	}
	if r := byFault[failslow.DiskSlow]; r.DiskFactor < 8 {
		t.Errorf("disk-slow factor = %v, want ~10", r.DiskFactor)
	}
	if r := byFault[failslow.NetSlow]; r.NetFactor < 20 {
		t.Errorf("net-slow factor = %v, want large", r.NetFactor)
	}
	if out, _ := RunRow("table1", DefaultOptions()); !strings.Contains(out.Text, "cgroup") || !strings.Contains(out.Text, "FAULT") {
		t.Errorf("render: %s", out.Text)
	}
}

func TestFigure2SPGShape(t *testing.T) {
	out, err := RunRow("figure2", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failed) != 0 {
		t.Fatalf("figure2 gates: %v", out.Failed)
	}
	col := out.Results[0].Collector
	if col.Len() == 0 {
		t.Fatal("no trace records")
	}
	g := trace.BuildSPG(col.Records())
	if len(g.QuorumEdges()) == 0 {
		t.Fatal("no green quorum edges")
	}
	// Clients wait on leaders: red edges from client nodes only.
	foundClientEdge := false
	for _, e := range g.SingularEdges() {
		if strings.HasPrefix(e.From, "client") {
			foundClientEdge = true
		}
		if strings.HasPrefix(e.From, "s") {
			t.Errorf("server %s has a singular cross-node edge to %s", e.From, e.To)
		}
	}
	if !foundClientEdge {
		t.Error("no client->leader red edge")
	}
	// All nine servers and the per-shard clients appear.
	if len(g.Nodes) < 10 {
		t.Errorf("SPG nodes = %v", g.Nodes)
	}
}

func TestOpToCommandMapping(t *testing.T) {
	if cmd := opToCommand(ycsb.Op{Type: ycsb.Read, Key: "k"}); cmd.Op != kv.OpGet {
		t.Errorf("read -> %v", cmd.Op)
	}
	if cmd := opToCommand(ycsb.Op{Type: ycsb.Update, Key: "k", Value: []byte("v")}); cmd.Op != kv.OpPut {
		t.Errorf("update -> %v", cmd.Op)
	}
	if cmd := opToCommand(ycsb.Op{Type: ycsb.Scan, Key: "k", ScanLen: 3}); cmd.Op != kv.OpScan || cmd.ScanLen != 3 {
		t.Errorf("scan -> %+v", cmd)
	}
}

func TestTransientDepFastFlat(t *testing.T) {
	sc := transientScenario(shortOpts(), DepFastRaft)
	for i := 1; i <= 3; i++ {
		sc.Phases[i].For = 800 * time.Millisecond
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	before, during, after := res.Phase("before"), res.Phase("fault"), res.Phase("after")
	if before.To-before.From != 8 || during.From != before.To || after.To-after.From != 8 {
		t.Fatalf("phase slice ranges: before [%d,%d) fault [%d,%d) after [%d,%d)",
			before.From, before.To, during.From, during.To, after.From, after.To)
	}
	if before.All.Tput <= 0 || during.All.Tput <= 0 || after.All.Tput <= 0 {
		t.Fatalf("phases = %v %v %v", before.All.Tput, during.All.Tput, after.All.Tput)
	}
	// DepFastRaft: the transient fault must not crater throughput.
	if during.All.Tput < before.All.Tput*0.6 {
		t.Errorf("throughput cratered during transient fault: %0.f -> %0.f", before.All.Tput, during.All.Tput)
	}
	// Fault marks cover exactly the middle windows of the timeline.
	out := renderTransient(res, 4)
	var marks []bool
	for _, line := range strings.Split(out, "\n")[2:] {
		if strings.TrimSpace(line) != "" {
			marks = append(marks, strings.Contains(line, "*"))
		}
	}
	want := []bool{false, false, true, true, false, false}
	if len(marks) != len(want) {
		t.Fatalf("timeline windows = %d, want %d:\n%s", len(marks), len(want), out)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("window %d fault mark = %v:\n%s", i, marks[i], out)
		}
	}
	if evs := faultEvents(res.Recorder); len(evs) != 2 || !strings.HasPrefix(evs[0], "fault.injected") || !strings.HasPrefix(evs[1], "fault.cleared") {
		t.Errorf("fault events = %v", evs)
	}
	t.Logf("\n%s", out)
}

func rowNamed(t *testing.T, name string) Row {
	t.Helper()
	for _, r := range Rows {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no row %q", name)
	return Row{}
}

// runCells runs the cells of row whose names keep accepts, in order.
func runCells(t *testing.T, row string, o Options, keep func(name string) bool) []Result {
	t.Helper()
	r := rowNamed(t, row)
	var cells []Scenario
	for _, sc := range r.Cells(o) {
		if keep(sc.Name) {
			cells = append(cells, sc)
		}
	}
	var rs []Result
	for _, sc := range cells {
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, res)
	}
	return rs
}

func TestSweepRow(t *testing.T) {
	o := shortOpts()
	o.Duration = 500 * time.Millisecond
	rs := runCells(t, "sweep", o, func(n string) bool { return n == "sweep/4" || n == "sweep/16" })
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	// More clients => at least as much throughput (closed loop, below
	// saturation) within generous noise.
	lo, hi := rs[0].Phase("measure").All.Tput, rs[1].Phase("measure").All.Tput
	if hi < lo*0.8 {
		t.Errorf("sweep not monotone-ish: %v -> %v", lo, hi)
	}
	out := rowNamed(t, "sweep").Report(o, rs).Text
	if !strings.Contains(out, "clients") || !strings.Contains(out, "\n      16 ") {
		t.Errorf("render: %s", out)
	}
	t.Logf("\n%s", out)
}

func TestIntensitySweepShape(t *testing.T) {
	o := shortOpts()
	o.Duration, o.Warmup = 700*time.Millisecond, 300*time.Millisecond
	rs := runCells(t, "intensity", o, func(n string) bool {
		p := strings.Split(n, "/")
		return (p[1] == "DepFastRaft" || p[1] == "CallbackRSM") && (p[2] == "base" || p[2] == "10ms" || p[2] == "80ms")
	})
	if len(rs) != 6 {
		t.Fatalf("cells = %d, want 2 systems x (base + 2 delays)", len(rs))
	}
	// Cells are system-major: a base cell, then one per delay.
	norm := func(sys, delay int) float64 {
		return rs[sys*3+1+delay].Phase("measure").All.Tput / rs[sys*3].Phase("measure").All.Tput
	}
	df, cb := [2]float64{norm(0, 0), norm(0, 1)}, [2]float64{norm(1, 0), norm(1, 1)}
	// DepFastRaft stays near 1.0 even at the heaviest delay.
	if df[1] < 0.85 {
		t.Errorf("DepFastRaft degraded to %.2f at 80ms", df[1])
	}
	// CallbackRSM's curve bends with magnitude: worse at 80ms than 10ms,
	// and clearly below DepFastRaft at the heavy end.
	if cb[1] > cb[0]+0.1 {
		t.Errorf("CallbackRSM curve not monotone-ish: %.2f @10ms vs %.2f @80ms", cb[0], cb[1])
	}
	if cb[1] > df[1]-0.1 {
		t.Errorf("no separation at heavy delay: cb=%.2f df=%.2f", cb[1], df[1])
	}
	if rs[5].Injected[0].Scale != 2 {
		t.Errorf("80ms cell injected at scale %v, want 2x the 40ms NIC delay", rs[5].Injected[0].Scale)
	}
	out := figureReport("intensity", []string{"DepFastRaft", "CallbackRSM"}, []string{"no delay", "10ms", "80ms"}, rs, true, "").Text
	if !strings.Contains(out, "10ms") || !strings.Contains(out, "DepFastRaft") {
		t.Errorf("render:\n%s", out)
	}
	t.Logf("\n%s", out)
}

func TestVerifySystemsContrast(t *testing.T) {
	o := shortOpts()
	o.Clients = 12
	rs := runCells(t, "verify", o, func(n string) bool { return n == "verify/DepFastRaft" || n == "verify/CallbackRSM" })
	rep := verifyReport(o, rs)
	// The row's own gates are the contrast: DepFastRaft passes,
	// CallbackRSM's all-replica flow-control wait is flagged.
	if len(rs) != 2 || len(rep.Failed) != 0 {
		t.Errorf("verify gates over %d systems: %v", len(rs), rep.Failed)
	}
	if g := trace.BuildSPG(rs[0].Collector.Records()); len(g.QuorumEdges()) == 0 {
		t.Error("DepFastRaft produced no quorum edges")
	}
	if !strings.Contains(rep.Text, "PASS") || !strings.Contains(rep.Text, "FAIL") {
		t.Errorf("render: %s", rep.Text)
	}
	t.Logf("\n%s", rep.Text)
}

// fastSentinel speeds the sentinel up to test cadence.
func fastSentinel(rc *raft.Config) {
	rc.Mitigate = mitigate.Config{
		Interval:         15 * time.Millisecond,
		MinQuarantine:    150 * time.Millisecond,
		TransferCooldown: time.Second,
	}
}

// shortMitigation is the mitigation row's scenario at test scale.
func shortMitigation(sentinel bool, fault failslow.Fault, on Role, rec *obs.Recorder) Scenario {
	sc := mitigationScenario(Options{Recorder: rec}, "test", sentinel, fault, on)
	sc.Load = Load{Clients: 24, Records: 500}
	sc.Topology.Raft = func(rc *raft.Config) { rc.Mitigation = sentinel; fastSentinel(rc) }
	for i, d := range []time.Duration{300 * time.Millisecond, 600 * time.Millisecond, time.Second, time.Second} {
		sc.Phases[i].For = d
	}
	return sc
}

// TestMitigationLeaderCPUSlowRecovery is the sentinel acceptance
// experiment: with the sentinel on, steady-state throughput under a
// leader CPU-slow fault must recover to at least 2x the unmitigated
// level after detection, because the sentinel hands leadership to a
// healthy peer while the unmitigated cluster keeps limping behind its
// slow leader.
func TestMitigationLeaderCPUSlowRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("mitigation experiment is seconds-long")
	}
	// The contrast is large (CPU-slow stretches leader compute 20x), but
	// a noisy host can disturb a window; allow one retry of the pair.
	var off, on Result
	post := func(r Result) float64 { return r.Phase("post-window").All.Tput }
	for attempt := 0; attempt < 2; attempt++ {
		var err error
		if off, err = Run(shortMitigation(false, failslow.CPUSlow, Leader, nil)); err != nil {
			t.Fatal(err)
		}
		if on, err = Run(shortMitigation(true, failslow.CPUSlow, Leader, nil)); err != nil {
			t.Fatal(err)
		}
		t.Logf("attempt %d:\n  %s\n  %s", attempt, off, on)
		if post(on) >= 2*post(off) {
			break
		}
	}
	if leaderMoved(off, "clear") {
		t.Errorf("unmitigated leader moved; contrast run invalid")
	}
	if !leaderMoved(on, "clear") {
		t.Errorf("mitigated run: leadership never left the CPU-slow node")
	}
	if on.Sentinel.Transfers < 1 {
		t.Errorf("mitigated run: transfers = %d, want >= 1 (handoff must be sentinel-initiated)", on.Sentinel.Transfers)
	}
	if post(on) < 2*post(off) {
		t.Errorf("post-fault throughput %.0f op/s with mitigation, %.0f without; want >= 2x", post(on), post(off))
	}
	if on.Audit.Lin.Verdict != LinOK || len(on.Audit.Lost) != 0 || len(off.Audit.Lost) != 0 {
		t.Errorf("audit: on %+v off %+v", on.Audit, off.Audit)
	}
}

// TestMitigationFollowerQuarantineRehabilitation: the follower path —
// a net-slow follower is quarantined, and after the fault clears it is
// rehabilitated back into quorum accounting (no quarantine left, a
// release counted).
func TestMitigationFollowerQuarantineRehabilitation(t *testing.T) {
	if testing.Short() {
		t.Skip("mitigation experiment is seconds-long")
	}
	sc := shortMitigation(true, failslow.NetSlow, Follower, nil)
	sc.Phases[2].For = 1500 * time.Millisecond
	sc.Phases[4].Timeout = 15 * time.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.Sentinel.QuarantinesEntered < 1 {
		t.Fatalf("quarantines entered = %d, want >= 1", res.Sentinel.QuarantinesEntered)
	}
	if !rehabilitated(res) {
		t.Fatalf("follower not rehabilitated after fault cleared: %+v", res.Sentinel)
	}
	if res.Sentinel.Quarantined != 0 {
		t.Fatalf("quarantine set not empty at end: %+v", res.Sentinel)
	}
	// Quorum kept running without the quarantined follower.
	if res.Phase("post-window").All.Tput <= 0 {
		t.Fatalf("no throughput during quarantine window")
	}
}

// eventIndex returns the index of the first event in evs matching
// pred, or -1.
func eventIndex(evs []obs.Event, pred func(obs.Event) bool) int {
	for i, e := range evs {
		if pred(e) {
			return i
		}
	}
	return -1
}

// TestFlightRecorderSlowLeaderTimeline is the acceptance test for the
// flight recorder end to end: a mitigated leader CPU-slow run with a
// recorder attached must leave (a) the ordered mitigation story —
// injection, then a self-verdict, then the drained handoff, then its
// completion — on the recorder, (b) non-zero MTTD and MTTR both on
// the run result and re-derived from a JSONL round trip of the
// events, and (c) a populated per-stage commit-latency breakdown in
// the rendered report — plus a bucketed timeline with rates and the
// injection mark.
func TestFlightRecorderSlowLeaderTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("mitigation experiment is seconds-long")
	}
	rec := obs.NewRecorder(0)
	sc := shortMitigation(true, failslow.CPUSlow, Leader, rec)
	sc.Phases = sc.Phases[:4] // no clear: the fault outlives the phases

	// Timing-sensitive on a noisy host: allow retries, keep the last.
	var res Result
	for attempt := 0; attempt < 3; attempt++ {
		rec.Reset()
		var err error
		if res, err = Run(sc); err != nil {
			t.Fatal(err)
		}
		t.Logf("attempt %d: %s", attempt, res)
		if res.MTTD > 0 && res.MTTR > 0 {
			break
		}
	}
	if res.MTTD <= 0 {
		t.Fatalf("MTTD = %v, want > 0 (detection never recorded)", res.MTTD)
	}
	if res.MTTR <= 0 {
		t.Fatalf("MTTR = %v, want > 0 (recovery never recorded)", res.MTTR)
	}

	// (a) Ordered mitigation story. Events() is emission-ordered; the
	// faulted node is named by the injection event.
	evs := rec.Events()
	iInj := eventIndex(evs, func(e obs.Event) bool { return e.Type == obs.FaultInjected })
	if iInj < 0 {
		t.Fatal("no injection event recorded")
	}
	faulted := evs[iInj].Node
	if faulted != res.Injected[0].Node {
		t.Fatalf("injection event names %s, result %s", faulted, res.Injected[0].Node)
	}
	iVerdict := eventIndex(evs, func(e obs.Event) bool { return e.Type == obs.VerdictSuspect && e.Peer == faulted })
	iDrain := eventIndex(evs, func(e obs.Event) bool { return e.Type == obs.HandoffDrained && e.Node == faulted })
	iDone := eventIndex(evs, func(e obs.Event) bool {
		return e.Type == obs.HandoffCompleted && e.Node == faulted && e.Detail == ""
	})
	if iVerdict < 0 || iDrain < 0 || iDone < 0 || !(iInj < iVerdict && iVerdict < iDrain && iDrain < iDone) {
		t.Fatalf("mitigation events missing or out of order: inj=%d verdict=%d drain=%d done=%d\n%s",
			iInj, iVerdict, iDrain, iDone, obs.RenderEvents(evs, obs.CommitSpan, obs.GaugeSample))
	}
	// The pipeline and the gauge sampler both published.
	if eventIndex(evs, func(e obs.Event) bool { return e.Type == obs.CommitSpan }) < 0 {
		t.Fatal("no commit-pipeline spans recorded")
	}
	if eventIndex(evs, func(e obs.Event) bool { return e.Type == obs.GaugeSample }) < 0 {
		t.Fatal("no gauge samples recorded")
	}

	// (b) JSONL round trip, then re-derive the report offline — the
	// depfast-bench -timeline | depfast-report path without the CLIs.
	var buf bytes.Buffer
	if err := obs.WriteRecorderJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	back, dropped, _, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || len(back) != len(evs) {
		t.Fatalf("round trip: dropped %d, %d -> %d events", dropped, len(evs), len(back))
	}
	rep := obs.Analyze(back)
	if len(rep.Faults) != 1 {
		t.Fatalf("analyzed faults = %d, want 1", len(rep.Faults))
	}
	f := rep.Faults[0]
	if f.Node != faulted {
		t.Fatalf("fault attributed to %s, want %s", f.Node, faulted)
	}
	// (JSONL keeps microseconds; the live result has the full clock.)
	if d := f.MTTD() - res.MTTD; f.MTTD() <= 0 || f.MTTR() <= 0 || d > time.Microsecond || d < -time.Microsecond {
		t.Fatalf("offline MTTD=%v MTTR=%v, result %v/%v", f.MTTD(), f.MTTR(), res.MTTD, res.MTTR)
	}
	// (c) Stage breakdown: spans on both sides of the fault.
	if f.Before.Spans == 0 || f.During.Spans == 0 {
		t.Fatalf("stage windows empty: before=%d during=%d", f.Before.Spans, f.During.Spans)
	}
	out := rep.Render()
	for _, want := range []string{"MTTD", "MTTR", "before", "during", "quorum", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	t.Logf("\n%s", out)

	// The bucketed timeline built from the same record has buckets,
	// rates, and the injection mark.
	tl := obs.BuildTimeline(evs, 0)
	if len(tl.Buckets) < 3 {
		t.Fatalf("timeline buckets = %d, want >= 3", len(tl.Buckets))
	}
	sawRate := false
	for _, b := range tl.Buckets {
		sawRate = sawRate || b.Rate > 0
	}
	if !sawRate {
		t.Fatal("no bucket carries a positive rate")
	}
	if !strings.Contains(tl.Render(), "fault.injected") {
		t.Fatalf("timeline render missing injection mark:\n%s", tl.Render())
	}
}

// TestRunReplacement is the replacement acceptance experiment: a
// fail-slow follower is detected, quarantined, condemned, removed, and
// a spare joins as a learner and is promoted — returning the cluster
// to full replication factor with zero acknowledged-write loss,
// steady-state throughput within 10% of baseline, and the whole
// sequence captured as ordered flight-recorder events.
func TestRunReplacement(t *testing.T) {
	if testing.Short() {
		t.Skip("replacement experiment is seconds-long")
	}
	var res Result
	var rep Report
	var pre, post float64
	for attempt := 0; attempt < 2; attempt++ {
		sc := replaceScenario(Options{})
		sc.Load = Load{Clients: 24, Records: 500}
		replaceKnobs := sc.Topology.Raft
		sc.Topology.Raft = func(rc *raft.Config) {
			replaceKnobs(rc)
			rc.Mitigate.Interval = 15 * time.Millisecond
			rc.Mitigate.MinQuarantine = 150 * time.Millisecond
			rc.Mitigate.TransferCooldown = time.Second
		}
		sc.Phases[0].For, sc.Phases[1].For, sc.Phases[4].For = 300*time.Millisecond, 600*time.Millisecond, time.Second
		var err error
		if res, err = Run(sc); err != nil {
			t.Fatal(err)
		}
		t.Logf("attempt %d: %s", attempt, res)
		// Correctness must hold every attempt; only the throughput
		// window is allowed a retry on a noisy host.
		if rep = replaceReport(Options{}, []Result{res}); len(rep.Failed) != 0 || len(res.Audit.Lost) != 0 {
			t.Fatalf("replace gates: %v, lost %v of %d acked\n%s", rep.Failed, res.Audit.Lost, res.Audit.Acked, rep.Text)
		}
		if pre, post = res.Phase("pre-window").All.Tput, res.Phase("post-window").All.Tput; post >= 0.9*pre {
			break
		}
	}

	faulted, spare := res.Injected[0].Node, "s4"
	if res.Audit.Acked == 0 {
		t.Error("auditor acknowledged no writes")
	}
	if faulted == res.Leader || faulted == spare {
		t.Errorf("faulted node %q should be a follower", faulted)
	}
	if got := strings.Join(res.Audit.Converge[0].Voters, ","); strings.Contains(got, faulted) || !strings.Contains(got, spare) || len(res.Audit.Converge[0].Voters) != 3 {
		t.Errorf("final voters %v: want %s gone and %s in", res.Audit.Converge[0].Voters, faulted, spare)
	}
	if post < 0.9*pre {
		if race.Enabled {
			t.Logf("post-replacement throughput %.0f op/s < 0.9x baseline %.0f op/s (tolerated under -race)", post, pre)
		} else {
			t.Errorf("post-replacement throughput %.0f op/s < 0.9x baseline %.0f op/s", post, pre)
		}
	}
	if res.MTTD <= 0 {
		t.Error("MTTD not derived from the recorder")
	}
	if rep.Derived["replaced_in_ms"] <= 0 {
		t.Error("replacement latency not derived from the recorder")
	}

	// The full sequence, in order, on one timeline.
	want := []string{"fault-injected", "quarantined", "removed", "learner-joined", "caught-up", "promoted", "completed"}
	var seq []time.Time
	for _, ev := range res.Recorder.Events() {
		var hit bool
		switch len(seq) {
		case 0:
			hit = ev.Type == obs.FaultInjected && ev.Node == faulted
		case 1:
			hit = ev.Type == obs.QuarantineEnter && ev.Peer == faulted
		case 2:
			hit = ev.Type == obs.MemberRemoved && ev.Peer == faulted
		case 3:
			hit = ev.Type == obs.MemberAdded && ev.Peer == spare && ev.Detail == "learner"
		case 4:
			hit = ev.Type == obs.LearnerCaughtUp && ev.Peer == spare
		case 5:
			hit = ev.Type == obs.MemberAdded && ev.Peer == spare && ev.Detail == "voter"
		case 6:
			hit = ev.Type == obs.ReplacementCompleted && ev.Peer == faulted
		}
		if hit {
			seq = append(seq, ev.Time)
		}
	}
	if len(seq) != len(want) {
		t.Fatalf("event sequence incomplete: reached %v of %v", want[:len(seq)], want)
	}
	for i := 1; i < len(seq); i++ {
		if seq[i].Before(seq[i-1]) {
			t.Errorf("event %s at %v precedes %s at %v", want[i], seq[i], want[i-1], seq[i-1])
		}
	}
}

// TestShardedContainmentAndRecovery is the containment acceptance
// experiment: disk slowness injected into one shard's leader must stay
// contained — the healthy shards' aggregate throughput holds at >= 80%
// of their pre-injection baseline over the whole injection window —
// while the slow shard visibly degrades and then recovers through its
// own sentinel's drained handoff. The unified timeline must show the
// fault, detection, and mitigation tagged with the slow shard's ID and
// nothing mitigation-related on any healthy shard.
func TestShardedContainmentAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded containment experiment is seconds-long")
	}
	sc := shardScenario(Options{Quick: true})
	// Moderate sentinel cadence: detection takes a few ticks, so the
	// slow shard shows a real degradation trough before the handoff —
	// while the healthy shards must still ride through untouched.
	sc.Topology.Raft = func(rc *raft.Config) {
		rc.Mitigation = true
		rc.Mitigate = mitigate.Config{Interval: 40 * time.Millisecond, MinQuarantine: 150 * time.Millisecond, TransferCooldown: time.Second}
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep := shardReport(Options{}, []Result{res})
	t.Logf("\n%s", rep.Text)
	containment, trough, recovery, cross := rep.Derived["containment"], rep.Derived["slow_trough"],
		rep.Derived["slow_recovery"], rep.Derived["cross_shard_actions"]
	slow := res.Injected[0].Group

	// Containment: healthy shards ride through the entire injection
	// window at >= 80% of their own baseline; no sentinel action fires
	// outside the slow group. Both are the row's gates.
	if len(rep.Failed) != 0 || containment < 0.8 || cross != 0 {
		t.Errorf("shard gates: %v (containment %.2f, cross-shard %.0f)", rep.Failed, containment, cross)
	}
	// The fault actually bit: the sentinel now recovers so fast that a
	// whole-window average hides the trough, so it is read off the
	// timeline — the slow shard's worst slice inside the injection phase
	// against its pre-fault mean...
	if trough >= 0.9 {
		t.Errorf("slow shard's worst injection-window slice held %.2fx of baseline; fault did not bite", trough)
	}
	// ...and recovered once its sentinel moved leadership off the slow
	// disk.
	if !leaderMoved(res, "clear") {
		t.Errorf("leadership never left the disk-slow node %s", res.Injected[0].Node)
	}
	if res.Groups[slow].Transfers < 1 {
		t.Errorf("transfers = %d, want >= 1 (recovery must be sentinel-initiated)", res.Groups[slow].Transfers)
	}
	if recovery < 0.5 {
		t.Errorf("slow shard recovered to %.2fx of baseline, want >= 0.5", recovery)
	}
	if res.MTTD <= 0 {
		t.Errorf("MTTD not derived from the slow shard's event stream")
	}

	// The unified timeline carries the shard tag end to end: the slow
	// shard's slice holds the fault and the mitigation; every healthy
	// shard's slice holds neither.
	events := res.Recorder.Events()
	mitigationTypes := map[obs.Type]bool{
		obs.FaultInjected: true, obs.FaultCleared: true,
		obs.VerdictSuspect: true, obs.HandoffStarted: true,
		obs.HandoffDrained: true, obs.HandoffCompleted: true,
		obs.QuarantineEnter: true, obs.QuarantineExit: true,
	}
	slowSeen := map[obs.Type]bool{}
	for _, ev := range obs.FilterShard(events, res.Groups[slow].ID) {
		slowSeen[ev.Type] = slowSeen[ev.Type] || mitigationTypes[ev.Type]
	}
	if !slowSeen[obs.FaultInjected] {
		t.Errorf("slow shard slice missing %s", obs.FaultInjected)
	}
	if !slowSeen[obs.HandoffStarted] && !slowSeen[obs.QuarantineEnter] {
		t.Errorf("slow shard slice shows no mitigation (saw %v)", slowSeen)
	}
	for g, grp := range res.Groups {
		if g == slow {
			continue
		}
		for _, ev := range obs.FilterShard(events, grp.ID) {
			if mitigationTypes[ev.Type] {
				t.Errorf("healthy shard %s tagged with mitigation event %s (node %s)", grp.ID, ev.Type, ev.Node)
			}
		}
		// Healthy shards kept serving: their per-shard windows exist.
		if pre, inj := res.Phase("pre-window").Groups[g].All.Tput, res.Phase("inject-window").Groups[g].All.Tput; pre <= 0 || inj <= 0 {
			t.Errorf("healthy shard %s produced no throughput: pre %.0f inj %.0f", grp.ID, pre, inj)
		}
	}
}

// TestTraceExperimentAttribution runs the scripted leader-disk fault
// and checks the tracing plane end to end: traces are kept, the frozen
// deadline promotes a tail, and the critical-path attribution blames
// the injected (leader, disk) pair. The threshold here is deliberately
// looser than the CI trace-smoke gate (90%) so scheduler noise on a
// loaded test machine does not flake the tier-1 suite; the overhead
// ratio is CI trace-smoke's concern.
func TestTraceExperimentAttribution(t *testing.T) {
	res, err := Run(traceCells(Options{})[0])
	if err != nil {
		t.Fatal(err)
	}
	kept, tail, matched, att := traceNumbers(res)
	t.Logf("kept=%d tail=%d matched=%d\n%s", kept, tail, matched, att.Render())
	if kept == 0 {
		t.Fatal("collector kept no traces under load")
	}
	if tail == 0 {
		t.Fatal("frozen deadline promoted no traces despite an injected fault")
	}
	if frac := float64(matched) / float64(tail); frac < 0.7 {
		t.Fatalf("only %.0f%% of promoted traces blame (leader, disk); want >= 70%%", frac*100)
	}
	if top := att.Top(); top.Node != res.Injected[0].Node || top.Res != xtrace.Disk {
		t.Fatalf("aggregate top blame is (%s, %s); injected fault was (%s, disk)", top.Node, top.Res, res.Injected[0].Node)
	}
	if res.Injected[0].Node != res.Phase("measure").Leaders[0] {
		t.Fatalf("fault landed on %s, leader was %s", res.Injected[0].Node, res.Phase("measure").Leaders[0])
	}
}

// TestHedgeChaosLinearizable is the speculation-safety chaos test:
// hedged reads and speculative write re-proposals race their primaries
// under an asymmetric one-way-delay schedule (bursty leader→client
// delay, server links healthy), and the recorded history must stay
// linearizable with no acked write lost. It also asserts the
// episode's defining property — the server-side plane never noticed.
func TestHedgeChaosLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	sc := hedgeScenario(Options{Quick: true})
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep := hedgeReport(Options{}, []Result{res})
	t.Logf("\n%s", rep.Text)
	if res.Audit.Lin.Verdict == LinViolation {
		t.Fatalf("hedged history NOT linearizable (key %q, %d ops)", res.Audit.Lin.Key, res.Audit.Lin.Ops)
	}
	if len(res.Audit.Lost) != 0 {
		t.Fatalf("acked-write loss: %v", res.Audit.Lost)
	}
	// The closing reads of both counters are in the history, so a
	// regressed counter would have failed the check above.
	closing := 0
	for _, op := range res.Audit.History {
		if op.Client == "closing" && strings.HasPrefix(op.Key, "hedge-w") && !op.Maybe {
			closing++
		}
	}
	if closing != hedgeWriters {
		t.Fatalf("closing reads of the writer counters = %d, want %d", closing, hedgeWriters)
	}
	fired, won := rep.Derived["fired"], rep.Derived["won"]
	if fired == 0 {
		t.Fatal("episode fired no hedges; the experiment exercised nothing")
	}
	if won == 0 {
		t.Fatalf("no hedge won (%.0f fired); follower reads never dodged the slow link", fired)
	}
	// Speculation off means off: only requests already in flight when
	// the phase began (at most one per hedge client) may still fire.
	var unhedged []obs.Event
	for _, ev := range res.Recorder.Events() {
		if !ev.Time.Before(res.Phase("episode-unhedged").At) && ev.Time.Before(res.Phase("episode-hedged").At) {
			unhedged = append(unhedged, ev)
		}
	}
	if off := obs.SummarizeHedges(unhedged).Fired; off > sc.Load.HedgeReaders+hedgeWriters {
		t.Fatalf("%d hedges fired with speculation off", off)
	}
	// The injected delay must stay below the server-side detector's
	// horizon: zero suspicion verdicts, zero extra elections.
	if n := rep.Derived["suspects"]; n != 0 {
		t.Fatalf("server-side detector raised %.0f suspicions; episode was not sub-threshold", n)
	}
	if res.Elections != 0 {
		t.Fatalf("%d elections during the episode; fault leaked into the consensus plane", res.Elections)
	}
	// Budget bound by construction: fired ≤ ratio × requests + burst.
	var reqs int64
	for _, p := range res.Phases[1:] {
		reqs += p.All.Ops
	}
	if limit := HedgeBudgetRatio*float64(reqs)*1.5 + HedgeBudgetBurst; fired > limit {
		t.Fatalf("fired %.0f hedges over ~%d requests; budget bound breached (cap %.0f)", fired, reqs, limit)
	}
}
