package harness

import (
	"errors"
	"slices"
	"testing"
	"time"

	"depfast/internal/failslow"
	"depfast/internal/obs"
	"depfast/internal/raft"
	"depfast/internal/ycsb"
)

// shortOpts is the CI-sized figure cell.
func shortOpts() Options {
	o := DefaultOptions()
	o.Warmup, o.Duration = 200*time.Millisecond, 600*time.Millisecond
	o.Clients, o.Records = 16, 500
	return o
}

// TestRowsValidate: every row of the table, in its full and quick
// form, compiles to scenarios that validate — in particular every
// phase's target role resolves on the row's topology — so a bad row is
// caught without bringing a single cluster up.
func TestRowsValidate(t *testing.T) {
	seen := map[string]bool{}
	for _, row := range Rows {
		if seen[row.Name] {
			t.Errorf("duplicate row %q", row.Name)
		}
		seen[row.Name] = true
		for _, quick := range []bool{false, true} {
			o := DefaultOptions()
			o.Quick = quick
			cells := row.Cells(o)
			if len(cells) == 0 && row.Name != "table1" {
				t.Errorf("row %q (quick=%v) has no cells", row.Name, quick)
			}
			for _, sc := range cells {
				if err := sc.Validate(); err != nil {
					t.Errorf("row %q cell %q: %v", row.Name, sc.Name, err)
				}
				if sc.Name == "" {
					t.Errorf("row %q has an unnamed cell", row.Name)
				}
			}
		}
	}
	if _, err := RunRow("no-such-row", DefaultOptions()); !errors.Is(err, ErrUnknownRow) {
		t.Error("unknown row name accepted")
	}
}

func TestScenarioValidateRejects(t *testing.T) {
	ok := Steady("ok", shortOpts(), DepFastRaft, 3, failslow.NetSlow, 1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	mutate := func(f func(*Scenario)) Scenario {
		sc := Steady("bad", shortOpts(), DepFastRaft, 3, failslow.NetSlow, 1)
		f(&sc)
		return sc
	}
	for name, sc := range map[string]Scenario{
		"no phases":          mutate(func(sc *Scenario) { sc.Phases = nil }),
		"For and Until":      mutate(func(sc *Scenario) { sc.Phases[0].Until = Rehabilitated }),
		"neither":            mutate(func(sc *Scenario) { sc.Phases[0].For = 0 }),
		"Until no Timeout":   mutate(func(sc *Scenario) { sc.Phases[0].For, sc.Phases[0].Until = 0, Rehabilitated }),
		"unnamed phase":      mutate(func(sc *Scenario) { sc.Phases[1].Name = "" }),
		"unknown node":       mutate(func(sc *Scenario) { sc.Phases[0].Do[0].On = "s9" }),
		"follower too far":   mutate(func(sc *Scenario) { sc.Phases[0].Do[0].On = FollowerN(2) }),
		"leader of no group": mutate(func(sc *Scenario) { sc.Phases[0].Do[0].On = LeaderOf(1) }),
		"clients as target":  mutate(func(sc *Scenario) { sc.Phases[0].Do[0].On = Clients }),
		"asym without peer":  mutate(func(sc *Scenario) { sc.Phases[0].Do[0].Op = Asym }),
		"pulse without rest": mutate(func(sc *Scenario) { sc.Phases[0].Do[0].Pulse = time.Millisecond }),
		"baseline spare":     mutate(func(sc *Scenario) { sc.Topology.System, sc.Topology.Spare = SyncRSM, true }),
		"sharded spare":      mutate(func(sc *Scenario) { sc.Topology.Groups, sc.Topology.Spare = 2, true }),
	} {
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The spare is a node of its topology; other groups' nodes are too.
	spare := mutate(func(sc *Scenario) { sc.Topology.Spare = true; sc.Phases[0].Do[0].On = "s4" })
	if err := spare.Validate(); err != nil {
		t.Errorf("spare as a target rejected: %v", err)
	}
}

// TestAuditAlwaysOn: a plain figure-3-style cell asks for no audit and
// gets one anyway — a non-empty linearizable history, acknowledged
// unique-key writes with none lost, and a converged cluster.
func TestAuditAlwaysOn(t *testing.T) {
	res, err := Run(Steady("plain", shortOpts(), DepFastRaft, 3, failslow.NetSlow, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	a := res.Audit
	if a.Ops == 0 || a.Lin.Ops == 0 {
		t.Fatalf("audit history empty: %+v", a)
	}
	if a.Lin.Verdict != LinOK {
		t.Fatalf("history %v (key %q)", a.Lin.Verdict, a.Lin.Key)
	}
	if a.Acked == 0 || len(a.Lost) != 0 {
		t.Fatalf("acked=%d lost=%v, want acked > 0 and lost none", a.Acked, a.Lost)
	}
	if !a.Converged || len(a.Converge) != 1 || len(a.Converge[0].Voters) != 3 {
		t.Fatalf("healed cluster did not converge: %+v", a.Converge)
	}
	if len(res.Injected) != 1 || res.Injected[0].Node == res.Leader {
		t.Fatalf("fault should land on one follower: %+v (leader %s)", res.Injected, res.Leader)
	}
}

// faultEvents lists the recorder's injection/clear events as
// "type node" strings, in order.
func faultEvents(rec *obs.Recorder) []string {
	var out []string
	for _, ev := range rec.Events() {
		if ev.Type == obs.FaultInjected || ev.Type == obs.FaultCleared {
			out = append(out, string(ev.Type)+" "+ev.Node)
		}
	}
	return out
}

// TestFaultsClearedOnEveryExit: whatever path Run leaves by, the
// faults its phases injected are healed — after a normal run, after a
// phase whose Until timed out, and when a later phase's hook panics
// out of the phase loop.
func TestFaultsClearedOnEveryExit(t *testing.T) {
	hold := []Action{{Op: Inject, On: "s1", Fault: failslow.CPUSlow}}
	for name, phases := range map[string][]Phase{
		"normal": {{Name: "hold", For: 200 * time.Millisecond, Do: hold}},
		"until times out": {{Name: "hold", Do: hold,
			Until: func(*Live) bool { return false }, Timeout: 200 * time.Millisecond}},
		"hook panics": {{Name: "hold", For: 200 * time.Millisecond, Do: hold},
			{Name: "boom", For: 100 * time.Millisecond, Call: func(*Live) { panic("boom") }}},
	} {
		var live *Live
		rec := obs.NewRecorder(0)
		phases[0].Call = func(l *Live) { live = l }
		var res Result
		func() {
			defer func() {
				if r := recover(); (r != nil) != (name == "hook panics") {
					t.Fatalf("%s: recovered %v", name, r)
				}
			}()
			var err error
			if res, err = Run(Scenario{Name: name, Seed: 7, Recorder: rec, Phases: phases}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}()
		if live == nil {
			t.Fatalf("%s: phase hook never ran", name)
		}
		for _, script := range live.scripts {
			if n := script.Active(); n != 0 {
				t.Errorf("%s: %d node(s) still faulted after Run returned", name, n)
			}
		}
		evs := faultEvents(rec)
		if len(evs) < 2 || evs[0] != "fault.injected s1" || evs[len(evs)-1] != "fault.cleared s1" {
			t.Errorf("%s: fault events %v, want injection then clearance of s1", name, evs)
		}
		if name == "until times out" && res.Phase("hold").Met {
			t.Errorf("timed-out Until reported as met")
		}
	}
}

func TestTimelineWindows(t *testing.T) {
	t0 := time.Now()
	tl := &timeline{t0: t0, groups: 2}
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tl.record(0, false, at(10), 2*time.Millisecond, nil)
	tl.record(0, true, at(20), 4*time.Millisecond, nil)
	tl.record(1, false, at(150), 6*time.Millisecond, nil)
	tl.record(1, false, at(160), 0, errTest)
	tl.record(0, false, at(250), 8*time.Millisecond, nil)

	all := tl.window(0, 2, -1)
	if all.All.Ops != 3 || all.Reads.Ops != 1 || all.Writes.Ops != 2 || all.Errs != 1 {
		t.Fatalf("window [0,2) = %+v", all)
	}
	if all.All.Tput != 15 { // 3 ops over 200ms
		t.Fatalf("tput = %v, want 15", all.All.Tput)
	}
	// Quantiles come from the log-bucketed histogram: within ~7% below.
	if p99 := all.All.P99; all.All.Mean != 4*time.Millisecond || p99 > 6*time.Millisecond || p99 < 5500*time.Microsecond {
		t.Fatalf("mean/p99 = %v/%v", all.All.Mean, p99)
	}
	if g1 := tl.window(0, 3, 1); g1.All.Ops != 1 || g1.Errs != 1 {
		t.Fatalf("group 1 window = %+v", g1)
	}
	if empty := tl.window(5, 9, -1); empty.All.Ops != 0 || empty.All.Tput != 0 {
		t.Fatalf("window past the end = %+v", empty)
	}
	if sliceCeil(250*time.Millisecond) != 3 || sliceEnd(250*time.Millisecond) != 2 || sliceCeil(200*time.Millisecond) != 2 {
		t.Fatal("slice rounding")
	}
}

var errTest = errors.New("test: failed op")

// TestSaturatedLeaderResumesCommitsAheadOfArrivals: 256 closed-loop
// YCSB-B clients on lease reads keep the leader's runtime thread busy
// all the time, so a request waits out a whole run queue for its first
// turn (runq_us). An update whose quorum is met must not wait out a
// second one: the runtime runs event-woken coroutines ahead of arrivals,
// so wake_us stays a small fraction of runq_us. With a single FIFO the
// two medians are equal.
func TestSaturatedLeaderResumesCommitsAheadOfArrivals(t *testing.T) {
	wl := ycsb.WorkloadB()
	res, err := Run(Scenario{Name: "saturated-leader", Seed: 7,
		Topology: Topology{System: DepFastRaft, Nodes: 3,
			Raft: func(c *raft.Config) { c.ReadIndex, c.LeaderLease = true, true }},
		Load: Load{Clients: 256, Records: 2000, Workload: &wl},
		Phases: []Phase{{Name: "warmup", For: 500 * time.Millisecond},
			{Name: "measure", For: 2 * time.Second}}})
	if err != nil {
		t.Fatal(err)
	}
	var runq, wake []float64
	for _, ev := range res.Recorder.Events() {
		if ev.Type == obs.CommitSpan && ev.Node == res.Leader && !ev.Time.Before(res.Phase("measure").At) {
			runq, wake = append(runq, ev.Field("runq_us")), append(wake, ev.Field("wake_us"))
		}
	}
	if len(runq) < 100 {
		t.Fatalf("only %d commit spans on the leader", len(runq))
	}
	slices.Sort(runq)
	slices.Sort(wake)
	r50, w50 := runq[len(runq)/2], wake[len(wake)/2]
	t.Logf("%d commit spans: runq_us p50 %.0f, wake_us p50 %.0f; %v", len(runq), r50, w50, res.Phase("measure").All)
	if r50 < 1000 {
		t.Fatalf("runq_us p50 = %.0f: the leader was not saturated, the test shows nothing", r50)
	}
	if w50 >= r50/10 {
		t.Fatalf("wake_us p50 = %.0f is not under a tenth of runq_us p50 = %.0f: met quorums queue behind new arrivals", w50, r50)
	}
	if a := res.Audit; a.Lin.Verdict != LinOK || len(a.Lost) != 0 || a.Acked == 0 {
		t.Fatalf("audit: history %v, acked %d, lost %v", a.Lin.Verdict, a.Acked, a.Lost)
	}
}
