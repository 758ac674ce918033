package explore

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"depfast/internal/failslow"
	"depfast/internal/harness"
	"depfast/internal/obs"
)

// quickCfg is the test-scale runner config: short steps, modest audit
// population, bounded waits.
func quickCfg() RunnerConfig {
	return RunnerConfig{
		StepDur:      50 * time.Millisecond,
		AuditClients: 2,
		Keys:         2,
		ConvergeWait: 8 * time.Second,
	}
}

func TestRunRaftSingleFaultHoldsInvariants(t *testing.T) {
	s := Schedule{
		Seed: 1, Topo: TopoRaft, Steps: 4, Class: "single",
		Events: []Event{{Step: 1, Kind: FaultDisk, Nodes: []string{"s2"}, Scale: 1, Until: 3}},
	}
	v, err := Run(s, quickCfg())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.Pass {
		t.Fatalf("healthy sentinel failed invariants: %v\nconverge: %s", v.Failures, v.Converge)
	}
	if v.Ops == 0 {
		t.Fatal("audit population recorded no operations")
	}
	if v.Lin.Verdict == harness.LinViolation {
		t.Fatalf("linearizability: %+v", v.Lin)
	}
	if v.Acked == 0 {
		t.Fatal("unique-key writer acked nothing")
	}
}

func TestRunRaftCorrelatedFault(t *testing.T) {
	// Two replicas degraded at once: quorum runs through the slowness,
	// but acked writes must still survive and linearize.
	s := Schedule{
		Seed: 2, Topo: TopoRaft, Steps: 4, Class: "correlated",
		Events: []Event{{Step: 1, Kind: FaultNet, Nodes: []string{"s2", "s3"}, Scale: 0.5, Until: 2}},
	}
	v, err := Run(s, quickCfg())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.Pass {
		t.Fatalf("correlated fault broke invariants: %v\nconverge: %s", v.Failures, v.Converge)
	}
}

func TestRunRaftChurnOverlappingFault(t *testing.T) {
	s := Schedule{
		Seed: 3, Topo: TopoRaft, Steps: 5, Class: "churn",
		Events: []Event{
			{Step: 0, Kind: FaultCPU, Nodes: []string{"s3"}, Scale: 1}, // held
			{Step: 1, Kind: FaultChurn, Nodes: []string{"s3"}, Scale: 1},
		},
	}
	v, err := Run(s, quickCfg())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.Churned {
		t.Fatalf("membership change did not complete; converge: %s; failures: %v", v.Converge, v.Failures)
	}
	if !v.Pass {
		t.Fatalf("churn schedule broke invariants: %v\nconverge: %s", v.Failures, v.Converge)
	}
}

func TestRunShardContainment(t *testing.T) {
	// Fault one group of the sharded deployment; the untouched group
	// must see zero sentinel activity (blast-radius containment).
	s := Schedule{
		Seed: 4, Topo: TopoShard, Steps: 4, Class: "single",
		Events: []Event{{Step: 1, Kind: FaultDisk, Nodes: []string{"s5"}, Scale: 1, Until: 3}},
	}
	v, err := Run(s, quickCfg())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.Pass {
		t.Fatalf("sharded run broke invariants: %v\nconverge: %s", v.Failures, v.Converge)
	}
	if v.Ops == 0 {
		t.Fatal("router audit recorded no operations")
	}
}

func TestRunAsymmetricFault(t *testing.T) {
	s := Schedule{
		Seed: 5, Topo: TopoRaft, Steps: 4, Class: "asym",
		Events: []Event{{Step: 1, Kind: FaultAsym, Nodes: []string{"s2"}, Peer: "s1", Scale: 1, Until: 3}},
	}
	v, err := Run(s, quickCfg())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !v.Pass {
		t.Fatalf("asym fault broke invariants: %v\nconverge: %s", v.Failures, v.Failures)
	}
}

// TestBrokenSentinelFailsShrinksAndReplays is the acceptance
// self-test: a deliberately mis-tuned sentinel (hair-trigger
// quarantine, no replacement) must yield a failing schedule; that
// failure must shrink to a minimal repro of at most 3 events; and the
// printed replay spec must re-execute to the same verdict.
func TestBrokenSentinelFailsShrinksAndReplays(t *testing.T) {
	cfg := quickCfg()
	cfg.Broken = true
	cfg.ConvergeWait = 2 * time.Second // broken runs fail by timeout; keep probes cheap

	rep, err := Explore(3, 2, 5, cfg, nil)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Passed() {
		t.Fatalf("broken sentinel passed exploration:\n%s", rep)
	}

	// Shrink the first failure whose failure actually reproduces —
	// ShrinkFailure's own gate — so a timing-marginal failure (e.g. a
	// low-intensity pulse that fires most-but-not-all runs) is skipped
	// rather than shrunk into a flaky repro.
	var min Schedule
	var v Verdict
	reproduced := false
	for _, f := range rep.Failures {
		if min, v, reproduced = ShrinkFailure(f.Schedule, cfg); reproduced {
			break
		}
	}
	if !reproduced {
		t.Fatalf("no explored failure reproduced for shrinking:\n%s", rep)
	}
	if v.Pass {
		t.Fatalf("shrunk schedule passes: %s", min.Spec())
	}
	if len(min.Events) > 3 {
		t.Fatalf("shrunk to %d events, want <= 3: %s", len(min.Events), min.Spec())
	}

	// Replay from the printed spec alone.
	back, err := Parse(min.Spec())
	if err != nil {
		t.Fatalf("replay spec unparseable: %v", err)
	}
	rv, err := Run(back, cfg)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if rv.Pass {
		t.Fatalf("replayed spec did not reproduce the failure: %s", min.Spec())
	}
	if !strings.Contains(strings.Join(rv.Failures, "\n"), "convergence") {
		t.Fatalf("expected a convergence violation, got: %v", rv.Failures)
	}
}

func TestExploreSmallBudgetGreen(t *testing.T) {
	cfg := quickCfg()
	rep, err := Explore(1, 2, 4, cfg, nil)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if !rep.Passed() {
		t.Fatalf("healthy exploration failed:\n%s", rep)
	}
	if len(rep.Verdicts) != 2 {
		t.Fatalf("explored %d schedules, want 2", len(rep.Verdicts))
	}
	if rep.SchedulesPerSec() <= 0 {
		t.Fatalf("throughput not measured: %+v", rep)
	}
}

// faultEvents lists a recorder's injection/clear events as "type node
// detail" strings, in order.
func faultEvents(rec *obs.Recorder) []string {
	var out []string
	for _, ev := range rec.Events() {
		if ev.Type == obs.FaultInjected || ev.Type == obs.FaultCleared {
			out = append(out, strings.TrimSpace(string(ev.Type)+" "+ev.Node+" "+ev.Detail))
		}
	}
	return out
}

// TestCompileMatchesHandWrittenScenario: the explorer adds nothing to
// the engine but a compiler. A schedule and the scenario a person
// would write for it have the same phase list, and running either
// leaves the same injected-fault event sequence on the recorder.
func TestCompileMatchesHandWrittenScenario(t *testing.T) {
	s, err := Parse("seed=9 topo=raft steps=4 | disk@1 s2 x1 until=3; asym@1 s3>s1 x2; net@2 s1,s3 x0.5")
	if err != nil {
		t.Fatal(err)
	}
	compiled, churn := compile(s, quickCfg())
	if churn != nil {
		t.Fatal("churn driver for a schedule without churn")
	}
	step := 50 * time.Millisecond
	hand := harness.Scenario{
		Seed:     9,
		Topology: harness.Topology{Spare: true},
		Phases: []harness.Phase{
			{Name: "step-0", For: step},
			{Name: "step-1", For: step, Do: []harness.Action{
				{Op: harness.Inject, On: "s2", Fault: failslow.DiskSlow, Scale: 1},
				{Op: harness.Asym, On: "s3", Peer: "s1", Scale: 2},
			}},
			{Name: "step-2", For: step, Do: []harness.Action{
				{Op: harness.Inject, On: "s1", Fault: failslow.NetSlow, Scale: 0.5},
				{Op: harness.Inject, On: "s3", Fault: failslow.NetSlow, Scale: 0.5},
			}},
			{Name: "step-3", For: step, Do: []harness.Action{{Op: harness.Clear, On: "s2"}}},
		},
	}
	if len(compiled.Phases) != len(hand.Phases) {
		t.Fatalf("compiled %d phases, hand-written %d", len(compiled.Phases), len(hand.Phases))
	}
	for i, ph := range compiled.Phases {
		want := hand.Phases[i]
		if ph.Name != want.Name || ph.For != want.For || ph.Until != nil || ph.Call != nil || !reflect.DeepEqual(ph.Do, want.Do) {
			t.Errorf("phase %d: compiled %+v, hand-written %+v", i, ph, want)
		}
	}

	var seqs [2][]string
	for i, sc := range []harness.Scenario{compiled, hand} {
		sc.Recorder = obs.NewRecorder(0)
		sc.Topology.Raft = compiled.Topology.Raft // same sped-up servers
		if _, err := harness.Run(sc); err != nil {
			t.Fatal(err)
		}
		// The closing heal clears what is still faulted in map order.
		seqs[i] = faultEvents(sc.Recorder)
		sort.Strings(seqs[i][5:])
	}
	if len(seqs[0]) != 7 || !reflect.DeepEqual(seqs[0], seqs[1]) {
		t.Fatalf("fault event sequences differ:\n compiled %v\n by hand  %v", seqs[0], seqs[1])
	}
	for i, want := range []string{
		"fault.injected s2 Disk Slowness", "fault.injected s3 Asymmetric Network Slowness ->s1",
		"fault.injected s1 Network Slowness", "fault.injected s3 Network Slowness", "fault.cleared s2",
	} {
		if seqs[0][i] != want {
			t.Errorf("event %d = %q, want %q (all: %v)", i, seqs[0][i], want, seqs[0])
		}
	}
}

// TestCompileChurnAndShard: a churn event becomes a phase hook plus a
// closing wait phase that first heals every fault; a sharded schedule
// compiles to the 2x3 topology with no spare.
func TestCompileChurnAndShard(t *testing.T) {
	s := Schedule{Seed: 3, Topo: TopoRaft, Steps: 3, Events: []Event{
		{Step: 0, Kind: FaultCPU, Nodes: []string{"s3"}, Scale: 1},
		{Step: 1, Kind: FaultChurn, Nodes: []string{"s3"}, Scale: 1},
	}}
	sc, churn := compile(s, quickCfg())
	if churn == nil || churn.victim != "s3" || sc.Phases[1].Call == nil || len(sc.Phases[1].Do) != 0 {
		t.Fatalf("churn step not compiled to a hook: %+v", sc.Phases[1])
	}
	last := sc.Phases[len(sc.Phases)-1]
	if len(sc.Phases) != 4 || last.Name != "churn-wait" || last.Until == nil || last.Call == nil ||
		!reflect.DeepEqual(last.Do, []harness.Action{{Op: harness.Clear}}) {
		t.Fatalf("churn wait phase: %+v", last)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	shard, _ := compile(Schedule{Seed: 4, Topo: TopoShard, Steps: 2, Events: []Event{
		{Step: 0, Kind: FaultDisk, Nodes: []string{"s5"}, Scale: 1}}}, quickCfg())
	if shard.Topology.Groups != 2 || shard.Topology.Spare {
		t.Fatalf("shard topology: %+v", shard.Topology)
	}
	if err := shard.Validate(); err != nil {
		t.Fatal(err)
	}
	// A node outside the topology is rejected, not silently skipped.
	bad, _ := compile(Schedule{Seed: 4, Topo: TopoRaft, Steps: 2, Events: []Event{
		{Step: 0, Kind: FaultDisk, Nodes: []string{"s7"}, Scale: 1}}}, quickCfg())
	if err := bad.Validate(); err == nil {
		t.Fatal("schedule naming a node outside its topology validated")
	}
}
