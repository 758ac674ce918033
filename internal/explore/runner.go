package explore

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/failslow"
	"depfast/internal/harness"
	"depfast/internal/obs"
	"depfast/internal/raft"
	"depfast/internal/rpc"
)

// RunnerConfig parameterizes how one schedule is executed.
type RunnerConfig struct {
	// StepDur is the wall-clock length of one logical step (0 = 80ms).
	StepDur time.Duration
	// AuditClients is the register-key client population whose
	// operation history feeds the linearizability check; Keys is the
	// register-key count they contend on (0 = 3 of each).
	AuditClients int
	Keys         int
	// ConvergeWait bounds the post-run wait for a terminal healthy
	// configuration (0 = 10s).
	ConvergeWait time.Duration
	// Broken swaps in a deliberately mis-tuned sentinel (hair-trigger
	// quarantine, hysteresis disabled, condemnation without
	// replacement) — the self-test target the explorer must catch.
	Broken bool
}

// churnWait bounds the membership-change pipeline of a churn event.
const churnWait = 10 * time.Second

// Verdict is the outcome of running one schedule: the invariant
// checks, their supporting numbers, and enough identity (the spec) to
// replay the run.
type Verdict struct {
	Schedule Schedule
	Spec     string
	Pass     bool
	// Failures lists every violated invariant, one line each.
	Failures []string

	// Audit is the engine's closing audit: the history's
	// linearizability, acked-write survival, per-group convergence.
	harness.Audit
	Churned bool

	// Transitions tallies the sentinel state transitions this schedule
	// exercised (quarantine, rehab, handoff, condemn, replace) — the
	// explorer's coverage signal: a budget that never drives the
	// sentinel through a transition is not testing that transition.
	Transitions map[string]int

	Elapsed time.Duration // whole run
}

// String renders a one-line verdict.
func (v Verdict) String() string {
	if v.Pass {
		return fmt.Sprintf("PASS %-10s ops=%-4d acked=%-4d states=%-6d %s",
			v.Schedule.Class, v.Ops, v.Acked, v.Lin.States, v.Spec)
	}
	return fmt.Sprintf("FAIL %-10s %s\n     %v", v.Schedule.Class, v.Spec, v.Failures)
}

// compile turns a schedule into a scenario for the harness engine: the
// topology (a 3-replica raft group plus the standby spare churn
// targets, or the sharded 2×3 deployment), the audit population as the
// only load, and one phase per logical step — each first clearing the
// events whose window ends there, then injecting the events that start
// there. A churn event starts its membership change from the step's
// hook and appends a phase that heals the faults, stops the load and
// waits the change out; the returned driver reports its outcome (nil without churn).
// The same spec always compiles to the same scenario — the replay
// contract.
func compile(s Schedule, cfg RunnerConfig) (harness.Scenario, *churnDriver) {
	cfg.StepDur = cmp.Or(max(cfg.StepDur, 0), 80*time.Millisecond)
	cfg.AuditClients, cfg.Keys = cmp.Or(max(cfg.AuditClients, 0), 3), cmp.Or(max(cfg.Keys, 0), 3)
	sc := harness.Scenario{
		Name:         s.Spec(),
		Seed:         s.Seed,
		Topology:     harness.Topology{Spare: true, Raft: quickRaft(cfg.Broken)},
		Load:         harness.Load{Records: 600, Auditors: cfg.AuditClients, Keys: cfg.Keys},
		ConvergeWait: cfg.ConvergeWait,
	}
	if s.Topo == TopoShard {
		sc.Topology.Spare, sc.Topology.Groups = false, len(shardNodes)
	}
	var churn *churnDriver
	for step := 0; step < s.Steps; step++ {
		ph := harness.Phase{Name: fmt.Sprintf("step-%d", step), For: cfg.StepDur}
		for _, ev := range s.Events {
			for _, n := range ev.Nodes {
				if ev.Until == step && ev.Until > 0 {
					ph.Do = append(ph.Do, harness.Action{Op: harness.Clear, On: harness.Role(n)})
				}
			}
		}
		for _, ev := range s.Events {
			if ev.Step != step {
				continue
			}
			if ev.Kind == FaultChurn {
				churn = &churnDriver{victim: ev.Nodes[0]}
				ph.Call = churn.start
				continue
			}
			for _, n := range ev.Nodes {
				a := harness.Action{Op: harness.Inject, On: harness.Role(n), Fault: kindFault[ev.Kind], Scale: ev.Scale}
				if ev.Kind == FaultAsym {
					a.Op, a.Peer = harness.Asym, harness.Role(ev.Peer)
				}
				ph.Do = append(ph.Do, a)
			}
		}
		sc.Phases = append(sc.Phases, ph)
	}
	if churn != nil {
		// Healed and quiesced first: raft promotes a learner only once it
		// has caught up with the commit index, which a running load keeps
		// moving.
		sc.Phases = append(sc.Phases, harness.Phase{Name: "churn-wait",
			Do: []harness.Action{{Op: harness.Clear}}, Call: (*harness.Live).StopLoad,
			Until: func(*harness.Live) bool { return churn.outcome.Load() != 0 }, Timeout: churnWait + time.Second})
	}
	return sc, churn
}

// Run executes one schedule on the harness engine and checks the run
// invariants: the engine's closing audit (convergence, linearizability,
// zero acked-write loss) plus the explorer's own blast-radius check.
func Run(s Schedule, cfg RunnerConfig) (Verdict, error) {
	if err := s.Validate(); err != nil {
		return Verdict{}, err
	}
	start := time.Now()
	sc, churn := compile(s, cfg)
	res, err := harness.Run(sc)
	if churn != nil {
		churn.close()
	}
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Schedule: s, Spec: s.Spec(), Audit: res.Audit, Churned: churn != nil && churn.outcome.Load() == churnOK}
	for g, c := range v.Converge {
		if !c.Converged {
			v.Failures = append(v.Failures, fmt.Sprintf("convergence(%s): %s", res.Groups[g].ID, c.Reason))
		}
	}

	// Blast radius: every sentinel action must stay inside the faulted
	// groups.
	faulted := make(map[int]bool)
	for _, n := range s.FaultedNodes() {
		faulted[groupOf(n)] = true
	}
	for _, ev := range s.Events {
		if ev.Kind == FaultAsym {
			// The slow *path* implicates the receiver's group too: its
			// leader legitimately observes slow RTTs from the source.
			faulted[groupOf(ev.Peer)] = true
		}
	}
	for g, grp := range res.Groups {
		if actions := grp.QuarantinesEntered + grp.Transfers; s.Topo == TopoShard && !faulted[g] && actions > 0 {
			v.Failures = append(v.Failures, fmt.Sprintf("containment: %d sentinel actions in untargeted %s", actions, grp.ID))
		}
	}
	if v.Lin.Verdict == harness.LinViolation {
		v.Failures = append(v.Failures, fmt.Sprintf("linearizability: key %q has no valid linearization", v.Lin.Key))
	}
	if len(v.Lost) > 0 {
		v.Failures = append(v.Failures, fmt.Sprintf("acked-write loss: %d of %d acked keys missing (first: %s)",
			len(v.Lost), v.Acked, v.Lost[0]))
	}
	v.Elapsed = time.Since(start)
	v.Pass = len(v.Failures) == 0
	v.Transitions = sentinelTransitions(res.Recorder.Events(), res.Start)
	return v, nil
}

// groupOf is the index of the sharded topology's group holding node
// sN (names are group-major; the engine has validated them).
func groupOf(node string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(node, "s"))
	return (n - 1) / len(shardNodes[0])
}

// TransitionKinds is the sentinel-transition coverage vocabulary, in
// escalation order; transitionOf maps the events that witness them.
var (
	TransitionKinds = []string{"quarantine", "rehab", "handoff", "condemn", "replace"}
	transitionOf    = map[obs.Type]string{
		obs.QuarantineEnter: "quarantine", obs.QuarantineExit: "rehab", obs.HandoffStarted: "handoff",
		obs.MemberRemoved: "condemn", obs.ReplacementCompleted: "replace",
	}
)

// sentinelTransitions tallies which sentinel transitions the recorded
// events show, keyed by the TransitionKinds vocabulary. Only events
// stamped at or after start count.
func sentinelTransitions(evs []obs.Event, start time.Time) map[string]int {
	var out map[string]int
	for _, ev := range evs {
		if kind, ok := transitionOf[ev.Type]; ok && !ev.Time.Before(start) {
			if out == nil {
				out = map[string]int{}
			}
			out[kind]++
		}
	}
	return out
}

// quickRaft is the sped-up server config schedules run under: fast
// elections and sentinel ticks so six 80ms steps see detection,
// mitigation, and rehabilitation — or, with broken, the mis-tuned
// sentinel whose condemned peers are never released.
func quickRaft(broken bool) func(*raft.Config) {
	return func(rc *raft.Config) {
		rc.ElectionTimeoutMin = 75 * time.Millisecond
		rc.ElectionTimeoutMax = 150 * time.Millisecond
		rc.HeartbeatInterval = 20 * time.Millisecond
		rc.Mitigation = true
		rc.Mitigate.Interval = 10 * time.Millisecond
		if broken {
			// Hysteresis off: quarantine on the first suspect tick, declare
			// rehabilitation after one healthy RTT, and condemn a peer
			// after 20ms of cumulative quarantine — with no AutoReplace, a
			// condemned peer is quarantined forever. (Zero values would be
			// re-defaulted by mitigate.Config.WithDefaults, hence the tiny
			// positive ones.)
			rc.Mitigate.QuarantineAfter = 1
			rc.Mitigate.RehabRTTs = 1
			rc.Mitigate.MinQuarantine = time.Nanosecond
			rc.Mitigate.SlowBudget = 20 * time.Millisecond
			rc.Mitigate.ReplaceAfterQuarantines = 1
		}
	}
}

// kindFault maps schedule vocabulary onto the Table 1 catalog.
var kindFault = map[FaultKind]failslow.Fault{
	FaultCPU: failslow.CPUSlow, FaultDisk: failslow.DiskSlow, FaultNet: failslow.NetSlow, FaultMem: failslow.MemContention,
}

// churnDriver runs the membership change of a FaultChurn event in the
// background while the schedule keeps stepping: remove the victim,
// join the spare as a learner, promote it once caught up — all while
// whatever faults the schedule holds are still active.
type churnDriver struct {
	victim string
	rt     *core.Runtime
	ep     *rpc.Endpoint
	// outcome is 0 while the change runs (or was never started), then
	// churnOK or churnFailed; the driver enforces its own deadline.
	outcome atomic.Int32
}

const churnOK, churnFailed = 1, 2

// start is the churn step's phase hook: it launches the change against
// the live deployment's single raft group and its spare.
func (d *churnDriver) start(l *harness.Live) {
	const name = "churn-admin"
	net := l.Net()
	d.rt = core.NewRuntime(name)
	d.ep = rpc.NewEndpoint(name, d.rt, net, rpc.WithCallTimeout(2*time.Second))
	net.Register(name, env.New(name, env.DefaultConfig()), d.ep.TransportHandler())
	servers, spare := l.Groups()[0].Servers, l.Spare()
	d.rt.Spawn("churn", func(co *core.Coroutine) {
		if d.run(co, servers, spare) {
			d.outcome.Store(churnOK)
		} else {
			d.outcome.Store(churnFailed)
		}
	})
}

// run drives remove → add-learner → promote with per-stage retries
// until the deadline; each stage re-discovers the leader so handoffs
// and elections mid-churn only cost a retry. A stage first looks at the
// leader's membership: a change whose reply was lost (a slow quorum
// timing the request out) has still been appended, and proposing it
// again must not, say, remove a second voter.
func (d *churnDriver) run(co *core.Coroutine, servers map[string]*raft.Server, spare string) bool {
	deadline := time.Now().Add(churnWait)
	change := func(kind uint64, next func(leader string, voters, learners []string) (node string, done bool)) bool {
		for time.Now().Before(deadline) {
			if leader, ok := raft.AgreedLeader(servers); ok {
				voters, learners := servers[leader].Members()
				node, done := next(leader, voters, learners)
				if done {
					return true
				}
				ev := d.ep.Call(leader, &raft.MemberChange{Kind: kind, Node: node})
				if co.WaitFor(ev, 2*time.Second) == core.WaitReady && ev.Err() == nil {
					if r, _ := ev.Value().(*raft.MemberChangeReply); r != nil && r.OK {
						return true
					}
				}
			}
			if co.Sleep(30*time.Millisecond) != nil {
				return false
			}
		}
		return false
	}
	// Removing the leader itself is refused, so a victim holding the
	// lease is re-targeted to another voter — once: the choice sticks
	// across retries unless that node takes the lease.
	removed := ""
	return change(raft.ConfRemove, func(leader string, voters, _ []string) (string, bool) {
		if removed != "" && !slices.Contains(voters, removed) {
			return "", true
		}
		if removed == "" || removed == leader {
			removed = d.victim
			for _, cand := range voters {
				if removed == leader && cand != leader && cand != spare {
					removed = cand
				}
			}
		}
		return removed, false
	}) && change(raft.ConfAddLearner, func(_ string, voters, learners []string) (string, bool) {
		return spare, slices.Contains(voters, spare) || slices.Contains(learners, spare)
	}) && change(raft.ConfPromote, func(_ string, voters, _ []string) (string, bool) {
		return spare, slices.Contains(voters, spare)
	})
}

// close tears down the admin runtime (a no-op if the schedule never
// reached the churn step).
func (d *churnDriver) close() {
	if d.rt != nil {
		d.ep.Close()
		d.rt.Stop()
	}
}
