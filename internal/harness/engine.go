package harness

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"depfast/internal/clock"
	"depfast/internal/failslow"
	"depfast/internal/obs"
	"depfast/internal/raft"
	"depfast/internal/shard"
	"depfast/internal/trace"
	"depfast/internal/transport"
	"depfast/internal/xtrace"
)

// Result is what every run returns, whatever the scenario.
type Result struct {
	Name   string    `json:"name"`
	System string    `json:"system"`
	Start  time.Time `json:"start"`
	// Leader is group 0's leader when the phases began.
	Leader string `json:"leader"`

	Phases   []PhaseResult `json:"phases"`
	Timeline []Measure     `json:"timeline"` // one per slice
	Injected []Injection   `json:"injected,omitempty"`

	// Groups holds each raft group's closing state and sentinel
	// activity; Sentinel sums them. Both are read when the last phase
	// ends, before the audit heals the cluster.
	Groups   []GroupResult `json:"groups,omitempty"`
	Sentinel Sentinel      `json:"sentinel"`
	// Elections counts elections during the phases.
	Elections int64 `json:"elections"`

	// MTTD/MTTR of the first injected fault, from the flight recorder:
	// injection → first detection event, and injection → first sustained
	// return to the pre-fault throughput baseline (0 = never).
	MTTD time.Duration `json:"mttd_ns"`
	MTTR time.Duration `json:"mttr_ns"`

	LeaderCrashed bool  `json:"leader_crashed,omitempty"`
	Audit         Audit `json:"audit"`

	Recorder  *obs.Recorder     `json:"-"`
	Collector *trace.Collector  `json:"-"` // non-nil when Traced
	XTracer   *xtrace.Collector `json:"-"` // the scenario's
	tl        *timeline
}

// PhaseResult is one phase's measurement: the load over the timeline
// slices that fall wholly inside it.
type PhaseResult struct {
	Name     string    `json:"name"`
	At       time.Time `json:"at"` // when the phase began
	From, To int       // timeline slice range [From, To)
	Measure
	// Met reports an Until condition held before its Timeout.
	Met bool `json:"met,omitempty"`
	// Leaders is every group's leader when the phase began.
	Leaders []string `json:"leaders"`
}

// Injection is one fault the script applied, with its role resolved.
type Injection struct {
	Node  string    `json:"node"`
	Group int       `json:"group"`
	Fault string    `json:"fault"`
	Scale float64   `json:"scale"`
	At    time.Time `json:"at"`
}

// GroupResult is one raft group's sentinel activity when the last
// phase ended (its final leader and voters are in Audit.Converge).
type GroupResult struct {
	ID string `json:"id,omitempty"`
	Sentinel
}

// Audit is the safety verdict every run ends with: the recorded
// history's linearizability (closing reads included), the unique-key
// writer's acknowledged writes against the final state machines, and
// whether the healed cluster converged.
type Audit struct {
	Lin LinReport `json:"lin"`
	// History is the recorded history Lin was checked over.
	History []HOp `json:"-"`
	Ops     int   `json:"ops"`
	Acked   int   `json:"acked"`
	// Lost lists the acked keys missing from a final state machine.
	Lost      []string `json:"lost"`
	Converged bool     `json:"converged"`
	// Converge is each group's convergence outcome, in group order.
	Converge []ConvergenceResult `json:"converge"`
	CheckDur time.Duration       // the linearizability search
}

// Phase returns the named phase's result (zero when absent).
func (r Result) Phase(name string) PhaseResult {
	for _, p := range r.Phases {
		if p.Name == name {
			return p
		}
	}
	return PhaseResult{}
}

// Live is the running experiment as phases see it: what Until
// conditions poll and Call hooks act on.
type Live struct {
	sc      Scenario
	d       *deployment
	pop     *population
	scripts []*failslow.Script // one per group, on the group's recorder
	cursor  time.Duration      // nominal experiment clock, offset from timeline t0
	res     *Result
}

// Net is the deployment's network, Spare its idle standby's name,
// Groups its groups.
func (l *Live) Net() *transport.Network { return l.d.net }
func (l *Live) Spare() string           { return l.d.spare }
func (l *Live) Groups() []*shard.Group  { return l.d.groups }

// StopLoad winds the client population down before the phases end.
func (l *Live) StopLoad() { l.pop.stop() }

// Rehabilitated is the Until condition of a rehabilitation wait: the
// first faulted node's group holds no quarantine and has released at
// least one. A run that never quarantined anyone has nothing to wait
// for.
func Rehabilitated(l *Live) bool {
	if len(l.res.Injected) == 0 {
		return true
	}
	s := sentinelOf(l.d.groups[l.res.Injected[0].Group])
	return s.QuarantinesEntered == 0 || (s.Quarantined == 0 && s.QuarantinesExited >= 1)
}

// Replaced is the Until condition of the replacement pipeline: the
// group is back to full strength with the faulted node gone and the
// spare promoted.
func Replaced(l *Live) bool {
	voters := convergenceSnapshot(l.d.groups[0].Servers, 0).Voters
	return len(voters) == l.sc.Topology.Nodes && slices.Contains(voters, l.d.spare) &&
		!slices.Contains(voters, l.res.Injected[0].Node)
}

// Run executes one scenario: deploy, start the population, walk the
// phases, heal, and audit. Whatever path it returns by, every fault it
// injected has been cleared.
func Run(sc Scenario) (Result, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	if sc.Recorder == nil {
		sc.Recorder = obs.NewRecorder(0)
	}
	res := Result{Name: sc.Name, System: sc.Topology.System.String(), Start: time.Now(),
		Recorder: sc.Recorder, XTracer: sc.XTracer}
	if sc.Traced {
		res.Collector = trace.NewCollector(2_000_000)
	}
	d, err := deploy(sc, res.Collector)
	if err != nil {
		return res, err
	}
	defer d.close()

	// One script per group, on the group's (shard-tagged) recorder.
	l := &Live{sc: sc, d: d, res: &res}
	for _, grp := range d.groups {
		l.scripts = append(l.scripts, failslow.NewScript(grp.Recorder, failslow.DefaultIntensity()))
	}
	defer l.clearAll()

	l.pop = startPopulation(sc, d, res.Collector)
	defer l.pop.close()
	res.tl = l.pop.tl
	stopSampler := startSampler(sc, l.pop, d)
	defer stopSampler()

	res.Leader, _ = d.leader(0)
	electionsBefore := sentinelOf(d.groups...).Elections
	for _, ph := range sc.Phases {
		pr, err := l.runPhase(ph)
		res.Phases = append(res.Phases, pr)
		if err != nil {
			return res, fmt.Errorf("harness: %s phase %q: %w", sc.Name, ph.Name, err)
		}
	}

	res.Sentinel = sentinelOf(d.groups...)
	res.Elections = res.Sentinel.Elections - electionsBefore
	for _, grp := range d.groups {
		res.Groups = append(res.Groups, GroupResult{grp.ID, sentinelOf(grp)})
	}
	if d.base != nil {
		res.LeaderCrashed = d.base[d.names[0]].Crashed()
	}

	l.clearAll()
	l.pop.stop()
	stopSampler()
	for i := 0; i < sliceEnd(l.cursor); i++ {
		res.Timeline = append(res.Timeline, res.tl.measure(i, i+1))
	}
	l.audit(&res)
	l.analyze(&res)
	return res, nil
}

// runPhase is the one phase loop body: mark the phase, run its hook,
// resolve and apply its actions, let the experiment clock run, and
// read the phase's window off the timeline.
func (l *Live) runPhase(ph Phase) (PhaseResult, error) {
	l.sc.Recorder.Emit(obs.Event{Type: obs.Phase, Node: "harness", Detail: ph.Name})
	pr := PhaseResult{Name: ph.Name, At: time.Now(), From: sliceCeil(l.cursor)}
	for g := range l.d.groups {
		lead, _ := l.d.leader(g)
		pr.Leaders = append(pr.Leaders, lead)
	}
	if ph.Call != nil {
		ph.Call(l)
	}
	// Pulsed actions of one phase share the first one's duty cycle.
	var pulsed []func(on bool)
	var duty [2]time.Duration
	for _, a := range ph.Do {
		apply, err := l.bind(a)
		if err != nil {
			return pr, err
		}
		if a.Pulse <= 0 {
			apply(true)
			continue
		}
		if pulsed = append(pulsed, apply); len(pulsed) == 1 {
			duty = [2]time.Duration{a.Rest, a.Pulse}
		}
	}

	t0 := l.pop.tl.t0
	if ph.Until != nil {
		pr.Met = clock.WaitUntil(ph.Timeout, 20*time.Millisecond, func() bool { return ph.Until(l) })
		// The clock jumps to the next slice boundary without waiting for
		// it, so the following phase's window is exact; that phase starts
		// now and absorbs the rest of this slice.
		l.cursor = time.Duration(sliceCeil(time.Since(t0))) * sliceWidth
	} else {
		end := l.cursor + ph.For
		for i := 0; len(pulsed) > 0 && l.cursor < end; i++ {
			for _, apply := range pulsed {
				apply(i%2 == 1)
			}
			l.cursor = min(l.cursor+duty[i%2], end)
			clock.Precise(time.Until(t0.Add(l.cursor)))
		}
		for _, apply := range pulsed {
			apply(false)
		}
		l.cursor = end
		clock.Precise(time.Until(t0.Add(l.cursor)))
	}

	pr.To = sliceEnd(l.cursor)
	pr.Measure = l.pop.tl.measure(pr.From, pr.To)
	return pr, nil
}

// bind resolves an action's roles against the live deployment — "the
// leader" is whoever leads right now — and returns the closure that
// applies (on) or heals (off) it through the target group's script.
func (l *Live) bind(a Action) (func(on bool), error) {
	if a.Op == Clear && a.On == "" {
		return func(bool) { l.clearAll() }, nil
	}
	node, err := l.sc.Topology.resolve(a.On, l.d.leader)
	if err != nil {
		return nil, err
	}
	g := l.d.groupOf(node)
	e, script := l.d.envs[node], l.scripts[g]
	scale := cmp.Or(a.Scale, 1)
	var peers []string
	if a.Op == Asym {
		if peers = l.pop.names; a.Peer != Clients {
			peer, err := l.sc.Topology.resolve(a.Peer, l.d.leader)
			if err != nil {
				return nil, err
			}
			peers = []string{peer}
		}
	}
	return func(on bool) {
		switch {
		case !on || a.Op == Clear:
			script.Clear(e)
		case a.Op == Asym:
			for _, peer := range peers {
				script.InjectAsym(e, peer, scale)
			}
		default:
			at := time.Now()
			script.Inject(e, a.Fault, scale)
			l.res.Injected = append(l.res.Injected, Injection{Node: node, Group: g,
				Fault: a.Fault.String(), Scale: scale, At: at})
		}
	}, nil
}

// clearAll heals everything every script injected.
func (l *Live) clearAll() {
	for _, s := range l.scripts {
		s.ClearAll()
	}
}

// audit is the unconditional closing check, run on the healed cluster
// with the load stopped: every group converges to a terminal healthy
// configuration, closing reads join the history, the history is
// linearizable, and every unique key the writer was acked for is in
// its owning group's final state machines.
func (l *Live) audit(res *Result) {
	a := &res.Audit
	a.Converged = true
	l.pop.mu.Lock()
	acked := slices.Clone(l.pop.acked)
	l.pop.mu.Unlock()
	l.pop.closingReads() // they overlap the convergence wait
	for g, grp := range l.d.groups {
		if l.d.base != nil {
			break // no sentinel to let go, no raft state machines to audit
		}
		conv := WaitConvergence(grp.Servers, l.sc.Topology.Nodes, l.sc.ConvergeWait)
		a.Converge = append(a.Converge, conv)
		if a.Converged = a.Converged && conv.Converged; !conv.Converged {
			continue // no final state to audit against; the failure is on the record
		}
		var finals []*raft.Server
		for _, v := range conv.Voters {
			finals = append(finals, grp.Servers[v])
		}
		for _, key := range acked {
			if l.d.smap.Owner(key) == g && len(AuditAcked(finals, []string{key})) > 0 {
				a.Lost = append(a.Lost, key)
			}
		}
	}
	l.pop.stop()

	l.pop.mu.Lock()
	a.History = slices.Clone(l.pop.history)
	l.pop.mu.Unlock()
	a.Ops, a.Acked = len(a.History), len(acked)
	checkStart := time.Now()
	a.Lin = CheckLinearizable(a.History, 0)
	a.CheckDur = time.Since(checkStart)
}

// analyze derives the first injection's MTTD/MTTR from the recorded
// timeline — the one obs.Analyze call site. The recorder may span
// several runs (row drivers share one), so the fault report is matched
// by node and injection time; on a sharded run only the faulted
// shard's tagged slice is analyzed, so healthy-shard noise never
// enters.
func (l *Live) analyze(res *Result) {
	if len(res.Injected) == 0 || l.d.base != nil {
		return
	}
	events, first := res.Recorder.Events(), res.Injected[0]
	grp := l.d.groups[first.Group]
	if grp.ID != "" {
		events = obs.FilterShard(events, grp.ID)
	}
	for _, f := range obs.Analyze(events).Faults {
		if f.Node != first.Node || f.InjectedAt.Before(first.At.Add(-time.Second)) {
			continue
		}
		res.MTTD, res.MTTR = f.MTTD(), f.MTTR()
		break
	}
}
