package harness

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"depfast/internal/failslow"
	"depfast/internal/obs"
	"depfast/internal/raft"
	"depfast/internal/trace"
	"depfast/internal/xtrace"
	"depfast/internal/ycsb"
)

// Options are the knobs a caller (depfast-bench's flags) may turn on
// any row.
type Options struct {
	Duration time.Duration // measurement window per steady cell
	Warmup   time.Duration
	Clients  int
	Records  int
	// Quick selects a row's CI-sized form, where it has one.
	Quick bool
	// Recorder, when set, is shared by every run the row makes, so a
	// timeline file holds one continuous event stream.
	Recorder *obs.Recorder
	// Progress, if set, receives one line per completed run.
	Progress func(string)
	// Dot names a file the figure2 row writes its SPG to as Graphviz DOT.
	Dot string

	// The "run" row's one-off cell.
	System   System
	Fault    failslow.Fault
	Workload *ycsb.Workload
	Nodes    int
}

// DefaultOptions returns the seconds-scale laptop settings.
func DefaultOptions() Options {
	return Options{Duration: 3 * time.Second, Warmup: 750 * time.Millisecond,
		Clients: 24, Records: 2000, Nodes: 3}
}

// Row is one experiment of the table: the scenarios it runs, in order,
// and how their results are rendered and judged.
type Row struct {
	Name string
	// Steady re-runs a cell (up to three tries) whose "measure" window
	// measured a stall episode, not the configuration: an election fired
	// during the run, or the window's P99 sits an order of magnitude
	// above the median (churn the counter missed, or the host stealing
	// the CPU).
	Steady bool
	Cells  func(o Options) []Scenario
	Report func(o Options, rs []Result) Report
}

// Report is a row's verdict: the rendered tables, its headline
// numbers, and the gates that failed (none = pass).
type Report struct {
	Text    string             `json:"-"`
	Derived map[string]float64 `json:"derived,omitempty"`
	Failed  []string           `json:"failed_gates,omitempty"`
}

// gate records a failed gate unless ok.
func (r *Report) gate(ok bool, format string, args ...any) {
	if !ok {
		r.Failed = append(r.Failed, fmt.Sprintf(format, args...))
	}
}

// Outcome is what RunRow returns and -out serializes: one shape for
// every experiment.
type Outcome struct {
	Name    string   `json:"name"`
	Results []Result `json:"results"`
	Report
}

// Rows is the experiment table, paper order first.
var Rows = []Row{
	{Name: "table1", Cells: func(Options) []Scenario { return nil },
		Report: func(Options, []Result) Report {
			return Report{Text: RenderTable1(Table1())}
		}},
	{Name: "figure1", Steady: true,
		Cells: func(o Options) []Scenario {
			var cells []Scenario
			for _, sys := range Baselines {
				for _, fault := range failslow.All {
					cells = append(cells, Steady(fmt.Sprintf("figure1/%v/%v", sys, fault), o, sys, 3, fault, 1))
				}
			}
			return cells
		},
		Report: func(o Options, rs []Result) Report {
			return figureReport("Figure 1: baseline RSMs, 3 nodes, 1 fail-slow follower (normalized)",
				labels(Baselines), labels(failslow.All), rs, true, "")
		}},
	{Name: "figure2", Cells: func(o Options) []Scenario {
		return []Scenario{{Name: "figure2", Topology: Topology{Groups: 3}, Load: Load{Clients: 1, Records: 500},
			Seed: 42, Traced: true, Recorder: o.Recorder, Phases: []Phase{{Name: "run", For: time.Second}}}}
	},
		Report: figure2Report},
	{Name: "figure3", Steady: true,
		Cells: func(o Options) []Scenario {
			var cells []Scenario
			for _, nodes := range []int{3, 5} {
				for _, fault := range failslow.All {
					cells = append(cells, Steady(fmt.Sprintf("figure3/%d/%v", nodes, fault), o, DepFastRaft, nodes, fault, 1))
				}
			}
			return cells
		},
		Report: func(o Options, rs []Result) Report {
			return figureReport("Figure 3: DepFastRaft, minority fail-slow followers (absolute)",
				[]string{"3 Nodes", "5 Nodes"}, labels(failslow.All), rs, false, " (paper claim: within 5%)")
		}},
	{Name: "verify", Cells: func(o Options) []Scenario {
		var cells []Scenario
		for _, sys := range Systems {
			sc := Steady(fmt.Sprintf("verify/%v", sys), o, sys, 3, failslow.None, 1)
			sc.Traced = true
			cells = append(cells, sc)
		}
		return cells
	},
		Report: verifyReport},
	{Name: "transient", Cells: func(o Options) []Scenario {
		return []Scenario{transientScenario(o, DepFastRaft), transientScenario(o, CallbackRSM)}
	},
		Report: func(o Options, rs []Result) Report {
			var b strings.Builder
			b.WriteString("== Transient fault timeline (network slowness on one follower) ==\n")
			for _, r := range rs {
				b.WriteString(renderTransient(r, 5) + "\n")
			}
			return Report{Text: b.String()}
		}},
	{Name: "sweep", Cells: func(o Options) []Scenario {
		var cells []Scenario
		for _, n := range sweepCounts {
			o.Clients = n
			cells = append(cells, Steady(fmt.Sprintf("sweep/%d", n), o, DepFastRaft, 3, failslow.None, 1))
		}
		return cells
	},
		Report: func(o Options, rs []Result) Report {
			var b strings.Builder
			b.WriteString("== Client-population sweep (DepFastRaft, healthy) ==\n")
			fmt.Fprintf(&b, "%8s %10s %10s %10s\n", "clients", "op/s", "mean", "p99")
			for _, r := range rs {
				m := r.Phase("measure").All
				fmt.Fprintf(&b, "%8s %10.0f %10v %10v\n", strings.TrimPrefix(r.Name, "sweep/"), m.Tput,
					m.Mean.Round(10*time.Microsecond), m.P99.Round(10*time.Microsecond))
			}
			return Report{Text: b.String()}
		}},
	{Name: "intensity", Steady: true,
		Cells: func(o Options) []Scenario {
			var cells []Scenario
			for _, sys := range Systems {
				cells = append(cells, Steady(fmt.Sprintf("intensity/%v/base", sys), o, sys, 3, failslow.None, 1))
				for _, d := range intensityDelays {
					// Scale multiplies the Table 1 NIC delay, so d is a scale.
					scale := float64(d) / float64(failslow.DefaultIntensity().NetDelay)
					cells = append(cells, Steady(fmt.Sprintf("intensity/%v/%v", sys, d), o, sys, 3, failslow.NetSlow, scale))
				}
			}
			return cells
		},
		// The paper fixes one tc delay; the sweep shows the *curve*:
		// DepFastRaft stays flat at every magnitude while baselines bend.
		Report: func(o Options, rs []Result) Report {
			return figureReport("Fault-intensity sweep: follower NIC delay (normalized to no delay)",
				labels(Systems), append([]string{"no delay"}, labels(intensityDelays)...), rs, true, "")
		}},
	{Name: "mitigation",
		Cells: func(o Options) []Scenario {
			var cells []Scenario
			for _, sentinel := range []bool{false, true} {
				cells = append(cells, mitigationScenario(o, "leader cpu-slow", sentinel, failslow.CPUSlow, Leader))
			}
			for _, sentinel := range []bool{false, true} {
				cells = append(cells, mitigationScenario(o, "follower net-slow", sentinel, failslow.NetSlow, Follower))
			}
			if o.Quick {
				cells = cells[1:2] // leader cpu-slow, sentinel on
			}
			return cells
		},
		Report: mitigationReport},
	{Name: "shard",
		Cells:  func(o Options) []Scenario { return []Scenario{shardScenario(o)} },
		Report: shardReport},
	{Name: "replace", Cells: func(o Options) []Scenario { return []Scenario{replaceScenario(o)} },
		Report: replaceReport},
	{Name: "trace",
		Cells:  traceCells,
		Report: traceReport},
	{Name: "hedge",
		Cells:  func(o Options) []Scenario { return []Scenario{hedgeScenario(o)} },
		Report: hedgeReport},
	{Name: "run", Steady: true,
		Cells: func(o Options) []Scenario {
			return []Scenario{Steady("run", o, o.System, o.Nodes, o.Fault, 1)}
		},
		Report: func(o Options, rs []Result) Report { return Report{Text: rs[0].String() + "\n"} }},
}

// labels names a figure's groups or conditions.
func labels[T any](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}

var (
	sweepCounts     = []int{4, 8, 16, 32, 64}
	intensityDelays = []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond}
)

// ErrUnknownRow is RunRow's error for a name the table does not have.
var ErrUnknownRow = errors.New("harness: unknown experiment")

// RunRow looks a row up, runs its cells through the engine and
// reports. The error is a run that could not complete; failed gates
// are in the Outcome.
func RunRow(name string, o Options) (Outcome, error) {
	for _, row := range Rows {
		if row.Name != name {
			continue
		}
		out := Outcome{Name: name}
		disturbed := func(r Result) bool {
			m := r.Phase("measure").All
			return r.Elections > 0 || m.P99 > 8*m.P50
		}
		for _, sc := range row.Cells(o) {
			res, err := Run(sc)
			for try := 1; try < 3 && err == nil && row.Steady && disturbed(res); try++ {
				res, err = Run(sc)
			}
			if err != nil {
				return out, fmt.Errorf("%s: %w", sc.Name, err)
			}
			if o.Progress != nil {
				o.Progress(res.String())
			}
			out.Results = append(out.Results, res)
			// The audit is every row's gate: whatever DepFastRaft was put
			// through, acknowledged operations linearize and none is lost.
			out.gate(res.System != DepFastRaft.String() || (res.Audit.Lin.Verdict != LinViolation && len(res.Audit.Lost) == 0),
				"%s: audit failed: %v (key %q), lost %v", res.Name, res.Audit.Lin.Verdict, res.Audit.Lin.Key, res.Audit.Lost)
		}
		rep := row.Report(o, out.Results)
		out.Text, out.Derived, out.Failed = rep.Text, rep.Derived, append(out.Failed, rep.Failed...)
		return out, nil
	}
	return Outcome{}, fmt.Errorf("%w %q", ErrUnknownRow, name)
}

// String renders a one-line summary of the run: every phase's
// throughput and tail, the fault response, and the audit.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s leader=%s", r.Name, r.Leader)
	for _, p := range r.Phases {
		fmt.Fprintf(&b, " | %s %.0f op/s p99=%v", p.Name, p.All.Tput, p.All.P99.Round(10*time.Microsecond))
	}
	if r.LeaderCrashed {
		b.WriteString(" [LEADER CRASHED]")
	}
	if len(r.Injected) > 0 {
		fmt.Fprintf(&b, " | %s on %s mttd=%s mttr=%s", r.Injected[0].Fault, r.Injected[0].Node, renderTTD(r.MTTD), renderTTD(r.MTTR))
	}
	fmt.Fprintf(&b, " | audit: %v over %d ops, acked=%d lost=%d converged=%v",
		r.Audit.Lin.Verdict, r.Audit.Ops, r.Audit.Acked, len(r.Audit.Lost), r.Audit.Converged)
	return b.String()
}

// renderTTD formats a time-to-X duration, "-" when it never happened.
func renderTTD(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return d.Round(time.Millisecond).String()
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// Steady is the figure cell: fault injected into a minority of
// followers (§2.1 of the paper) before the load warms up, then one
// measured window.
func Steady(name string, o Options, sys System, nodes int, fault failslow.Fault, scale float64) Scenario {
	warm := Phase{Name: "warmup", For: o.Warmup}
	for i := 0; fault != failslow.None && i < (nodes-1)/2; i++ {
		warm.Do = append(warm.Do, Action{Op: Inject, On: FollowerN(i), Fault: fault, Scale: scale})
	}
	return Scenario{Name: name, Topology: Topology{System: sys, Nodes: nodes},
		Load: Load{Clients: o.Clients, Records: o.Records, Workload: o.Workload},
		Seed: 42, Recorder: o.Recorder,
		Phases: []Phase{warm, {Name: "measure", For: o.Duration}}}
}

func figure2Report(o Options, rs []Result) Report {
	records := rs[0].Collector.Records()
	g := trace.BuildSPG(records)
	rep := Report{Text: "== Figure 2: slowness propagation graph (3 shards, one client each) ==\n" +
		g.ASCII() + "\n" + trace.Report(records, trace.VerifyConfig{AllowClientPrefix: "client"}) + "\n",
		Derived: map[string]float64{"green_edges": float64(len(g.QuorumEdges())), "red_edges": float64(len(g.SingularEdges()))}}
	for _, e := range g.SingularEdges() {
		rep.gate(strings.HasPrefix(e.From, "client"), "server %s has a singular cross-node wait on %s; only client→leader edges may be red", e.From, e.To)
	}
	if o.Dot != "" {
		if err := os.WriteFile(o.Dot, []byte(g.DOT()), 0o644); err != nil {
			rep.Failed = append(rep.Failed, err.Error())
		}
		rep.Text += fmt.Sprintf("DOT written to %s\n", o.Dot)
	}
	return rep
}

// verifyReport applies the fail-slow-tolerance verifier to each
// system's traced run — the paper's claim that the discipline can be
// checked mechanically. DepFastRaft passes; CallbackRSM fails on its
// all-replica flow-control wait. SyncRSM's pathology (synchronous disk
// reads on the region thread) bypasses the event abstraction entirely
// and is therefore invisible to event-based verification: the strongest
// argument the paper makes for routing every wait through an event.
func verifyReport(o Options, rs []Result) Report {
	rep := Report{Text: "== Runtime verification: fail-slow-tolerance discipline ==\n"}
	cfg := trace.VerifyConfig{AllowClientPrefix: "client"}
	for _, r := range rs {
		records := r.Collector.Records()
		rep.Text += fmt.Sprintf("%s\n%s\n", r.System, trace.Report(records, cfg))
		pass := len(trace.Verify(records, cfg)) == 0
		rep.gate(!(r.System == DepFastRaft.String() && !pass) && !(r.System == CallbackRSM.String() && pass),
			"%s: verifier pass=%v contradicts its discipline", r.System, pass)
	}
	return rep
}

// transientScenario is the recovery story the paper's §3.3 "probability
// models for transient fail-slow events" points toward: network
// slowness lands on one follower mid-run and later clears.
func transientScenario(o Options, sys System) Scenario {
	return Scenario{Name: fmt.Sprintf("transient/%v", sys), Topology: Topology{System: sys},
		Load: Load{Clients: o.Clients, Records: o.Records}, Seed: 42, Recorder: o.Recorder,
		Phases: []Phase{
			{Name: "warmup", For: 500 * time.Millisecond},
			{Name: "before", For: 1200 * time.Millisecond},
			{Name: "fault", For: 1500 * time.Millisecond, Do: []Action{{Op: Inject, On: Follower, Fault: failslow.NetSlow}}},
			{Name: "after", For: 1300 * time.Millisecond, Do: []Action{{Op: Clear}}},
		}}
}

// renderTransient prints the run's timeline in windows of n slices
// from the end of warmup, starring the windows that begin under fault.
func renderTransient(r Result, n int) string {
	var b strings.Builder
	start, fault := r.Phase("before").From, r.Phase("fault")
	fmt.Fprintf(&b, "transient %s on %s:\n%8s %6s %10s %10s %10s\n", failslow.NetSlow, r.System, "t", "fault", "op/s", "mean", "p99")
	for s := start; s+n <= r.Phase("after").To; s += n {
		mark := ""
		if s >= fault.From && s < fault.To {
			mark = "*"
		}
		w := r.tl.window(s, s+n, -1).All
		fmt.Fprintf(&b, "%8v %6s %10.0f %10v %10v\n", time.Duration(s-start)*sliceWidth, mark, w.Tput,
			w.Mean.Round(10*time.Microsecond), w.P99.Round(10*time.Microsecond))
	}
	return b.String()
}

// mitigationScenario is the phased sentinel experiment: settle, measure
// a healthy window, inject, wait a grace period so the post window
// measures the mitigated steady state rather than the detection
// transient, measure, then clear and wait for rehabilitation. On is
// Leader (exercising self-demotion) or Follower (quarantine).
func mitigationScenario(o Options, name string, sentinel bool, fault failslow.Fault, on Role) Scenario {
	return Scenario{Name: fmt.Sprintf("mitigation/%s/%s", name, map[bool]string{false: "off", true: "on"}[sentinel]),
		Topology: Topology{Raft: func(rc *raft.Config) { rc.Mitigation = sentinel }},
		Load:     Load{Clients: 48}, Seed: 42, Recorder: o.Recorder,
		Phases: []Phase{
			{Name: "warmup", For: 500 * time.Millisecond},
			{Name: "pre-window", For: time.Second},
			{Name: "grace", For: 1200 * time.Millisecond, Do: []Action{{Op: Inject, On: on, Fault: fault}}},
			{Name: "post-window", For: 1500 * time.Millisecond},
			{Name: "clear", Do: []Action{{Op: Clear}}, Until: Rehabilitated, Timeout: 10 * time.Second},
		}}
}

func mitigationReport(o Options, rs []Result) Report {
	var b strings.Builder
	b.WriteString("== Mitigation sentinel on/off ==\n")
	fmt.Fprintf(&b, "%-30s %12s %12s %10s %8s %7s %7s %9s %9s\n",
		"scenario/sentinel", "pre (op/s)", "post (op/s)", "post/pre", "handoff", "quar", "rehab", "mttd", "mttr")
	for _, r := range rs {
		pre, post := r.Phase("pre-window").All.Tput, r.Phase("post-window").All.Tput
		fmt.Fprintf(&b, "%-30s %12.0f %12.0f %9.2fx %8v %7d %7v %9s %9s\n",
			strings.TrimPrefix(r.Name, "mitigation/"), pre, post, ratio(post, pre),
			leaderMoved(r, "clear") && r.Injected[0].Node == r.Phase("grace").Leaders[0],
			r.Sentinel.QuarantinesEntered, rehabilitated(r), renderTTD(r.MTTD), renderTTD(r.MTTR))
	}
	return Report{Text: b.String()}
}

// leaderMoved reports that, when phase began, leadership of the first
// faulted node's group had left that node.
func leaderMoved(r Result, phase string) bool {
	lead := r.Phase(phase).Leaders[r.Injected[0].Group]
	return lead != "" && lead != r.Injected[0].Node
}

// rehabilitated reports that the "clear" phase saw every quarantine
// released, at least one of them by rehabilitation.
func rehabilitated(r Result) bool {
	return r.Phase("clear").Met && r.Groups[r.Injected[0].Group].QuarantinesExited >= 1
}

// shardScenario is the blast-radius containment experiment: per-shard
// YCSB load on a 3×3 deployment, a severe disk fault (100x fsync
// stretch, the paper's failing-disk regime — the leader's write stall
// caps its dirty WAL backlog, so the slow shard craters visibly until
// its sentinel hands off) on shard 1's leader, and windows showing the
// healthy shards riding through. Containment is judged over the whole
// inject-window: it opens the moment the fault lands, so detection and
// handoff transients count against the slow shard — and must not count
// against the healthy ones.
func shardScenario(o Options) Scenario {
	clients, tenth := 16, 100*time.Millisecond
	if o.Quick { // four fifths of everything
		clients, tenth = 12, 80*time.Millisecond
	}
	return Scenario{Name: "shard", Seed: 42, Recorder: o.Recorder,
		Topology: Topology{Groups: 3, Raft: func(rc *raft.Config) { rc.Mitigation = true }},
		Load:     Load{Clients: clients, Records: 1500},
		Phases: []Phase{
			{Name: "warmup", For: 5 * tenth},
			{Name: "pre-window", For: 10 * tenth},
			// Scale 11 stretches Table 1's 10x disk factor to 100x.
			{Name: "inject-window", For: 15 * tenth, Do: []Action{{Op: Inject, On: LeaderOf(0), Fault: failslow.DiskSlow, Scale: 11}}},
			{Name: "grace", For: 10 * tenth},
			{Name: "recovery-window", For: 15 * tenth},
			{Name: "clear", Do: []Action{{Op: Clear}}, Until: Rehabilitated, Timeout: 100 * tenth},
		}}
}

// shardReport judges containment: the healthy shards' aggregate
// inject-window throughput over their pre-window baseline is the number
// the row exists to bound, and no sentinel may act outside the slow
// shard. That the fault bit is read off the timeline — the slow shard's
// worst slice inside the inject-window against its pre-window mean —
// because the sentinel recovers within a few hundred milliseconds and a
// whole-window average hides the trough.
func shardReport(o Options, rs []Result) Report {
	r := rs[0]
	slow := r.Injected[0].Group
	pre, inj, rec := r.Phase("pre-window"), r.Phase("inject-window"), r.Phase("recovery-window")
	var b strings.Builder
	fmt.Fprintf(&b, "== Sharded containment: %s on %s leader (%s), sentinel on ==\n", r.Injected[0].Fault, r.Groups[slow].ID, r.Injected[0].Node)
	fmt.Fprintf(&b, "%-8s %-5s %11s %11s %11s %10s %10s %10s %6s\n",
		"shard", "role", "pre (op/s)", "inj (op/s)", "rec (op/s)", "pre p99", "inj p99", "rec p99", "errs")
	var healthyPre, healthyInj float64
	var cross int64
	for g, grp := range r.Groups {
		role := "slow"
		if g != slow {
			role = "ok"
			healthyPre += pre.Groups[g].All.Tput
			healthyInj += inj.Groups[g].All.Tput
			cross += grp.Transfers + grp.QuarantinesEntered
		}
		fmt.Fprintf(&b, "%-8s %-5s %11.0f %11.0f %11.0f %10v %10v %10v %6d\n", grp.ID, role,
			pre.Groups[g].All.Tput, inj.Groups[g].All.Tput, rec.Groups[g].All.Tput,
			pre.Groups[g].All.P99.Round(time.Millisecond), inj.Groups[g].All.P99.Round(time.Millisecond),
			rec.Groups[g].All.P99.Round(time.Millisecond), pre.Groups[g].Errs+inj.Groups[g].Errs+rec.Groups[g].Errs)
	}
	base := pre.Groups[slow].All.Tput
	trough := base
	for s := inj.From; s < inj.To; s++ {
		trough = min(trough, r.Timeline[s].Groups[slow].All.Tput)
	}
	d := map[string]float64{"containment": ratio(healthyInj, healthyPre), "slow_trough": ratio(trough, base),
		"slow_recovery": ratio(rec.Groups[slow].All.Tput, base), "cross_shard_actions": float64(cross)}
	fmt.Fprintf(&b, "healthy aggregate: containment %.2f (goal >= 0.80)\n", d["containment"])
	fmt.Fprintf(&b, "slow shard: trough %.2fx of baseline during injection, recovered to %.2fx after handoff (moved=%v, mttd=%s, mttr=%s)\n",
		d["slow_trough"], d["slow_recovery"], leaderMoved(r, "clear"), renderTTD(r.MTTD), renderTTD(r.MTTR))
	fmt.Fprintf(&b, "mitigation scope: %d sentinel actions outside %s (invariant: 0)\n", cross, r.Groups[slow].ID)
	rep := Report{Text: b.String(), Derived: d}
	rep.gate(d["containment"] >= 0.8, "containment %.2f; gate is >= 0.80", d["containment"])
	rep.gate(cross == 0, "%d sentinel actions outside the slow shard; gate is 0", cross)
	return rep
}

// replaceScenario is the automated-replacement experiment: a permanent
// fail-slow disk (the fault the paper's case studies never replace)
// lands on one follower, the sentinel escalates quarantine → condemned,
// and the pipeline removes the follower and joins the spare — all
// while the population keeps writing.
func replaceScenario(o Options) Scenario {
	t := Topology{Spare: true, Nodes: 3}
	t.Raft = func(rc *raft.Config) {
		rc.AutoReplace = true
		rc.Spares = []string{t.spareName()}
		rc.Mitigate.ReplaceAfterQuarantines = 2
		rc.Mitigate.SlowBudget = 800 * time.Millisecond
	}
	return Scenario{Name: "replace", Topology: t, Load: Load{Clients: 48}, Seed: 42, Recorder: o.Recorder,
		Phases: []Phase{
			{Name: "warmup", For: 500 * time.Millisecond},
			{Name: "pre-window", For: time.Second},
			{Name: "replace-wait", Do: []Action{{Op: Inject, On: Follower, Fault: failslow.DiskSlow}},
				Until: Replaced, Timeout: 15 * time.Second},
			{Name: "settle", For: 300 * time.Millisecond},
			{Name: "post-window", For: 1500 * time.Millisecond},
		}}
}

func replaceReport(o Options, rs []Result) Report {
	r := rs[0]
	inj := r.Injected[0]
	pre, post := r.Phase("pre-window").All.Tput, r.Phase("post-window").All.Tput
	var seq []obs.Event // this run's replacement story
	var replacedIn time.Duration
	for _, ev := range obs.Filter(r.Recorder.Events(), obs.FaultInjected, obs.QuarantineEnter,
		obs.MemberRemoved, obs.MemberAdded, obs.LearnerCaughtUp, obs.ReplacementCompleted) {
		if ev.Time.Before(inj.At) {
			continue // an earlier run on a shared recorder
		}
		if seq = append(seq, ev); ev.Type == obs.ReplacementCompleted && ev.Peer == inj.Node {
			replacedIn = ev.Time.Sub(inj.At)
		}
	}
	var b strings.Builder
	b.WriteString("== Automated replacement (disk-slow follower condemned, spare joined) ==\n")
	fmt.Fprintf(&b, "%-14s %-8s %-10s %12s %12s %10s %7s %6s %9s %12s\n",
		"fault", "faulted", "voters", "pre (op/s)", "post (op/s)", "post/pre", "acked", "lost", "mttd", "replaced_in")
	fmt.Fprintf(&b, "%-14s %-8s %-10s %12.0f %12.0f %9.2fx %7d %6d %9s %12s\n",
		inj.Fault, inj.Node, strings.Join(r.Audit.Converge[0].Voters, ","), pre, post, ratio(post, pre),
		r.Audit.Acked, len(r.Audit.Lost), renderTTD(r.MTTD), renderTTD(replacedIn))
	b.WriteString("\nreplacement sequence (offsets from injection):\n" + obs.RenderEvents(seq))
	rep := Report{Text: b.String(), Derived: map[string]float64{"post_over_pre": ratio(post, pre),
		"lost": float64(len(r.Audit.Lost)), "replaced_in_ms": float64(replacedIn.Milliseconds())}}
	rep.gate(r.Phase("replace-wait").Met, "replacement never completed: final voters %v", r.Audit.Converge[0].Voters)
	rep.gate(r.Audit.Converged, "replaced cluster did not converge: %v", r.Audit.Converge)
	return rep
}

// traceCells drives the tracing plane end to end. The first cell
// answers "does the blame land where the fault is": a healthy warmup
// settles the promotion deadline, the deadline is then frozen — once
// the fault lands, every slowed request overshoots a bar derived from
// how the cluster behaved when it was well — a DiskSlow fault lands on
// the leader, and every request the frozen deadline promotes is
// attributed. The remaining cells answer "what does always-on tracing
// cost": paired traced and untraced fault-free runs at the collector's
// default sampling, compared best against best — the configurations'
// capability rather than scheduler luck on any one run.
func traceCells(o Options) []Scenario {
	col := xtrace.NewCollector(xtrace.Config{SampleEvery: 2, MaxRetained: 2048})
	cells := []Scenario{{Name: "trace/attribution", Seed: 42, Recorder: o.Recorder, XTracer: col,
		Load: Load{Clients: 12},
		Topology: Topology{Raft: func(rc *raft.Config) {
			// A tight dirty-append bound makes the leader's slow disk stall
			// the write path promptly instead of hiding behind 64 entries of
			// slack — the scripted fault should dominate every slow request.
			// QuorumDiscard would let the stalled leader cancel follower
			// backlog, making followers reject later appends on log mismatch
			// and turning each slow request into a NotLeader retry storm the
			// client's backoff owns; keeping delivery in-order leaves the
			// disk stall as each slow request's own dominant wait.
			rc.MaxDirtyAppends = 4
			rc.QuorumDiscard = false
			// A 16-message send window rejects fan-out instantly during a
			// stall burst (two instant rejects veto the quorum before the
			// network is even touched); give bursts room to queue instead.
			rc.OutboxWindow = 256
		}},
		Phases: []Phase{
			{Name: "warmup", For: 700 * time.Millisecond},
			{Name: "measure", For: 1500 * time.Millisecond,
				Call: func(*Live) { col.SetDeadline(col.Deadline()); col.Reset() },
				Do:   []Action{{Op: Inject, On: Leader, Fault: failslow.DiskSlow}}},
		}}}
	trials := map[bool]int{false: 3, true: 1}[o.Quick]
	o.Clients, o.Records, o.Warmup, o.Duration = 12, 2000, 300*time.Millisecond, 700*time.Millisecond
	for i := 0; i < trials; i++ {
		for _, traced := range []bool{true, false} {
			sc := Steady(fmt.Sprintf("trace/overhead-%d/traced=%v", i, traced), o, DepFastRaft, 3, failslow.None, 1)
			sc.Seed += int64(i)
			if traced {
				sc.XTracer = xtrace.NewCollector(xtrace.Config{})
			}
			cells = append(cells, sc)
		}
	}
	return cells
}

// traceNumbers returns the attribution cell's verdict: traces kept,
// tail-promoted, and how many of the promoted blame (injected node,
// disk) as their top critical-path contributor.
func traceNumbers(r Result) (kept, tail, matched int, att xtrace.Attribution) {
	traces := r.XTracer.TailTraces()
	for _, t := range traces {
		if node, res, _, ok := xtrace.TopBlame(t); ok && node == r.Injected[0].Node && res == xtrace.Disk {
			matched++
		}
	}
	return len(r.XTracer.Traces()), len(traces), matched, xtrace.Attribute(traces)
}

func traceReport(o Options, rs []Result) Report {
	kept, tail, matched, att := traceNumbers(rs[0])
	match := ratio(float64(matched), float64(tail))
	var tracedTput, plainTput float64
	for i, r := range rs[1:] {
		if t := r.Phase("measure").All.Tput; i%2 == 0 && t > tracedTput {
			tracedTput = t
		} else if i%2 == 1 && t > plainTput {
			plainTput = t
		}
	}
	overhead := ratio(tracedTput, plainTput)
	rep := Report{Derived: map[string]float64{"match_fraction": match, "overhead_ratio": overhead}}
	rep.Text = fmt.Sprintf("== Causal tracing: attribution accuracy + overhead (leader disk-slow) ==\n"+
		"trace-exp: leader=%s kept=%d tail=%d matched=%d (%.0f%%)  overhead: traced=%.0f plain=%.0f op/s ratio=%.3f\n%s\n",
		rs[0].Injected[0].Node, kept, tail, matched, match*100, tracedTput, plainTput, overhead, att.Render())
	rep.gate(match >= 0.9, "only %.0f%% of tail-promoted traces blame (leader, disk); gate is 90%%", match*100)
	rep.gate(overhead == 0 || overhead >= 0.95, "tracing costs %.1f%% throughput; gate is 5%%", (1-overhead)*100)
	return rep
}

// hedgeScenario drives the speculation layer end to end: a fail-slow
// episode deliberately injected *below* the server-side detector's
// horizon — a bursty one-way delay on the leader→client links, every
// server↔server link healthy — measured with speculation off and on at
// equal offered load, after a healthy hedged window that measures the
// waste rate. The sentinel cannot help here (nothing it can see is
// slow), so the servers run with no mitigation and no slow-leader
// detector: whatever the tail gains, the hedging layer earned alone.
func hedgeScenario(o Options) Scenario {
	warm, healthy, episode, readers := 700*time.Millisecond, 800*time.Millisecond, time.Second, 12
	if o.Quick {
		warm, healthy, episode, readers = 500*time.Millisecond, 500*time.Millisecond, 700*time.Millisecond, 8
	}
	// 80ms one way (2x Table 1's NIC delay), 40ms on out of every 200.
	burst := []Action{{Op: Asym, On: Leader, Peer: Clients, Scale: 2, Pulse: 40 * time.Millisecond, Rest: 160 * time.Millisecond}}
	return Scenario{Name: "hedge", Seed: 42, Recorder: o.Recorder, Load: Load{HedgeReaders: readers},
		Topology: Topology{Raft: func(rc *raft.Config) {
			rc.ReadIndex, rc.LeaderLease, rc.PeerDetector = true, true, true
			rc.Mitigation, rc.SlowLeaderDetector = false, false
		}},
		Phases: []Phase{
			{Name: "warmup", For: warm, Call: func(l *Live) { l.pop.auditReads.Store(false) }},
			{Name: "healthy-hedged", For: healthy},
			{Name: "episode-unhedged", For: episode, Do: burst,
				Call: func(l *Live) { l.pop.hedging.Store(false); l.pop.auditReads.Store(true) }},
			{Name: "episode-hedged", For: episode, Do: burst, Call: func(l *Live) { l.pop.hedging.Store(true) }},
		}}
}

// hedgeReport reads the speculation tallies off the flight recorder:
// the hedger's fired/won/cancelled events, windowed by phase start.
func hedgeReport(o Options, rs []Result) Report {
	r := rs[0]
	healthy, off, on := r.Phase("healthy-hedged"), r.Phase("episode-unhedged"), r.Phase("episode-hedged")
	var run, inHealthy []obs.Event // this run's events; the healthy window's
	suspects := 0
	for _, ev := range r.Recorder.Events() {
		if ev.Time.Before(r.Start) {
			continue
		}
		if run = append(run, ev); !ev.Time.Before(healthy.At) && ev.Time.Before(off.At) {
			inHealthy = append(inHealthy, ev)
		}
		if ev.Type == obs.VerdictSuspect {
			suspects++
		}
	}
	hedges := obs.SummarizeHedges(run)
	gain := ratio(float64(off.Reads.P99), float64(on.Reads.P99))
	// Wasted hedges per request in the healthy window: speculation must
	// not melt a healthy cluster (bounded by the budget by construction).
	wasted := ratio(float64(obs.SummarizeHedges(inHealthy).Wasted), float64(healthy.All.Ops))
	var b strings.Builder
	b.WriteString("== Request hedging under a sub-threshold fail-slow episode ==\n")
	for _, p := range []PhaseResult{healthy, off, on} {
		fmt.Fprintf(&b, "  %-16s reads=%-5d writes=%-4d errs=%-3d tput=%6.0f op/s read p50=%-8v p99=%-8v write p99=%v\n",
			p.Name, p.Reads.Ops, p.Writes.Ops, p.Errs, p.All.Tput, p.Reads.P50.Round(10*time.Microsecond),
			p.Reads.P99.Round(10*time.Microsecond), p.Writes.P99.Round(10*time.Microsecond))
	}
	fmt.Fprintf(&b, "  hedges fired=%d won=%d wasted=%d put-retries=%d healthy-wasted-rate=%.3f (budget %.2f)\n"+
		"  read p99 gain=%.2fx  suspects=%d elections=%d\n  audit: %v over %d ops, acked=%d lost=%d\n",
		hedges.Fired, hedges.Won, hedges.Wasted, hedges.Writes, wasted, HedgeBudgetRatio,
		gain, suspects, r.Elections, r.Audit.Lin.Verdict, r.Audit.Ops, r.Audit.Acked, len(r.Audit.Lost))
	rep := Report{Text: b.String(), Derived: map[string]float64{"read_gain": gain, "healthy_wasted_rate": wasted,
		"fired": float64(hedges.Fired), "won": float64(hedges.Won), "wasted": float64(hedges.Wasted),
		"put_retries": float64(hedges.Writes), "suspects": float64(suspects)}}
	rep.gate(gain >= 2, "hedged read p99 only %.2fx better than unhedged; gate is 2x", gain)
	rep.gate(wasted <= HedgeBudgetRatio, "healthy-window wasted-hedge rate %.3f exceeds budget ratio %.2f", wasted, HedgeBudgetRatio)
	rep.gate(suspects == 0 && r.Elections == 0, "episode leaked into the server plane (suspects=%d elections=%d); it must stay sub-threshold", suspects, r.Elections)
	return rep
}
