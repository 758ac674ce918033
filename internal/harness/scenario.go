// Package harness runs every experiment of the reproduction through
// one engine. An experiment is data — a Scenario: a Topology to deploy,
// a Load to drive, and a list of Phases that inject and clear fail-slow
// faults on roles resolved against the live cluster — and Run executes
// it with exactly one of each part: one deploy, one client population
// recording into one time-sliced timeline, one phase loop injecting
// through one failslow.Script, and one Result that always carries the
// safety audit. The paper's figures, the extension experiments and the
// schedule explorer are rows over that engine (see rows.go).
package harness

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"depfast/internal/baseline"
	"depfast/internal/failslow"
	"depfast/internal/obs"
	"depfast/internal/raft"
	"depfast/internal/xtrace"
	"depfast/internal/ycsb"
)

// System selects the RSM implementation under test.
type System int

const (
	// DepFastRaft is the paper's system (Figure 3).
	DepFastRaft System = iota
	// SyncRSM, BufferRSM, CallbackRSM are the Figure 1 baselines.
	SyncRSM
	BufferRSM
	CallbackRSM
)

// Systems lists every implementation, the paper's system first;
// Baselines lists the Figure 1 comparators.
var (
	Systems   = []System{DepFastRaft, SyncRSM, BufferRSM, CallbackRSM}
	Baselines = Systems[1:]
)

// String names the system as in experiment output.
func (s System) String() string {
	return [...]string{"DepFastRaft", "SyncRSM", "BufferRSM", "CallbackRSM"}[s]
}

// Scenario is one experiment, as data.
type Scenario struct {
	Name     string
	Topology Topology
	Load     Load
	Phases   []Phase
	Seed     int64

	// ConvergeWait bounds the closing audit's wait for a terminal
	// healthy configuration (0 = 10s).
	ConvergeWait time.Duration

	// Recorder is the flight recorder the whole run publishes into:
	// server events, fault injections, phase markers, gauge samples.
	// Nil gives the run a private one — MTTD/MTTR and the audit are
	// derived from it either way.
	Recorder *obs.Recorder
	// XTracer, when set, is the causal per-request trace collector the
	// servers and every client record into.
	XTracer *xtrace.Collector
	// Traced attaches a wait-record collector to every runtime; the
	// Result carries it.
	Traced bool
}

// Topology is what deploy brings up: Groups raft groups (or one
// baseline RSM) of Nodes replicas each, named s1…s{Groups×Nodes}
// group-major, with keys range-partitioned across groups.
type Topology struct {
	System System
	Nodes  int // replicas per group (0 = 3)
	Groups int // raft groups (0 = 1); more than one deploys a shard.Cluster
	// Spare provisions one idle standby, s{Nodes+1}: registered and
	// running but holding no config until a leader joins it.
	Spare bool
	// Raft and Baseline adjust every server's config after defaults.
	Raft     func(*raft.Config)
	Baseline func(*baseline.Config)
}

// Load is the client population. Clients closed-loop YCSB clients per
// group are the measured load; HedgeReaders adds the hedging
// experiment's readers and counter writers sharing one hedger. The
// audit clients (Auditors register-key clients over Keys keys plus one
// unique-key writer) ride along on every run.
type Load struct {
	Clients  int
	Records  int            // YCSB record population (0 = 2000)
	Workload *ycsb.Workload // nil = the paper's 100%-update zipfian mix

	HedgeReaders int

	Auditors int // 0 = 2
	Keys     int // 0 = 2
}

// Phase is one step of the experiment clock. It lasts For, or — when
// Until is set — until the condition holds or Timeout passes. Do is
// applied when the phase starts, after Call.
type Phase struct {
	Name string
	For  time.Duration

	Until   func(*Live) bool
	Timeout time.Duration

	Do   []Action
	Call func(*Live)
}

// Op is what an Action does to its target.
type Op int

// Inject applies Fault to the target node; Asym adds a one-way network
// delay from the target toward Peer; Clear heals the target, or — with
// no target — everything the run has injected.
const (
	Inject Op = iota
	Asym
	Clear
)

// Action is one fault-script step. On is resolved to a node when the
// phase starts, so "the leader" means whoever leads at that moment.
type Action struct {
	Op    Op
	On    Role
	Fault failslow.Fault
	Scale float64 // multiplies the Table 1 intensity (0 = 1)
	Peer  Role    // Asym destination: a node role, or Clients
	// Pulse/Rest make the action a duty cycle inside its phase: idle for
	// Rest, active for Pulse, repeating; healing a pulse heals its whole
	// node. Resting first lets operations in flight at the phase boundary
	// finish under the previous phase's conditions.
	Pulse, Rest time.Duration
}

// Role names a fault target by what it is, not which node it happens
// to be: "leader", "follower" (the first non-leader of group 0, in
// name order), "leader:g" / "follower:i", or a node name.
type Role string

// The role vocabulary. Clients is valid only as an Asym peer: every
// client endpoint of the population.
const (
	Leader   Role = "leader"
	Follower Role = "follower"
	Clients  Role = "clients"
)

// LeaderOf is the leader of group g; FollowerN the i-th follower of
// group 0.
func LeaderOf(g int) Role  { return Role("leader:" + strconv.Itoa(g)) }
func FollowerN(i int) Role { return Role("follower:" + strconv.Itoa(i)) }

// resolve maps a role onto a node of the topology; leader reports a
// group's current leader. Validate resolves every role against a
// stand-in (each group led by its first node), so a role that resolves
// there resolves on the live deployment, whoever leads.
func (t Topology) resolve(r Role, leader func(g int) (string, bool)) (string, error) {
	kind, arg, indexed := strings.Cut(string(r), ":")
	idx := 0
	if kind != "leader" && kind != "follower" {
		if r != "" && slices.Contains(append(t.nodeNames(), t.spareName()), string(r)) {
			return string(r), nil
		}
		return "", fmt.Errorf("harness: role %q names no node of the topology", r)
	}
	if indexed {
		var err error
		if idx, err = strconv.Atoi(arg); err != nil || idx < 0 {
			return "", fmt.Errorf("harness: bad role index in %q", r)
		}
	}
	g, follower := idx, -1
	if kind == "follower" {
		g, follower = 0, idx
	}
	if g >= t.Groups || follower >= t.Nodes-1 {
		return "", fmt.Errorf("harness: role %q exceeds the %dx%d topology", r, t.Groups, t.Nodes)
	}
	lead, ok := leader(g)
	if !ok {
		return "", fmt.Errorf("harness: role %q: group %d has no agreed leader", r, g)
	}
	if follower < 0 {
		return lead, nil
	}
	return otherNames(t.nodeNames()[:t.Nodes], lead)[follower], nil
}

// withDefaults fills the zero fields every row would otherwise repeat.
func (sc Scenario) withDefaults() Scenario {
	sc.Topology.Nodes = cmp.Or(max(sc.Topology.Nodes, 0), 3)
	sc.Topology.Groups = cmp.Or(max(sc.Topology.Groups, 0), 1)
	sc.Load.Records = cmp.Or(max(sc.Load.Records, 0), 2000)
	sc.Load.Auditors = cmp.Or(max(sc.Load.Auditors, 0), 2)
	sc.Load.Keys = cmp.Or(max(sc.Load.Keys, 0), 2)
	sc.ConvergeWait = cmp.Or(max(sc.ConvergeWait, 0), 10*time.Second)
	return sc
}

// nodeNames lists the topology's member names, group-major.
func (t Topology) nodeNames() []string {
	names := make([]string, t.Groups*t.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i+1)
	}
	return names
}

// spareName is the standby's name ("" without one).
func (t Topology) spareName() string {
	if !t.Spare {
		return ""
	}
	return fmt.Sprintf("s%d", t.Nodes+1)
}

// Validate checks the scenario is runnable: a deployable topology,
// well-formed phases, and every action's roles resolvable on the
// topology — so a bad row fails before a cluster is built.
func (sc Scenario) Validate() error {
	sc = sc.withDefaults()
	t := sc.Topology
	if sharded, baseline := t.Groups > 1, t.System != DepFastRaft; sharded && baseline || t.Spare && (sharded || baseline) {
		return fmt.Errorf("harness: only a single DepFastRaft group takes a spare, and a baseline deploys as one group")
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("harness: scenario %q has no phases", sc.Name)
	}
	for _, ph := range sc.Phases {
		if ph.Name == "" {
			return fmt.Errorf("harness: scenario %q has an unnamed phase", sc.Name)
		}
		if (ph.Until == nil) == (ph.For <= 0) {
			return fmt.Errorf("harness: phase %q needs exactly one of For and Until", ph.Name)
		}
		if ph.Until != nil && ph.Timeout <= 0 {
			return fmt.Errorf("harness: phase %q has Until without Timeout", ph.Name)
		}
		firstNode := func(g int) (string, bool) { return t.nodeNames()[g*t.Nodes], true }
		for _, a := range ph.Do {
			var err error
			if a.Op != Clear || a.On != "" {
				_, err = t.resolve(a.On, firstNode)
			}
			if a.Op == Asym && a.Peer != Clients && err == nil {
				_, err = t.resolve(a.Peer, firstNode)
			}
			if a.Pulse > 0 && a.Rest <= 0 && err == nil {
				err = fmt.Errorf("pulsed action on %q needs a Rest", a.On)
			}
			if err != nil {
				return fmt.Errorf("harness: phase %q: %w", ph.Name, err)
			}
		}
	}
	return nil
}
