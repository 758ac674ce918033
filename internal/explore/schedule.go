// Package explore is the deterministic fail-slow schedule explorer:
// it enumerates fault schedules from a seed — which resource slows
// down, on which node(s), at what intensity, injected and cleared at
// which logical step, including correlated faults within a failure
// domain, asymmetric one-way network slowness, and membership churn
// overlapping a fault — drives a full cluster through each schedule
// under an audit client population, and checks run invariants after
// every schedule: linearizability of acknowledged operations, zero
// acked-write loss, blast-radius containment for sharded runs, and
// sentinel convergence to a terminal healthy configuration. Failing
// schedules are shrunk to a minimal reproduction and re-emitted as a
// one-line replay spec that `depfast-explore -replay` re-executes.
//
// This is the paper's §3.3 testing-tool direction taken past random
// injection: schedules are first-class values — enumerable,
// comparable, replayable, shrinkable.
package explore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Topo selects the deployment a schedule runs against.
type Topo int

// Topologies: a single 3-replica Raft group (plus a standby spare for
// churn schedules), or a sharded 2×3 deployment routed through the
// shard frontend.
const (
	TopoRaft Topo = iota
	TopoShard
)

// String names the topology as in replay specs.
func (t Topo) String() string {
	if t == TopoShard {
		return "shard"
	}
	return "raft"
}

// FaultKind is the schedule vocabulary — the four Table 1 resource
// families plus the two scenario actions random injection cannot
// express.
type FaultKind int

// Schedule fault kinds.
const (
	FaultCPU FaultKind = iota
	FaultDisk
	FaultNet
	FaultMem
	// FaultAsym is an asymmetric one-way network delay: only traffic
	// from Nodes toward Peer slows down; the reverse path stays fast.
	FaultAsym
	// FaultChurn removes Nodes[0] from the membership and joins the
	// standby spare in its place while the rest of the schedule runs.
	FaultChurn
)

var faultKindNames = map[FaultKind]string{
	FaultCPU:   "cpu",
	FaultDisk:  "disk",
	FaultNet:   "net",
	FaultMem:   "mem",
	FaultAsym:  "asym",
	FaultChurn: "churn",
}

// String names the kind as in replay specs.
func (k FaultKind) String() string {
	if s, ok := faultKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled action: inject Kind on Nodes at logical step
// Step, clear it at step Until (0 = hold until the run ends). Multiple
// nodes in one event model a correlated fault — one failure domain
// (a rack switch, a shared disk shelf) degrading several replicas at
// the same instant.
type Event struct {
	Step  int
	Kind  FaultKind
	Nodes []string
	// Peer is the delay destination for FaultAsym.
	Peer string
	// Scale multiplies the base Table 1 intensity (1 = as published).
	Scale float64
	// Until is the clearing step; 0 holds the fault to the end of the
	// schedule (it is still cleared before invariants are checked).
	Until int
}

// Schedule is one complete scenario: a topology, a step count, and the
// events applied at those steps. Schedules are pure data — running one
// is the runner's job — so they can be generated, compared, printed,
// parsed, and shrunk.
type Schedule struct {
	Seed  int64
	Topo  Topo
	Steps int
	// Class labels the generator family that produced the schedule
	// (single, correlated, asym, churn, storm, replay); informational.
	Class  string
	Events []Event
}

// Spec renders the schedule as its one-line replay spec:
//
//	seed=7 topo=raft steps=6 | disk@1 s2 x1 until=4; asym@2 s3>s1 x1; churn@3 s2
//
// The spec is the schedule's identity: Parse(Spec()) round-trips, and
// `depfast-explore -replay "<spec>"` re-executes it deterministically.
func (s Schedule) Spec() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d topo=%s steps=%d", s.Seed, s.Topo, s.Steps)
	if len(s.Events) > 0 {
		b.WriteString(" |")
		for i, ev := range s.Events {
			if i > 0 {
				b.WriteString(";")
			}
			fmt.Fprintf(&b, " %s@%d %s", ev.Kind, ev.Step, strings.Join(ev.Nodes, ","))
			if ev.Kind == FaultAsym {
				fmt.Fprintf(&b, ">%s", ev.Peer)
			}
			if ev.Kind != FaultChurn {
				fmt.Fprintf(&b, " x%s", trimFloat(ev.Scale))
				if ev.Until > 0 {
					fmt.Fprintf(&b, " until=%d", ev.Until)
				}
			}
		}
	}
	return b.String()
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', 4, 64)
}

// Parse reads a replay spec produced by Spec (whitespace-tolerant).
func Parse(spec string) (Schedule, error) {
	s := Schedule{Class: "replay"}
	head, tail, _ := strings.Cut(spec, "|")
	for _, tok := range strings.Fields(head) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return s, fmt.Errorf("explore: bad header token %q", tok)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return s, fmt.Errorf("explore: bad seed %q", v)
			}
			s.Seed = n
		case "topo":
			switch v {
			case "raft":
				s.Topo = TopoRaft
			case "shard":
				s.Topo = TopoShard
			default:
				return s, fmt.Errorf("explore: unknown topo %q", v)
			}
		case "steps":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return s, fmt.Errorf("explore: bad steps %q", v)
			}
			s.Steps = n
		default:
			return s, fmt.Errorf("explore: unknown header key %q", k)
		}
	}
	if s.Steps == 0 {
		return s, fmt.Errorf("explore: spec missing steps")
	}
	for _, part := range strings.Split(tail, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return s, err
		}
		if ev.Step >= s.Steps || ev.Until >= s.Steps {
			return s, fmt.Errorf("explore: event %q outside steps=%d", part, s.Steps)
		}
		s.Events = append(s.Events, ev)
	}
	return s, nil
}

// parseEvent reads one "<kind>@<step> <nodes>[><peer>] [x<scale>]
// [until=<step>]" clause.
func parseEvent(part string) (Event, error) {
	fields := strings.Fields(part)
	if len(fields) < 2 {
		return Event{}, fmt.Errorf("explore: bad event %q", part)
	}
	kindStr, stepStr, ok := strings.Cut(fields[0], "@")
	if !ok {
		return Event{}, fmt.Errorf("explore: event %q missing @step", part)
	}
	ev := Event{Scale: 1}
	found := false
	for k, name := range faultKindNames {
		if name == kindStr {
			ev.Kind, found = k, true
			break
		}
	}
	if !found {
		return Event{}, fmt.Errorf("explore: unknown fault kind %q", kindStr)
	}
	step, err := strconv.Atoi(stepStr)
	if err != nil || step < 0 {
		return Event{}, fmt.Errorf("explore: bad step in %q", part)
	}
	ev.Step = step

	nodes := fields[1]
	if ev.Kind == FaultAsym {
		src, dst, ok := strings.Cut(nodes, ">")
		if !ok || dst == "" {
			return Event{}, fmt.Errorf("explore: asym event %q needs src>dst", part)
		}
		nodes, ev.Peer = src, dst
	}
	ev.Nodes = strings.Split(nodes, ",")
	for _, n := range ev.Nodes {
		if n == "" {
			return Event{}, fmt.Errorf("explore: empty node in %q", part)
		}
	}

	for _, f := range fields[2:] {
		switch {
		case strings.HasPrefix(f, "x"):
			sc, err := strconv.ParseFloat(f[1:], 64)
			if err != nil || sc <= 0 {
				return Event{}, fmt.Errorf("explore: bad scale in %q", part)
			}
			ev.Scale = sc
		case strings.HasPrefix(f, "until="):
			u, err := strconv.Atoi(f[len("until="):])
			if err != nil || u <= ev.Step {
				return Event{}, fmt.Errorf("explore: bad until in %q (must exceed step)", part)
			}
			ev.Until = u
		default:
			return Event{}, fmt.Errorf("explore: unknown event field %q", f)
		}
	}
	return ev, nil
}

// Validate checks internal consistency (steps bound events, nodes
// non-empty, churn at most once).
func (s Schedule) Validate() error {
	if s.Steps <= 0 {
		return fmt.Errorf("explore: schedule needs steps > 0")
	}
	churns := 0
	for _, ev := range s.Events {
		if ev.Step < 0 || ev.Step >= s.Steps {
			return fmt.Errorf("explore: event step %d outside [0,%d)", ev.Step, s.Steps)
		}
		if ev.Until != 0 && (ev.Until <= ev.Step || ev.Until >= s.Steps) {
			return fmt.Errorf("explore: event until %d invalid for step %d", ev.Until, ev.Step)
		}
		if len(ev.Nodes) == 0 {
			return fmt.Errorf("explore: event with no nodes")
		}
		if ev.Kind == FaultAsym && ev.Peer == "" {
			return fmt.Errorf("explore: asym event needs a peer")
		}
		if ev.Kind == FaultChurn {
			churns++
		}
	}
	if churns > 1 {
		return fmt.Errorf("explore: at most one churn event per schedule")
	}
	if churns > 0 && s.Topo != TopoRaft {
		return fmt.Errorf("explore: churn requires the raft topology")
	}
	return nil
}

// FaultedNodes returns the distinct nodes any event targets, sorted.
func (s Schedule) FaultedNodes() []string {
	set := map[string]bool{}
	for _, ev := range s.Events {
		for _, n := range ev.Nodes {
			set[n] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
