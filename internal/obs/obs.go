// Package obs is the flight recorder of the reproduction: a single
// concurrency-safe, typed event stream that every layer publishes
// into — fault injections (failslow), detector verdict transitions
// (detect), sentinel actions and leader changes (raft), per-entry
// commit-pipeline spans (raft replication), and periodic gauge
// samples bridged from metrics. The paper's core evidence is
// temporal (Figures 2–3: when a fault lands, when the system
// notices, how it recovers); this package is the shared clock and
// timeline those figures need. On top of the stream sit a
// time-bucketed timeline aggregator (timeline.go), an MTTD/MTTR
// report analyzer (report.go), and JSONL/text exporters (export.go).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Type classifies an event. Values are stable strings so JSONL
// exports remain readable and diffable across versions.
type Type string

const (
	// FaultInjected / FaultCleared bracket a fail-slow fault on a node;
	// Detail names the fault (failslow.Fault.String()).
	FaultInjected Type = "fault.injected"
	FaultCleared  Type = "fault.cleared"

	// VerdictSuspect / VerdictCleared are detector transitions: Node is
	// the observer, Peer the judged node. A self-verdict (the sentinel's
	// own CPU/disk probes or a slow-vote majority) has Peer == Node and
	// Detail naming the signal.
	VerdictSuspect Type = "verdict.suspect"
	VerdictCleared Type = "verdict.cleared"

	// Handoff* trace a drained leadership transfer off a fail-slow
	// leader: Started when the sentinel freezes proposals, Drained when
	// the target caught up and TimeoutNow was sent, Completed when the
	// old leader observed itself deposed. Node is the abdicating
	// leader, Peer the transfer target.
	HandoffStarted   Type = "handoff.started"
	HandoffDrained   Type = "handoff.drained"
	HandoffCompleted Type = "handoff.completed"

	// QuarantineEnter / QuarantineExit trace follower quarantine: Node
	// is the leader, Peer the (un)quarantined follower. Exit is the
	// rehabilitation event.
	QuarantineEnter Type = "quarantine.enter"
	QuarantineExit  Type = "quarantine.exit"

	// MemberAdded / MemberRemoved trace dynamic membership: Node is the
	// leader, Peer the subject. Added's Detail is "learner" (join) or
	// "voter" (promotion); Removed's Detail is the subject's prior role.
	// Fields["index"] is the ConfChange entry's log index.
	MemberAdded   Type = "member.added"
	MemberRemoved Type = "member.removed"

	// LearnerCaughtUp marks a bootstrapping learner reaching the log
	// tip, gating its promotion; Node is the leader, Peer the learner.
	LearnerCaughtUp Type = "learner.caughtup"

	// ReplacementCompleted closes one automated replacement: Peer is the
	// removed replica, Detail the spare that took its place (or
	// "removed-only" when no spare was available).
	ReplacementCompleted Type = "replace.completed"

	// LeaderElected marks a node winning an election; Fields["term"].
	LeaderElected Type = "leader.elected"

	// CommitSpan is one commit batch's pipeline timing on the leader,
	// measured from its oldest member's propose time: Fields carry
	// per-stage durations in microseconds — append_us (propose → local
	// fsync durable), replicate_us (propose → fan-out dispatched to every
	// follower outbox), quorum_us (propose → quorum ack), apply_us
	// (quorum ack → applied), total_us — plus index (the batch's last
	// entry) and count (its entries). The leader's run queue has two
	// fields of its own: runq_us, the oldest member's wait from arriving
	// at the runtime to its handler's first turn (it ends before the
	// propose time, so it is outside total_us), and wake_us, from the
	// quorum event firing to the first member running again (the tail
	// of quorum_us).
	CommitSpan Type = "commit.span"

	// GaugeSample is a periodic bridge from metrics: Fields carry rate
	// (ops/sec over the sampling window), total (ops so far), p50_us /
	// p99_us (client-observed latency), quarantined (set size).
	GaugeSample Type = "gauge.sample"

	// SPGSnapshot is a periodic summary of the slowness propagation
	// graph built from wait traces so far: Fields carry nodes, edges,
	// singular and quorum edge counts plus records; Detail lists the
	// hottest edges.
	SPGSnapshot Type = "spg.snapshot"

	// ScheduleStarted / ScheduleVerdict bracket one explored fault
	// schedule: Detail carries the schedule's replay spec; the verdict's
	// Fields["pass"] is 1/0 and Fields["index"] the schedule's position
	// in the exploration budget.
	ScheduleStarted Type = "explore.schedule"
	ScheduleVerdict Type = "explore.verdict"

	// InvariantViolated marks one failed run invariant within a
	// schedule: Detail names the invariant and what it saw
	// (linearizability, acked-write loss, convergence, containment).
	InvariantViolated Type = "explore.violation"

	// AttributionSample is a periodic critical-path blame table from the
	// trace collector: Fields carry blame:<node>/<resource> shares in
	// [0,1] plus traces (analyzed) and tail (promoted) counts; Detail
	// names the top-blamed (node, resource) pair.
	AttributionSample Type = "attribution.sample"

	// HedgeFired / HedgeWon / HedgeCancelled trace request-path
	// speculation: Node is the hedging client, Peer the hedge target.
	// Fired's Detail carries the kind ("read"/"write") and the slow
	// primary; Won's Fields["latency_us"] is the winning hedge's
	// latency; Cancelled marks an abandoned hedge (Detail says why —
	// "primary won", a useless answer, or a double timeout).
	HedgeFired     Type = "hedge.fired"
	HedgeWon       Type = "hedge.won"
	HedgeCancelled Type = "hedge.cancelled"

	// Phase marks a harness experiment phase boundary (Detail names it:
	// warmup, pre-window, grace, post-window, clear, ...).
	Phase Type = "phase"

	// Meta is the export header record carrying stream metadata
	// (Fields["dropped"], Fields["events"]); ReadJSONL strips it, so
	// analyzers never see one.
	Meta Type = "meta"
)

// Event is one typed, timestamped occurrence on the unified timeline.
type Event struct {
	Time   time.Time
	Type   Type
	Node   string             // emitting node (server, client, or "harness")
	Peer   string             // subject peer, when the event is about one
	Shard  string             // owning shard/replica-group, when deployed sharded
	Detail string             // free-form annotation
	Fields map[string]float64 // numeric attributes (durations in µs)
}

// Field returns a numeric attribute (0 when absent).
func (e Event) Field(k string) float64 { return e.Fields[k] }

// Recorder accumulates events from every layer of a deployment. It is
// safe for concurrent use and safe to use as a nil pointer: every
// method no-ops on nil, so instrumentation sites need no guards.
//
// A recorder obtained from Tagged is a view onto its root: it shares
// the root's storage but stamps a shard ID onto every event emitted
// through it, so a multi-group deployment lands on one timeline with
// each event attributed to its replica group.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	limit   int
	dropped int64
	// droppedBy tallies discarded events by shard tag ("" for
	// untagged), so a sharded run can see which replica group's stream
	// the drop-oldest policy actually truncated.
	droppedBy map[string]int64

	// Tagged-view state: root points at the storage-owning recorder
	// (nil for a root) and shard is stamped onto emitted events.
	root  *Recorder
	shard string
}

// NewRecorder returns an empty recorder. limit bounds retained events
// (0 = unlimited); when full, the oldest half is dropped and counted,
// so long experiments keep recent behaviour and truncation is never
// silent.
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// Tagged returns a view of r that stamps shard onto every event
// emitted through it (events that already carry a shard keep it).
// Views share the root's storage: Events, Len, Dropped, and Reset all
// operate on the full stream. Nil-safe; Tagged of a view re-tags
// against the same root.
func (r *Recorder) Tagged(shard string) *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{root: r.target(), shard: shard}
}

// Shard returns the shard ID this recorder stamps ("" for a root).
func (r *Recorder) Shard() string {
	if r == nil {
		return ""
	}
	return r.shard
}

// target resolves the storage-owning recorder.
func (r *Recorder) target() *Recorder {
	if r.root != nil {
		return r.root
	}
	return r
}

// Emit appends one event, stamping Time if unset and — on tagged
// views — the shard ID. Nil-safe.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	if ev.Shard == "" {
		ev.Shard = r.shard
	}
	t := r.target()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limit > 0 && len(t.events) >= t.limit {
		half := len(t.events) / 2
		if t.droppedBy == nil {
			t.droppedBy = make(map[string]int64)
		}
		for _, old := range t.events[:half] {
			t.droppedBy[old.Shard]++
		}
		copy(t.events, t.events[half:])
		t.events = t.events[:len(t.events)-half]
		t.dropped += int64(half)
	}
	t.events = append(t.events, ev)
}

// Events returns a copy of the retained events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	t := r.target()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	t := r.target()
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events were discarded at the limit.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	t := r.target()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// DroppedByShard returns the per-shard breakdown of discarded events
// (key "" counts untagged events). Nil when nothing was dropped.
func (r *Recorder) DroppedByShard() map[string]int64 {
	if r == nil {
		return nil
	}
	t := r.target()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.droppedBy) == 0 {
		return nil
	}
	out := make(map[string]int64, len(t.droppedBy))
	for k, v := range t.droppedBy {
		out[k] = v
	}
	return out
}

// Reset discards all events and the drop count.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	t := r.target()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = nil
	t.dropped = 0
	t.droppedBy = nil
}

// ByTime returns events sorted by timestamp (stable, so same-instant
// events keep emission order). The input is not modified.
func ByTime(events []Event) []Event {
	out := make([]Event, len(events))
	copy(out, events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// Filter returns the events whose type is in keep.
func Filter(events []Event, keep ...Type) []Event {
	set := make(map[Type]bool, len(keep))
	for _, t := range keep {
		set[t] = true
	}
	var out []Event
	for _, e := range events {
		if set[e.Type] {
			out = append(out, e)
		}
	}
	return out
}

// FilterShard returns the events tagged with the given shard ID.
func FilterShard(events []Event, shard string) []Event {
	var out []Event
	for _, e := range events {
		if e.Shard == shard {
			out = append(out, e)
		}
	}
	return out
}

// String renders one event on one line, offsets relative to t0.
func (e Event) describe(t0 time.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s  %-18s %-10s", e.Time.Sub(t0).Round(time.Millisecond), e.Type, e.Node)
	if e.Shard != "" {
		fmt.Fprintf(&b, " [%s]", e.Shard)
	}
	if e.Peer != "" {
		fmt.Fprintf(&b, " peer=%s", e.Peer)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	if len(e.Fields) > 0 {
		keys := make([]string, 0, len(e.Fields))
		for k := range e.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%.0f", k, e.Fields[k])
		}
	}
	return b.String()
}
