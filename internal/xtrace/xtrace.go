// Package xtrace provides causal, per-request span trees for fail-slow
// attribution. A trace context is born at the client (harness worker or
// shard router), rides the wire inside kv.ClientRequest, and every
// stage of the commit pipeline — RPC attempt, run-queue wait (runq),
// WAL fsync, write stall, replication fan-out, quorum, apply — records
// a completed span annotated with the node that spent the time and the
// resource class it spent it on (disk, net, cpu, queue).
//
// Sampling is bounded and always-on: every request gets a (cheap)
// pending record, a 1-in-N head sample keeps its tree unconditionally,
// and any request finishing over a detector-informed deadline is
// tail-promoted so the slow tail is never lost to sampling. Retention
// is a fixed-size ring, so the collector is safe to leave attached to
// a production server indefinitely.
//
// The package is passive: plain data under a mutex, no goroutines, no
// waits, and every method is nil-receiver safe, so instrumentation
// sites need no guards (the same contract as obs.Recorder).
package xtrace

import (
	"sync"
	"time"

	"depfast/internal/detect"
)

// Resource classifies what a span was waiting on. Attribution
// aggregates blame per (node, resource) pair.
type Resource string

const (
	Disk  Resource = "disk"
	Net   Resource = "net"
	CPU   Resource = "cpu"
	Queue Resource = "queue"
)

// Context identifies a position in a trace: the trace plus the span
// that should parent whatever the callee records. It is small enough
// to copy freely and to serialize into request messages.
type Context struct {
	TraceID uint64
	Span    uint64 // parent span for spans recorded under this context
	Sampled bool   // head-sampled: the tree is kept regardless of latency
}

// Active reports whether the context belongs to a live trace.
func (c Context) Active() bool { return c.TraceID != 0 }

// Span is one completed, closed interval of work inside a trace.
// Parent links form the causal tree; overlap in time distinguishes
// "child ran inside parent" from sequential stages during the
// critical-path walk.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Node   string        `json:"node"`
	Res    Resource      `json:"res"`
	Start  time.Time     `json:"start"`
	End    time.Time     `json:"end"`
	Dur    time.Duration `json:"dur_us"`
}

// Trace is one finished request tree.
type Trace struct {
	ID       uint64        `json:"id"`
	Name     string        `json:"name"`
	Node     string        `json:"node"` // originating node
	Start    time.Time     `json:"start"`
	End      time.Time     `json:"end"`
	Dur      time.Duration `json:"dur_us"`
	Sampled  bool          `json:"sampled"`  // kept by the head sample
	Promoted bool          `json:"promoted"` // kept by tail promotion (over deadline)
	Foreign  bool          `json:"foreign"`  // observed server-side only (origin elsewhere)
	Spans    []Span        `json:"spans"`
}

// Collector constants. A request is tail-promoted once its duration
// reaches max(tailFloor, tailFactor × EWMA(duration)), the EWMA folded
// at durationAlpha: "slow" tracks the deployment, not a constant.
const (
	tailFactor    = 3
	tailFloor     = 25 * time.Millisecond
	durationAlpha = 1.0 / 8
	maxPending    = 4096            // in-flight traces; beyond it requests run untraced (Stats.Overflow)
	maxSpans      = 512             // spans kept per trace; later ones are dropped (Stats.DroppedSpans)
	foreignLinger = 3 * time.Second // idle time before a foreign fragment is finalized locally
)

// Config tunes a Collector. Zero fields take defaults.
type Config struct {
	// SampleEvery keeps every Nth request's full tree regardless of
	// latency (head sampling); default 64. <0 disables head sampling.
	SampleEvery int
	// MaxRetained bounds kept (sampled or promoted) traces; the ring
	// drops oldest. Default 512.
	MaxRetained int
}

func (c Config) withDefaults() Config {
	if c.SampleEvery == 0 {
		c.SampleEvery = 64
	}
	if c.MaxRetained <= 0 {
		c.MaxRetained = 512
	}
	return c
}

// Stats is a snapshot of collector counters.
type Stats struct {
	Started      int64         `json:"started"`
	Finished     int64         `json:"finished"`
	HeadSampled  int64         `json:"head_sampled"`
	TailPromoted int64         `json:"tail_promoted"`
	Kept         int           `json:"kept"`
	Pending      int           `json:"pending"`
	Overflow     int64         `json:"overflow"`
	DroppedSpans int64         `json:"dropped_spans"`
	EWMA         time.Duration `json:"ewma_us"`
	Deadline     time.Duration `json:"deadline_us"`
}

// pending is one in-flight trace accumulating spans.
type pending struct {
	name    string
	node    string
	start   time.Time
	root    uint64 // root span id (0 for foreign fragments)
	sampled bool
	foreign bool
	last    time.Time // last activity, for foreign linger sweep
	spans   []Span
	dropped int64
}

// Collector accumulates traces. The zero value is not usable; use
// NewCollector. A nil *Collector is a valid no-op sink.
type Collector struct {
	mu   sync.Mutex
	cfg  Config
	next uint64 // trace/span id source (shared space, odd/even irrelevant)

	pendings map[uint64]*pending
	kept     []Trace // ring, oldest first
	recent   map[uint64]struct{}
	recentQ  []uint64

	started, finished   int64
	headKept, tailKept  int64
	overflow, dropSpans int64

	durations detect.EWMA   // of finished request durations, ns
	deadline  time.Duration // explicit override (0 = derive from EWMA)

	sweepTick int

	// cached attribution for BlameShare (detector corroboration).
	blameAt     time.Time
	blameShares map[string]float64
	blameTraces int
}

// NewCollector returns a collector with cfg (zero fields defaulted).
func NewCollector(cfg Config) *Collector {
	return &Collector{
		cfg:      cfg.withDefaults(),
		pendings: make(map[uint64]*pending),
		recent:   make(map[uint64]struct{}),
	}
}

// NewSpanID allocates a unique span id, letting callers pre-wire
// parent links before the spans complete. Nil-safe (returns 0).
func (c *Collector) NewSpanID() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextIDLocked()
}

func (c *Collector) nextIDLocked() uint64 {
	c.next++
	return c.next
}

// StartRequest opens a new trace rooted at (name, node) and returns
// its context. The returned context's Span is the root span id; record
// callee spans under it. An inactive context (zero) means the request
// runs untraced (nil collector or pending table full) — all other
// methods tolerate it.
func (c *Collector) StartRequest(name, node string) Context {
	if c == nil {
		return Context{}
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pendings) >= maxPending {
		c.overflow++
		return Context{}
	}
	c.started++
	id := c.nextIDLocked()
	root := c.nextIDLocked()
	sampled := c.cfg.SampleEvery > 0 && (c.started-1)%int64(c.cfg.SampleEvery) == 0
	c.pendings[id] = &pending{
		name: name, node: node, start: now, root: root,
		sampled: sampled, last: now,
	}
	c.maybeSweepLocked(now)
	return Context{TraceID: id, Span: root, Sampled: sampled}
}

// Record appends a completed span to ctx's trace. sp.ID may be 0
// (auto-assigned) or a value from NewSpanID; sp.Parent should be a
// span id from the same trace (commonly ctx.Span). Returns the span
// id. A trace unknown to this collector (the root lives in another
// process) gets a foreign pending entry finalized after foreignLinger.
// Nil- and inactive-context safe.
func (c *Collector) Record(ctx Context, sp Span) uint64 {
	if c == nil || !ctx.Active() {
		return 0
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pendings[ctx.TraceID]
	if p == nil {
		if _, done := c.recent[ctx.TraceID]; done {
			return 0 // late span for an already-finished trace
		}
		if len(c.pendings) >= maxPending {
			c.overflow++
			return 0
		}
		p = &pending{name: sp.Name, node: sp.Node, start: sp.Start,
			sampled: ctx.Sampled, foreign: true}
		c.pendings[ctx.TraceID] = p
	}
	p.last = now
	if len(p.spans) >= maxSpans {
		p.dropped++
		c.dropSpans++
		return 0
	}
	if sp.ID == 0 {
		sp.ID = c.nextIDLocked()
	}
	if sp.End.Before(sp.Start) {
		sp.End = sp.Start
	}
	sp.Dur = sp.End.Sub(sp.Start)
	p.spans = append(p.spans, sp)
	c.maybeSweepLocked(now)
	return sp.ID
}

// Child derives a context that parents new spans under span id.
func (c Context) Child(span uint64) Context {
	return Context{TraceID: c.TraceID, Span: span, Sampled: c.Sampled}
}

// Finish closes a trace opened by StartRequest: the root span is
// materialized over [start, end], the latency EWMA is updated, and the
// tree is retained if head-sampled or tail-promoted (end-start over
// the deadline). Nil- and inactive-context safe.
func (c *Collector) Finish(ctx Context, end time.Time) {
	if c == nil || !ctx.Active() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pendings[ctx.TraceID]
	if p == nil {
		return
	}
	delete(c.pendings, ctx.TraceID)
	c.finalizeLocked(ctx.TraceID, p, end)
}

// finalizeLocked turns a pending entry into a Trace and retains it if
// sampled or over-deadline. Caller holds c.mu.
func (c *Collector) finalizeLocked(id uint64, p *pending, end time.Time) {
	c.finished++
	c.rememberLocked(id)
	if end.Before(p.start) {
		end = p.start
	}
	dur := end.Sub(p.start)
	deadline := c.deadlineLocked()
	c.durations.Add(float64(dur), durationAlpha)
	promoted := dur >= deadline
	if !p.sampled && !promoted {
		return
	}
	if p.sampled {
		c.headKept++
	}
	if promoted {
		c.tailKept++
	}
	t := Trace{
		ID: id, Name: p.name, Node: p.node,
		Start: p.start, End: end, Dur: dur,
		Sampled: p.sampled, Promoted: promoted, Foreign: p.foreign,
		Spans: p.spans,
	}
	if p.root != 0 {
		t.Spans = append(t.Spans, Span{
			ID: p.root, Name: p.name, Node: p.node,
			Start: p.start, End: end, Dur: dur,
		})
	}
	if len(c.kept) >= c.cfg.MaxRetained {
		n := copy(c.kept, c.kept[1:])
		c.kept = c.kept[:n]
	}
	c.kept = append(c.kept, t)
}

// rememberLocked marks a trace id as finished so late spans (an fsync
// completing after the quorum that no longer needed it) do not
// resurrect it as a foreign fragment.
func (c *Collector) rememberLocked(id uint64) {
	const cap = 4096
	if len(c.recentQ) >= cap {
		old := c.recentQ[0]
		c.recentQ = c.recentQ[1:]
		delete(c.recent, old)
	}
	c.recent[id] = struct{}{}
	c.recentQ = append(c.recentQ, id)
}

// maybeSweepLocked finalizes idle foreign fragments every few calls.
func (c *Collector) maybeSweepLocked(now time.Time) {
	c.sweepTick++
	if c.sweepTick%64 != 0 {
		return
	}
	c.sweepLocked(now)
}

// sweepLocked finalizes every foreign fragment idle past the linger.
// Called amortized from the record path and unconditionally from the
// read path (Traces/Stats): a server whose traffic stopped right after
// a burst must still surface that burst's fragments to a scraper,
// rather than holding them pending until the next write.
func (c *Collector) sweepLocked(now time.Time) {
	for id, p := range c.pendings {
		if !p.foreign || now.Sub(p.last) < foreignLinger {
			continue
		}
		delete(c.pendings, id)
		// Extent of the fragment = span envelope.
		start, end := p.start, p.last
		for _, sp := range p.spans {
			if start.IsZero() || sp.Start.Before(start) {
				start = sp.Start
			}
			if sp.End.After(end) {
				end = sp.End
			}
		}
		p.start = start
		c.finalizeLocked(id, p, end)
	}
}

// SetDeadline pins the tail-promotion deadline, overriding the
// EWMA-derived one (0 restores derivation). Harness experiments use
// this to couple promotion to the detector's view of "slow".
func (c *Collector) SetDeadline(d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline = d
}

// Deadline returns the current tail-promotion deadline.
func (c *Collector) Deadline() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadlineLocked()
}

func (c *Collector) deadlineLocked() time.Duration {
	if c.deadline > 0 {
		return c.deadline
	}
	return max(tailFloor, time.Duration(tailFactor*c.durations.Value()))
}

// Traces returns a copy of the retained traces, oldest first.
func (c *Collector) Traces() []Trace {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(time.Now())
	out := make([]Trace, len(c.kept))
	copy(out, c.kept)
	return out
}

// TailTraces returns only the tail-promoted retained traces.
func (c *Collector) TailTraces() []Trace {
	var out []Trace
	for _, t := range c.Traces() {
		if t.Promoted {
			out = append(out, t)
		}
	}
	return out
}

// Reset discards retained traces and counters (pending requests keep
// accumulating; their retention decision uses the fresh state).
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kept = nil
	c.started, c.finished = 0, 0
	c.headKept, c.tailKept = 0, 0
	c.overflow, c.dropSpans = 0, 0
	c.blameAt = time.Time{}
	c.blameShares = nil
}

// Stats snapshots the collector counters.
func (c *Collector) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(time.Now())
	return Stats{
		Started:      c.started,
		Finished:     c.finished,
		HeadSampled:  c.headKept,
		TailPromoted: c.tailKept,
		Kept:         len(c.kept),
		Pending:      len(c.pendings),
		Overflow:     c.overflow,
		DroppedSpans: c.dropSpans,
		EWMA:         time.Duration(c.durations.Value()),
		Deadline:     c.deadlineLocked(),
	}
}

// BlameShare returns the fraction of critical-path time recently
// attributed to node (any resource), for detector corroboration: a
// verdict on a peer whose blame share is high is corroborated; one
// whose share is negligible can be held to a stricter threshold. ok is
// false when there is not enough trace evidence to say either way.
//
// The attribution is recomputed at most every 250ms and served from
// cache otherwise, so this is safe to call from the detector's
// observation path.
func (c *Collector) BlameShare(node string) (share float64, ok bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	if c.blameShares == nil || now.Sub(c.blameAt) > 250*time.Millisecond {
		c.blameAt = now
		c.blameShares, c.blameTraces = nodeShares(c.kept)
	}
	if c.blameTraces < 8 {
		return 0, false
	}
	return c.blameShares[node], true
}

// nodeShares aggregates critical-path blame per node over traces and
// normalizes to shares of total blamed time.
func nodeShares(traces []Trace) (map[string]float64, int) {
	shares := make(map[string]float64)
	var total float64
	n := 0
	for i := range traces {
		segs := CriticalPath(traces[i])
		if len(segs) == 0 {
			continue
		}
		n++
		for _, s := range segs {
			ms := s.Dur.Seconds() * 1000
			shares[s.Node] += ms
			total += ms
		}
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, n
}
