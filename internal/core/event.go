package core

// EventDesc describes an event for tracing, verification, and
// slowness-propagation analysis.
type EventDesc struct {
	// Kind identifies the event family: "signal", "int", "result",
	// "rpc", "disk", "quorum", "and", "or", "never", ...
	Kind string
	// Quorum and Total give the k-of-n wait shape. Basic events are
	// 1-of-1; a QuorumEvent over 3 RPCs with majority 2 is 2-of-3.
	Quorum int
	Total  int
	// Peers names the remote parties this event waits on (node names),
	// empty for purely local events.
	Peers []string
}

// IsQuorum reports whether the wait tolerates stragglers, i.e. it can
// complete without all parties (k < n). The trace verifier colours
// quorum waits green and singular waits red, following Figure 2 of the
// paper.
func (d EventDesc) IsQuorum() bool { return d.Total > d.Quorum && d.Quorum > 0 }

// Event is a waiting point. All methods must be called while holding
// the runtime baton (from coroutine code or a posted completion).
type Event interface {
	// Ready reports whether a wait on this event may proceed.
	Ready() bool
	// Desc describes the event for tracing.
	Desc() EventDesc

	addWaiter(co *Coroutine)
	removeWaiter(co *Coroutine)
	addParent(p compound)
}

// compound is implemented by events composed of sub-events; children
// notify parents when they fire.
type compound interface {
	Event
	childFired(child Event)
}

// baseEvent carries the waiter and parent bookkeeping shared by all
// event types. Nearly every event has at most one waiter: it is held
// inline, and any further ones, in the order they came, sit behind a
// pointer, so the common event costs no slice and keeps a small size.
type baseEvent struct {
	waiter  *Coroutine
	more    *[]*Coroutine
	parents []compound
}

func (b *baseEvent) addWaiter(co *Coroutine) {
	if b.waiter == co {
		return
	}
	if b.more != nil {
		for _, w := range *b.more {
			if w == co {
				return
			}
		}
	}
	if b.waiter == nil && (b.more == nil || len(*b.more) == 0) {
		b.waiter = co
		return
	}
	if b.more == nil {
		b.more = new([]*Coroutine)
	}
	*b.more = append(*b.more, co)
}

func (b *baseEvent) removeWaiter(co *Coroutine) {
	if b.waiter == co {
		b.waiter = nil
		return
	}
	if b.more == nil {
		return
	}
	for i, w := range *b.more {
		if w == co {
			*b.more = append((*b.more)[:i], (*b.more)[i+1:]...)
			return
		}
	}
}

func (b *baseEvent) addParent(p compound) {
	b.parents = append(b.parents, p)
}

// wake moves all current waiters to the run queue's woken class and
// notifies parent compound events that self fired.
func (b *baseEvent) wake(self Event) {
	if co := b.waiter; co != nil {
		b.waiter = nil
		co.rt.makeReady(co, true)
	}
	if b.more != nil {
		for _, co := range *b.more {
			co.rt.makeReady(co, true)
		}
		*b.more = (*b.more)[:0]
	}
	for _, p := range b.parents {
		p.childFired(self)
	}
}

// SignalEvent is a one-shot basic event: not ready until Set is
// called, permanently ready after.
type SignalEvent struct {
	baseEvent
	set  bool
	kind string
}

// NewSignalEvent returns an unset signal.
func NewSignalEvent() *SignalEvent { return &SignalEvent{kind: "signal"} }

// Set marks the signal ready and wakes waiters. Idempotent.
func (s *SignalEvent) Set() {
	if s.set {
		return
	}
	s.set = true
	s.wake(s)
}

// Ready reports whether Set has been called.
func (s *SignalEvent) Ready() bool { return s.set }

// Desc implements Event.
func (s *SignalEvent) Desc() EventDesc { return EventDesc{Kind: s.kind, Quorum: 1, Total: 1} }

// IntEvent is a basic event over an integer variable: it is ready
// whenever the registered predicate holds. It models the paper's
// "waiting for a variable to be set [to a] certain value".
type IntEvent struct {
	baseEvent
	value int64
	pred  func(int64) bool
}

// NewIntEvent returns an event over an integer starting at initial;
// Ready when pred(value).
func NewIntEvent(initial int64, pred func(int64) bool) *IntEvent {
	return &IntEvent{value: initial, pred: pred}
}

// NewCounterEvent is a common special case: ready when the counter
// reaches at least target.
func NewCounterEvent(target int64) *IntEvent {
	return NewIntEvent(0, func(v int64) bool { return v >= target })
}

// Value returns the current value.
func (e *IntEvent) Value() int64 { return e.value }

// Set assigns the value, waking waiters if the predicate transitions
// to true.
func (e *IntEvent) Set(v int64) {
	was := e.Ready()
	e.value = v
	if !was && e.Ready() {
		e.wake(e)
	}
}

// Add increments the value by delta, waking waiters on a transition.
func (e *IntEvent) Add(delta int64) { e.Set(e.value + delta) }

// Ready reports whether the predicate holds for the current value.
func (e *IntEvent) Ready() bool { return e.pred(e.value) }

// Desc implements Event.
func (e *IntEvent) Desc() EventDesc { return EventDesc{Kind: "int", Quorum: 1, Total: 1} }

// ResultEvent is a one-shot event carrying a value or error; it is the
// substrate for RPC replies and disk-flush completions. The Kind and
// Peer fields make each wait attributable in traces — an RPCEvent is a
// ResultEvent with kind "rpc" and the callee node as peer.
type ResultEvent struct {
	baseEvent
	kind  string
	peers []string
	fired bool
	value interface{}
	err   error
}

// NewResultEvent returns a pending result with the given trace kind
// ("rpc", "disk", ...) and remote peers, if any.
func NewResultEvent(kind string, peers ...string) *ResultEvent {
	return &ResultEvent{kind: kind, peers: peers}
}

// Fire completes the event with a value or error and wakes waiters.
// Must run under the runtime baton (use Runtime.Post from I/O
// threads). Idempotent: only the first Fire takes effect.
func (r *ResultEvent) Fire(value interface{}, err error) {
	if r.fired {
		return
	}
	r.fired = true
	r.value = value
	r.err = err
	r.wake(r)
}

// Ready reports whether the result has arrived.
func (r *ResultEvent) Ready() bool { return r.fired }

// Value returns the completion value; valid once Ready.
func (r *ResultEvent) Value() interface{} { return r.value }

// Err returns the completion error; valid once Ready.
func (r *ResultEvent) Err() error { return r.err }

// Desc implements Event.
func (r *ResultEvent) Desc() EventDesc {
	return EventDesc{Kind: r.kind, Quorum: 1, Total: 1, Peers: r.peers}
}

// NeverEvent is never ready; useful for pure timeouts and tests.
type NeverEvent struct{ baseEvent }

// NewNeverEvent returns an event that never fires.
func NewNeverEvent() *NeverEvent { return &NeverEvent{} }

// Ready always reports false.
func (n *NeverEvent) Ready() bool { return false }

// Desc implements Event.
func (n *NeverEvent) Desc() EventDesc { return EventDesc{Kind: "never", Quorum: 1, Total: 1} }
