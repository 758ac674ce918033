package core

// Compound events combine sub-events into richer waiting conditions.
// They can be nested arbitrarily: an AndEvent may contain QuorumEvents
// whose children are RPC ResultEvents, expressing conditions like the
// paper's fast-path/slow-path voting without a single callback.

// QuorumEvent waits for k of n sub-events, tolerating fail-slow faults
// in any n−k of them. Sub-events added with AddJudged carry a judge
// classifying the completion as an ack or a reject; plain Add counts
// any completion as an ack.
//
// Two conditions are exposed:
//
//   - Ready():       acks ≥ k                ("majority-ok")
//   - RejectReady(): rejects ≥ n−k+1         ("minority-plus-one-reject"
//     — the quorum can no longer be satisfied)
//
// RejectEvent returns a view event for the second condition so both
// can be composed under Or/And events.
type QuorumEvent struct {
	baseEvent
	total   int
	quorum  int
	acks    int
	rejects int
	peers   []string

	added  int
	judges map[Event]func(value interface{}, err error) bool

	reject *quorumRejectView
}

// NewQuorumEvent returns a quorum wait over total expected sub-events
// needing quorum acks. Panics if quorum is not in [1, total].
func NewQuorumEvent(total, quorum int) *QuorumEvent {
	if quorum < 1 || quorum > total {
		panic("core: quorum must be in [1, total]")
	}
	q := &QuorumEvent{total: total, quorum: quorum}
	q.reject = &quorumRejectView{q: q}
	return q
}

// NewMajorityEvent returns a QuorumEvent needing a strict majority of
// total.
func NewMajorityEvent(total int) *QuorumEvent {
	return NewQuorumEvent(total, total/2+1)
}

// Reshape re-declares the k-of-n shape of a quorum that coroutines
// joined before its fan-out was known (a group-commit batch collecting
// members while its flow-control gate is closed). Only valid while
// nothing has been added or tallied.
func (q *QuorumEvent) Reshape(total, quorum int) {
	if quorum < 1 || quorum > total {
		panic("core: quorum must be in [1, total]")
	}
	if q.added > 0 || q.acks > 0 || q.rejects > 0 {
		panic("core: Reshape after a sub-event or tally was added")
	}
	q.total, q.quorum = total, quorum
}

// Add registers a sub-event whose completion counts as an ack.
func (q *QuorumEvent) Add(child Event) {
	q.addChild(child, nil)
}

// AddJudged registers a completion-carrying sub-event; judge inspects
// the completion value/error and returns true for ack, false for
// reject. A nil judge treats errors as rejects and everything else as
// acks.
func (q *QuorumEvent) AddJudged(child *ResultEvent, judge func(value interface{}, err error) bool) {
	if judge == nil {
		judge = func(_ interface{}, err error) bool { return err == nil }
	}
	q.addChild(child, judge)
}

func (q *QuorumEvent) addChild(child Event, judge func(interface{}, error) bool) {
	q.added++
	for _, p := range child.Desc().Peers {
		q.peers = append(q.peers, p)
	}
	if judge != nil {
		if q.judges == nil {
			q.judges = make(map[Event]func(interface{}, error) bool)
		}
		q.judges[child] = judge
	}
	child.addParent(q)
	if child.Ready() {
		q.childFired(child)
	}
}

// AddAck directly records an ack without a sub-event; for logic that
// tallies replies itself.
func (q *QuorumEvent) AddAck() {
	wasReady := q.Ready()
	q.acks++
	if !wasReady && q.Ready() {
		q.wake(q)
	}
}

// AddReject directly records a reject without a sub-event.
func (q *QuorumEvent) AddReject() {
	was := q.RejectReady()
	q.rejects++
	if !was && q.RejectReady() {
		q.reject.wake(q.reject)
		q.wake(q) // wake waiters so WaitFor loops can observe the reject
	}
}

// childFired classifies and tallies a completed sub-event.
func (q *QuorumEvent) childFired(child Event) {
	ack := true
	if judge, ok := q.judges[child]; ok {
		if re, isRes := child.(*ResultEvent); isRes {
			ack = judge(re.Value(), re.Err())
		}
	}
	if ack {
		q.AddAck()
	} else {
		q.AddReject()
	}
}

// Ready reports acks ≥ quorum.
func (q *QuorumEvent) Ready() bool { return q.acks >= q.quorum }

// RejectReady reports that enough rejects have accumulated that the
// ack quorum can never be reached: rejects ≥ total − quorum + 1.
func (q *QuorumEvent) RejectReady() bool { return q.rejects >= q.total-q.quorum+1 }

// RejectEvent returns the composable view of the reject condition.
func (q *QuorumEvent) RejectEvent() Event { return q.reject }

// Acks returns the current ack tally; Rejects the reject tally.
func (q *QuorumEvent) Acks() int    { return q.acks }
func (q *QuorumEvent) Rejects() int { return q.rejects }

// Quorum returns k; Total returns n.
func (q *QuorumEvent) Quorum() int { return q.quorum }
func (q *QuorumEvent) Total() int  { return q.total }

// Desc implements Event; the k-of-n shape makes quorum waits
// distinguishable in traces (green edges in the SPG).
func (q *QuorumEvent) Desc() EventDesc {
	return EventDesc{Kind: "quorum", Quorum: q.quorum, Total: q.total, Peers: q.peers}
}

// quorumRejectView exposes RejectReady as an Event.
type quorumRejectView struct {
	baseEvent
	q *QuorumEvent
}

func (v *quorumRejectView) Ready() bool { return v.q.RejectReady() }
func (v *quorumRejectView) Desc() EventDesc {
	return EventDesc{
		Kind:   "quorum-reject",
		Quorum: v.q.total - v.q.quorum + 1,
		Total:  v.q.total,
		Peers:  v.q.peers,
	}
}

// AndEvent is ready when all of its sub-events are ready.
type AndEvent struct {
	baseEvent
	children []Event
	fired    bool
}

// NewAndEvent composes children conjunctively.
func NewAndEvent(children ...Event) *AndEvent {
	a := &AndEvent{children: children}
	for _, c := range children {
		c.addParent(a)
	}
	return a
}

// Add appends another child; usable before waiting begins.
func (a *AndEvent) Add(child Event) {
	a.children = append(a.children, child)
	child.addParent(a)
	if child.Ready() {
		a.childFired(child)
	}
}

// Ready reports whether every child is ready.
func (a *AndEvent) Ready() bool {
	for _, c := range a.children {
		if !c.Ready() {
			return false
		}
	}
	return len(a.children) > 0
}

func (a *AndEvent) childFired(Event) {
	if !a.fired && a.Ready() {
		a.fired = true
		a.wake(a)
	}
}

// Desc implements Event: an n-of-n wait over the union of child peers.
func (a *AndEvent) Desc() EventDesc {
	var peers []string
	for _, c := range a.children {
		peers = append(peers, c.Desc().Peers...)
	}
	n := len(a.children)
	return EventDesc{Kind: "and", Quorum: n, Total: n, Peers: peers}
}

// OrEvent is ready when any of its sub-events is ready.
type OrEvent struct {
	baseEvent
	children []Event
}

// NewOrEvent composes children disjunctively.
func NewOrEvent(children ...Event) *OrEvent {
	o := &OrEvent{children: children}
	for _, c := range children {
		c.addParent(o)
	}
	return o
}

// Add appends another child; usable before waiting begins.
func (o *OrEvent) Add(child Event) {
	o.children = append(o.children, child)
	child.addParent(o)
	if child.Ready() {
		o.childFired(child)
	}
}

// Ready reports whether any child is ready.
func (o *OrEvent) Ready() bool {
	for _, c := range o.children {
		if c.Ready() {
			return true
		}
	}
	return false
}

func (o *OrEvent) childFired(Event) {
	if o.Ready() {
		o.wake(o)
	}
}

// Desc implements Event: a 1-of-n wait over the union of child peers.
func (o *OrEvent) Desc() EventDesc {
	var peers []string
	for _, c := range o.children {
		peers = append(peers, c.Desc().Peers...)
	}
	return EventDesc{Kind: "or", Quorum: 1, Total: len(o.children), Peers: peers}
}
