package core

import "time"

// Coroutine is the unit of logic execution in a DepFast runtime. A
// coroutine runs only while holding the runtime's baton and yields it
// at every wait point, so logic code is effectively single-threaded
// per runtime. Coroutine methods must only be called from inside the
// coroutine's own function.
type Coroutine struct {
	id   uint64
	name string
	rt   *Runtime

	fn     func(co *Coroutine) // the body, until the scheduler starts it
	resume chan struct{}       // made at the first park (see switchOut)
	timer  timer               // armed for the timed wait or sleep in progress

	readyAt, runAt time.Time // last entered the run queue / last given the baton

	finished     bool
	queued       bool // sitting in the ready queue
	stopKill     bool // woken by shutdown; waits return ErrStopped
	wakeTimedOut bool // set by the timer before waking the coroutine
}

// ID returns the coroutine's runtime-unique id.
func (co *Coroutine) ID() uint64 { return co.id }

// Name returns the coroutine's name as given to Spawn.
func (co *Coroutine) Name() string { return co.name }

// Runtime returns the owning runtime.
func (co *Coroutine) Runtime() *Runtime { return co.rt }

// ReadyAt is when the coroutine last became runnable: Spawn was called,
// an event it waited on fired, its timer expired, or it yielded. RunAt
// is when it was then given the baton, so RunAt().Sub(ReadyAt()) is the
// run-queue wait that preceded the code now running.
func (co *Coroutine) ReadyAt() time.Time { return co.readyAt }
func (co *Coroutine) RunAt() time.Time   { return co.runAt }

// park yields the baton and blocks until the scheduler resumes us.
func (co *Coroutine) park() {
	co.rt.parkedSet[co] = struct{}{}
	co.switchOut()
}

// switchOut gives the baton back to the scheduler and blocks until it
// is handed back. At the first park the body is still running on the
// scheduler's own goroutine (see Runtime.begin): it keeps that
// goroutine, and a new one takes over the scheduler loop.
func (co *Coroutine) switchOut() {
	if co.resume == nil {
		co.resume = make(chan struct{})
		go co.rt.loop()
	} else {
		co.rt.yielded <- struct{}{}
	}
	<-co.resume
}

// Yield gives up the baton but stays runnable, letting other ready
// coroutines run first. Returns ErrStopped once shutdown has begun: a
// yielding coroutine is never parked, so shutdown cannot mark it, and
// a loop on Yield must see the stop itself for Stop to return.
func (co *Coroutine) Yield() error {
	co.queued = true
	co.readyAt = time.Now()
	co.rt.fifo.PushBack(co)
	co.switchOut()
	if co.stopKill || co.rt.stopping.Load() {
		co.stopKill = true
		return ErrStopped
	}
	return nil
}

// WaitResult reports how a timed wait ended.
type WaitResult int

const (
	// WaitReady: the event became ready.
	WaitReady WaitResult = iota
	// WaitTimeout: the deadline expired first.
	WaitTimeout
	// WaitStopped: the runtime shut down.
	WaitStopped
)

// String renders the result for logs.
func (r WaitResult) String() string {
	switch r {
	case WaitReady:
		return "ready"
	case WaitTimeout:
		return "timeout"
	case WaitStopped:
		return "stopped"
	}
	return "unknown"
}

// Wait blocks the coroutine until ev is ready. This is the paper's
// singular wait: waiting here on a cross-node event is exactly the
// slowness-propagation hazard that QuorumEvent exists to remove, and
// the trace verifier flags such waits. Returns ErrStopped if the
// runtime shuts down while parked.
func (co *Coroutine) Wait(ev Event) error {
	start := time.Now()
	for !ev.Ready() {
		if co.stopKill || co.rt.stopping.Load() {
			co.stopKill = true
			co.trace(ev, start, false)
			return ErrStopped
		}
		ev.addWaiter(co)
		co.park()
		ev.removeWaiter(co)
		if co.stopKill {
			co.trace(ev, start, false)
			return ErrStopped
		}
	}
	co.trace(ev, start, false)
	return nil
}

// WaitFor blocks until ev is ready or the timeout elapses.
func (co *Coroutine) WaitFor(ev Event, timeout time.Duration) WaitResult {
	return co.waitForDesc(ev, timeout, nil)
}

// waitForDesc is WaitFor with an optional trace-description source,
// so wrapper events (e.g. the Or over a quorum and its reject view)
// are recorded as the wait they represent. The description is read when
// the wait ends: a quorum joined before its fan-out (see Reshape) is
// recorded with the shape and peers it finally had.
func (co *Coroutine) waitForDesc(ev Event, timeout time.Duration, desc Event) WaitResult {
	start := time.Now()
	res := co.timedWait(ev, start.Add(timeout))
	co.rt.disarm(co)
	co.traceDesc(ev, desc, start, res == WaitTimeout)
	return res
}

// timedWait is the wait loop of waitForDesc; the caller disarms the
// timer it may leave armed.
func (co *Coroutine) timedWait(ev Event, deadline time.Time) WaitResult {
	for !ev.Ready() {
		if co.stopKill || co.rt.stopping.Load() {
			co.stopKill = true
			return WaitStopped
		}
		if !time.Now().Before(deadline) {
			return WaitTimeout
		}
		if co.timer.idx < 0 {
			co.rt.arm(co, deadline)
		}
		ev.addWaiter(co)
		co.park()
		ev.removeWaiter(co)
		if co.stopKill {
			return WaitStopped
		}
		if co.wakeTimedOut {
			co.wakeTimedOut = false
			if !ev.Ready() {
				return WaitTimeout
			}
		}
	}
	return WaitReady
}

// Sleep parks the coroutine for d. Returns ErrStopped on shutdown.
func (co *Coroutine) Sleep(d time.Duration) error {
	if co.stopKill || co.rt.stopping.Load() {
		co.stopKill = true
		return ErrStopped
	}
	deadline := time.Now().Add(d)
	for {
		co.rt.arm(co, deadline)
		co.park()
		co.rt.disarm(co)
		co.wakeTimedOut = false
		if co.stopKill {
			return ErrStopped
		}
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

// trace emits a wait record to the runtime's tracer, if any.
func (co *Coroutine) trace(ev Event, start time.Time, timedOut bool) {
	co.traceDesc(ev, nil, start, timedOut)
}

// traceDesc is trace with an optional description source.
func (co *Coroutine) traceDesc(ev Event, desc Event, start time.Time, timedOut bool) {
	if co.rt.tracer == nil {
		return
	}
	if desc != nil {
		ev = desc
	}
	co.rt.tracer.Record(WaitRecord{
		Node:          co.rt.name,
		CoroutineID:   co.id,
		CoroutineName: co.name,
		Event:         ev.Desc(),
		Start:         start,
		End:           time.Now(),
		TimedOut:      timedOut,
	})
}

// QuorumOutcome reports how a quorum wait resolved.
type QuorumOutcome int

const (
	// QuorumOK: the ack quorum was reached.
	QuorumOK QuorumOutcome = iota
	// QuorumRejected: minority-plus-one rejects — the quorum can no
	// longer succeed.
	QuorumRejected
	// QuorumTimeout: neither condition within the deadline.
	QuorumTimeout
	// QuorumStopped: runtime shutdown.
	QuorumStopped
)

// String renders the outcome for logs.
func (o QuorumOutcome) String() string {
	switch o {
	case QuorumOK:
		return "ok"
	case QuorumRejected:
		return "rejected"
	case QuorumTimeout:
		return "timeout"
	case QuorumStopped:
		return "stopped"
	}
	return "unknown"
}

// Select waits until any of evs is ready or the timeout expires,
// returning the index of the first ready event (lowest index wins on
// ties) and how the wait ended. Sugar over an OrEvent, for protocol
// code that branches on which condition resolved.
func (co *Coroutine) Select(timeout time.Duration, evs ...Event) (int, WaitResult) {
	if len(evs) == 0 {
		return -1, WaitTimeout
	}
	or := NewOrEvent(evs...)
	res := co.WaitFor(or, timeout)
	if res != WaitReady {
		return -1, res
	}
	for i, ev := range evs {
		if ev.Ready() {
			return i, WaitReady
		}
	}
	return -1, WaitReady // unreachable: or.Ready implies a ready child
}

// WaitQuorum waits until q reaches its ack quorum, becomes
// unsatisfiable (minority-plus-one rejects), or the timeout expires.
// This is the canonical fail-slow-tolerant wait: the coroutine never
// blocks on any single sub-event.
func (co *Coroutine) WaitQuorum(q *QuorumEvent, timeout time.Duration) QuorumOutcome {
	res := co.waitForDesc(NewOrEvent(q, q.RejectEvent()), timeout, q)
	switch res {
	case WaitStopped:
		return QuorumStopped
	case WaitTimeout:
		return QuorumTimeout
	}
	if q.Ready() {
		return QuorumOK
	}
	return QuorumRejected
}
