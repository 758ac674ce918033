// Package core implements the DepFast programming model from
// "Fail-slow fault tolerance needs programming support" (HotOS '21):
// coroutines with cooperative scheduling, an event abstraction for
// waiting points, and compound events (QuorumEvent, AndEvent, OrEvent)
// that make quorum-style waits — rather than singular waits — the unit
// of synchronization, preventing a single fail-slow component from
// straggling the system.
//
// # Execution model
//
// At most one piece of logic code runs at a time per Runtime: whoever
// holds the runtime's baton. The scheduler loop holds it between
// coroutines and runs a new coroutine's body on the loop's goroutine
// until the body returns or first parks, so a coroutine that never
// waits costs neither a goroutine nor a channel hand-off. A coroutine
// that parks keeps the goroutine it started on: a new goroutine takes
// over the scheduler loop, and from then on the coroutine and the
// scheduler pass the baton back and forth over channels. When that
// coroutine finishes, its goroutine ends with it. All event state is
// therefore mutated without locks, exactly like the single-threaded
// event loop + I/O helper threads design in the paper. External
// completions (RPC replies, disk flushes, timers) enter through
// Runtime.Post and are applied by the scheduler.
//
// # Scheduling order
//
// The run queue has two classes. A coroutine woken because an event it
// waited on became ready (quorum met, fsync done, RPC reply) runs before
// any coroutine that has not started yet: the work it carries was
// admitted a queue pass ago, and making it wait a second pass behind new
// arrivals is a wait point the programming model would otherwise put
// back after QuorumEvent removed it. Fresh spawns, Yield and timer
// wake-ups (Sleep, wait time-outs) share one FIFO behind the woken
// class, so every timer-paced loop keeps the cadence under load it had
// with a single queue. The bypass is bounded by construction: a
// scheduler round runs the woken class as it stood when the round began
// and then one coroutine of the FIFO class, so coroutines that wake each
// other forever still let a new request or a timer through every round.
package core

import (
	"container/heap"
	"errors"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStopped is returned from waits when the runtime shut down while
// the coroutine was parked.
var ErrStopped = errors.New("core: runtime stopped")

// Tracer receives wait records for runtime verification and slowness
// propagation analysis. Implementations must be safe for concurrent
// use only if shared across runtimes; a single runtime invokes its
// tracer from the scheduler baton only.
type Tracer interface {
	Record(WaitRecord)
}

// WaitRecord describes one completed wait on an event.
type WaitRecord struct {
	Node          string // runtime name
	CoroutineID   uint64
	CoroutineName string
	Event         EventDesc
	Start         time.Time
	End           time.Time
	TimedOut      bool
}

// Runtime is a DepFast runtime instance: a scheduler, its coroutines,
// a timer wheel, and a queue of externally posted completions.
type Runtime struct {
	name   string
	tracer Tracer

	post    chan func()
	timers  timerHeap
	yielded chan struct{}
	idle    *time.Timer // one timer, re-armed for every idle wait

	// The run queue (see "Scheduling order" above). wokenLeft is how
	// many of the woken class the current round may still run; inRound
	// is false between a round's FIFO turn and the next snapshot.
	woken     Deque[*Coroutine]
	fifo      Deque[*Coroutine]
	wokenLeft int
	inRound   bool
	now       time.Time // the loop's latest clock read
	start     time.Time // timer deadlines are offsets from it

	done     chan struct{} // closed when the loop has drained for Stop
	stopping atomic.Bool
	stopOnce sync.Once
	loopWG   sync.WaitGroup

	nextCoID  uint64
	live      int                     // coroutines spawned and not yet finished
	parkedSet map[*Coroutine]struct{} // coroutines parked on events/timers

	spawnedTotal atomic.Int64
	panics       atomic.Int64
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithTracer installs a tracer receiving every wait record.
func WithTracer(t Tracer) Option {
	return func(rt *Runtime) { rt.tracer = t }
}

// NewRuntime creates and starts a runtime named name. The name appears
// in traces and slowness propagation graphs (e.g. "s1", "client-3").
func NewRuntime(name string, opts ...Option) *Runtime {
	rt := &Runtime{
		name:      name,
		post:      make(chan func(), 4096),
		yielded:   make(chan struct{}),
		done:      make(chan struct{}),
		parkedSet: make(map[*Coroutine]struct{}),
		start:     time.Now(),
	}
	for _, o := range opts {
		o(rt)
	}
	rt.loopWG.Add(1)
	go rt.loop()
	return rt
}

// Name returns the runtime's name.
func (rt *Runtime) Name() string { return rt.name }

// SpawnCount returns the total number of coroutines ever spawned;
// useful for tests and trace aggregation sanity checks.
func (rt *Runtime) SpawnCount() int64 { return rt.spawnedTotal.Load() }

// PanicCount returns how many coroutines died by panic (each one was
// recovered and logged; the runtime kept running).
func (rt *Runtime) PanicCount() int64 { return rt.panics.Load() }

// Post schedules fn to run on the scheduler goroutine. It is the only
// safe entry point for code outside the runtime (I/O helper threads,
// transports, other runtimes). Post never blocks forever: if the
// runtime has stopped, fn is dropped.
func (rt *Runtime) Post(fn func()) {
	select {
	case <-rt.done:
		return
	default:
	}
	select {
	case rt.post <- fn:
	case <-rt.done:
	}
}

// Spawn launches fn as a new coroutine. Safe to call from any
// goroutine. The coroutine starts on the next scheduler iteration.
// Returns false if the runtime has stopped.
func (rt *Runtime) Spawn(name string, fn func(co *Coroutine)) bool {
	if rt.stopping.Load() {
		return false
	}
	rt.spawnedTotal.Add(1)
	at := time.Now()
	rt.Post(func() { rt.spawnLocked(name, fn, at) })
	return true
}

// spawnLocked creates the coroutine, ready since at; scheduler context
// only. Its body first runs when the scheduler reaches it (see begin).
func (rt *Runtime) spawnLocked(name string, fn func(co *Coroutine), at time.Time) {
	rt.nextCoID++
	co := &Coroutine{
		id:      rt.nextCoID,
		name:    name,
		rt:      rt,
		fn:      fn,
		queued:  true,
		readyAt: at,
		timer:   timer{idx: -1},
	}
	rt.live++
	rt.fifo.PushBack(co)
}

// Stop shuts the runtime down: parked coroutines are woken with
// ErrStopped, the scheduler loop drains and exits. Stop blocks until
// the loop has terminated. Safe to call multiple times.
func (rt *Runtime) Stop() {
	rt.stopOnce.Do(func() {
		rt.stopping.Store(true)
		// Nudge the loop in case it is blocked waiting for work.
		select {
		case rt.post <- func() {}:
		case <-rt.done:
		}
	})
	rt.loopWG.Wait()
}

// Stopped reports whether Stop has been requested.
func (rt *Runtime) Stopped() bool { return rt.stopping.Load() }

// loop is the scheduler: applies posted completions, fires timers and
// hands the baton to one ready coroutine at a time. It runs on one
// goroutine at a time and returns when that goroutine stops being the
// scheduler: a coroutine started on it parked, which made a new
// goroutine the scheduler, and has now finished. The loop that drains
// for Stop closes done.
func (rt *Runtime) loop() {
	for {
		// Apply all pending posted completions without blocking.
	drain:
		for {
			select {
			case fn := <-rt.post:
				fn()
			default:
				break drain
			}
		}

		// Fire expired timers. The one clock read per dispatch is also
		// the run-at stamp of the coroutine dispatched below.
		rt.now = time.Now()
		for now := rt.now.Sub(rt.start); len(rt.timers) > 0 && rt.timers[0].timer.at <= now; {
			rt.expire(heap.Pop(&rt.timers).(*Coroutine))
		}

		if rt.stopping.Load() {
			if rt.drainForStop() {
				close(rt.done)
				rt.loopWG.Done()
			}
			return
		}

		// Run one ready coroutine to completion of its next yield.
		if co := rt.next(); co != nil {
			if !rt.runOne(co) {
				return
			}
			continue
		}

		// Idle: block until a post arrives or the next timer expires.
		if len(rt.timers) > 0 {
			d := rt.timers[0].timer.at - time.Since(rt.start)
			if d <= 0 {
				continue
			}
			if rt.idle == nil {
				rt.idle = time.NewTimer(d)
			} else {
				rt.idle.Reset(d) // stopped or drained below, so Reset is safe
			}
			select {
			case fn := <-rt.post:
				if !rt.idle.Stop() {
					<-rt.idle.C
				}
				fn()
			case <-rt.idle.C:
			}
			continue
		}
		fn := <-rt.post
		fn()
	}
}

// next takes the coroutine whose turn it is off the run queue, nil when
// both classes are empty: the woken class as it stood when the round
// began, then one of the FIFO class, then a new round.
func (rt *Runtime) next() *Coroutine {
	for {
		if !rt.inRound {
			rt.wokenLeft, rt.inRound = rt.woken.Len(), true
		}
		if rt.wokenLeft > 0 {
			rt.wokenLeft--
			co, _ := rt.woken.PopFront()
			return co
		}
		rt.inRound = false
		if co, ok := rt.fifo.PopFront(); ok {
			return co
		}
		if rt.woken.Len() == 0 {
			return nil
		}
	}
}

// runOne hands the baton to co and takes it back when co parks or
// finishes. It reports whether the calling goroutine is still the
// scheduler; when it is not, the caller returns without touching the
// runtime again.
func (rt *Runtime) runOne(co *Coroutine) bool {
	co.queued = false
	co.runAt = rt.now
	if co.fn != nil {
		return rt.begin(co)
	}
	co.resume <- struct{}{}
	<-rt.yielded
	if co.finished {
		rt.live--
	}
	return true
}

// begin runs co's body on the scheduler's goroutine. A body that
// returns without parking leaves this goroutine the scheduler. One that
// parked made another goroutine the scheduler (see Coroutine.switchOut)
// and kept this one, so when it finishes it hands the baton back to
// that scheduler and this goroutine stops scheduling.
func (rt *Runtime) begin(co *Coroutine) (scheduler bool) {
	fn := co.fn
	co.fn = nil
	exited := true // still true in the deferred call only after runtime.Goexit
	defer func() {
		// A panicking coroutine must still return the baton or the
		// scheduler deadlocks. Recover, count, and finish — the
		// per-request isolation every server runtime needs.
		if r := recover(); r != nil {
			exited = false
			rt.panics.Add(1)
			log.Printf("core: runtime %s: coroutine %q panicked: %v\n%s",
				rt.name, co.name, r, debug.Stack())
		}
		co.finished = true
		if co.resume != nil {
			rt.yielded <- struct{}{}
			return
		}
		rt.live--
		if exited {
			// runtime.Goexit (t.FailNow in a test) ends this goroutine
			// with the body: the scheduler goes on on a new one.
			go rt.loop()
		}
		scheduler = true
	}()
	fn(co)
	exited = false
	return
}

// drainForStop wakes every parked coroutine with the stopped flag and
// runs coroutines until none remain (or they are unwakeable). It
// reports false when the calling goroutine stopped being the scheduler
// on the way: the goroutine that took over drains in its place.
func (rt *Runtime) drainForStop() bool {
	// Wake everything that is parked: parked coroutines are exactly
	// those registered as event waiters or timer owners; rather than
	// track a global set, we track parked coroutines directly.
	for pass := 0; pass < 1000; pass++ {
		for _, co := range rt.parked() {
			co.stopKill = true
			rt.makeReady(co, false)
		}
		progress := false
		for co := rt.next(); co != nil; co = rt.next() {
			if !rt.runOne(co) {
				return false
			}
			progress = true
		}
		// Apply any posts issued during unwinding (e.g. deferred cleanups).
	drain:
		for {
			select {
			case fn := <-rt.post:
				fn()
				progress = true
			default:
				break drain
			}
		}
		if rt.live == 0 {
			return true
		}
		if !progress {
			return true // coroutines stuck outside our control; abandon
		}
	}
	return true
}

// parked returns the coroutines currently parked on events or timers.
func (rt *Runtime) parked() []*Coroutine {
	out := make([]*Coroutine, 0, len(rt.parkedSet))
	for co := range rt.parkedSet {
		out = append(out, co)
	}
	return out
}

// makeReady moves a parked co to the run queue; scheduler/baton context
// only. woken says an event co waited on became ready, which puts it
// ahead of the FIFO class; a timer (fired by the loop right after its
// clock read) or shutdown queues it behind.
func (rt *Runtime) makeReady(co *Coroutine, woken bool) {
	if co.queued || co.finished {
		return
	}
	co.queued = true
	delete(rt.parkedSet, co)
	if woken {
		co.readyAt = time.Now()
		rt.woken.PushBack(co)
	} else {
		co.readyAt = rt.now
		rt.fifo.PushBack(co)
	}
}

// timer is a coroutine's one wakeup: the deadline of the timed wait or
// sleep it is in, as an offset from the runtime's start. A coroutine is
// in at most one wait at a time, so one timer, embedded in it, is all it
// ever needs. idx is its slot in the runtime's heap, -1 when unarmed.
type timer struct {
	at  time.Duration
	idx int
}

// timerHeap orders the coroutines with an armed timer by deadline.
type timerHeap []*Coroutine

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].timer.at < h[j].timer.at }
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].timer.idx, h[j].timer.idx = i, j
}
func (h *timerHeap) Push(x interface{}) {
	co := x.(*Coroutine)
	co.timer.idx = len(*h)
	*h = append(*h, co)
}
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	co := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	co.timer.idx = -1
	return co
}

// arm sets co's timer for at; baton context only.
func (rt *Runtime) arm(co *Coroutine, at time.Time) {
	co.timer.at = at.Sub(rt.start)
	heap.Push(&rt.timers, co)
}

// disarm takes co's timer out of the heap if it is still there: a wait
// that ends for any other reason leaves no timer behind.
func (rt *Runtime) disarm(co *Coroutine) {
	if co.timer.idx >= 0 {
		heap.Remove(&rt.timers, co.timer.idx)
	}
}

// expire wakes co, whose timer the loop just took off the heap, unless
// an event or shutdown already queued it.
func (rt *Runtime) expire(co *Coroutine) {
	if _, parked := rt.parkedSet[co]; parked {
		co.wakeTimedOut = true
		rt.makeReady(co, false)
	}
}
