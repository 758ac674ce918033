package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

// The scheduling-order tests build their run-queue state from one
// coroutine that keeps the baton while it spawns (spawnLocked), fires
// events and lets timers expire, so the order everything was queued in
// is exact; `order` is appended to under the baton and read after the
// last coroutine closed `done`.

// awaitDone fails the test if the scenario does not finish.
func awaitDone(t *testing.T, done chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scenario did not finish within 10s")
	}
}

// spin holds the baton (and the scheduler) for d, as a handler doing
// processor work does.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// TestWokenRunsBeforeNotYetStarted: coroutines whose event fired run
// before coroutines spawned earlier that have not started, and each
// class keeps its own FIFO order.
func TestWokenRunsBeforeNotYetStarted(t *testing.T) {
	rt := NewRuntime("sched")
	defer rt.Stop()
	var order []string
	done := make(chan struct{})
	ev := NewSignalEvent()
	parked := make(chan struct{}, 2)
	for _, name := range []string{"woken-1", "woken-2"} {
		name := name
		rt.Spawn(name, func(co *Coroutine) {
			parked <- struct{}{} // no yield between here and the park
			_ = co.Wait(ev)
			order = append(order, name)
		})
	}
	<-parked
	<-parked
	rt.Spawn("setup", func(co *Coroutine) {
		for i := 1; i <= 3; i++ {
			name := fmt.Sprintf("fresh-%d", i)
			rt.spawnLocked(name, func(*Coroutine) {
				order = append(order, name)
				if name == "fresh-3" {
					close(done)
				}
			}, time.Now())
		}
		ev.Set() // after the three were queued
	})
	awaitDone(t, done)
	want := []string{"woken-1", "woken-2", "fresh-1", "fresh-2", "fresh-3"}
	if !slices.Equal(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
}

// TestTimersAndYieldStayBehindEarlierSpawns: only an event that became
// ready jumps the queue. A Sleep that expired, a wait that timed out and
// a Yield all queue behind the coroutines spawned before them, in the
// order they became runnable.
func TestTimersAndYieldStayBehindEarlierSpawns(t *testing.T) {
	rt := NewRuntime("sched")
	defer rt.Stop()
	var order []string
	done := make(chan struct{})
	ev := NewSignalEvent()
	rt.Spawn("setup", func(co *Coroutine) {
		now := time.Now()
		rt.spawnLocked("sleeper", func(sc *Coroutine) {
			_ = sc.Sleep(20 * time.Millisecond)
			order = append(order, "sleeper")
		}, now)
		rt.spawnLocked("timed-out", func(tc *Coroutine) {
			if res := tc.WaitFor(NewNeverEvent(), 30*time.Millisecond); res != WaitTimeout {
				t.Errorf("WaitFor = %v, want timeout", res)
			}
			order = append(order, "timed-out")
			close(done)
		}, now)
		rt.spawnLocked("woken", func(wc *Coroutine) {
			_ = wc.Wait(ev)
			order = append(order, "woken")
		}, now)
		_ = co.Yield() // the three are parked, their timers armed
		for _, name := range []string{"fresh-1", "fresh-2"} {
			name := name
			rt.spawnLocked(name, func(*Coroutine) { order = append(order, name) }, now)
		}
		ev.Set()
		spin(40 * time.Millisecond) // both timers expire while the two are queued
		_ = co.Yield()
		order = append(order, "yielder")
	})
	awaitDone(t, done)
	want := []string{"woken", "fresh-1", "fresh-2", "yielder", "sleeper", "timed-out"}
	if !slices.Equal(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
}

// TestWakeBypassIsBounded: two coroutines that wake each other for ever
// are always in the woken class, yet a scheduler round runs only the
// woken coroutines it started with and then one of the FIFO class. So
// 100 fresh spawns each run exactly one ping-pong hop apart, and a 1 ms
// sleeper (a timer, the FIFO class) wakes on time: within 50 ms here,
// where an unbounded bypass would never run either.
func TestWakeBypassIsBounded(t *testing.T) {
	rt := NewRuntime("sched")
	defer rt.Stop()
	const fresh = 100
	var (
		hops   int   // ping-pong dispatches so far
		ranAt  []int // hops when each fresh coroutine ran
		slept  time.Duration
		stop   bool
		ping   = NewSignalEvent()
		pong   = NewSignalEvent()
		left   = NewCounterEvent(fresh + 1)
		done   = make(chan struct{})
		parked = make(chan struct{}, 1)
	)
	rt.Spawn("pong", func(co *Coroutine) {
		parked <- struct{}{}
		for !stop && co.Wait(ping) == nil {
			hops++
			ping = NewSignalEvent()
			pong.Set()
		}
	})
	<-parked
	rt.Spawn("ping", func(co *Coroutine) {
		for i := 0; i < fresh; i++ {
			rt.spawnLocked("fresh", func(*Coroutine) {
				ranAt = append(ranAt, hops)
				left.Add(1)
			}, time.Now())
		}
		rt.spawnLocked("sleeper", func(sc *Coroutine) {
			start := time.Now()
			_ = sc.Sleep(time.Millisecond)
			slept = time.Since(start)
			left.Add(1)
		}, time.Now())
		for !left.Ready() {
			ping.Set()
			if co.Wait(pong) != nil {
				return
			}
			hops++
			pong = NewSignalEvent()
		}
		stop = true
		ping.Set()
		close(done)
	})
	awaitDone(t, done)
	if len(ranAt) != fresh {
		t.Fatalf("%d of %d fresh coroutines ran", len(ranAt), fresh)
	}
	for i := 1; i < fresh; i++ {
		if d := ranAt[i] - ranAt[i-1]; d != 1 {
			t.Fatalf("fresh %d ran %d ping-pong hops after fresh %d, want 1 (hops at each: %v)", i, d, i-1, ranAt)
		}
	}
	if slept < time.Millisecond || slept > 50*time.Millisecond {
		t.Fatalf("1 ms sleeper woke after %v beside a wake loop, want within 50 ms", slept)
	}
}

// TestStopDrainsBothClasses: Stop runs what is queued in either class
// and fails what is parked, and returns.
func TestStopDrainsBothClasses(t *testing.T) {
	rt := NewRuntime("sched")
	var order []string
	var parkedErr error
	ev := NewSignalEvent()
	parked := make(chan struct{}, 2)
	queued := make(chan struct{})
	rt.Spawn("woken", func(co *Coroutine) {
		parked <- struct{}{}
		if err := co.Wait(ev); err == nil {
			order = append(order, "woken")
		}
	})
	rt.Spawn("parked", func(co *Coroutine) {
		parked <- struct{}{}
		parkedErr = co.Wait(NewNeverEvent())
		order = append(order, "parked")
	})
	<-parked
	<-parked
	rt.Spawn("setup", func(co *Coroutine) {
		rt.spawnLocked("fresh", func(*Coroutine) { order = append(order, "fresh") }, time.Now())
		ev.Set()
		close(queued)
		for !rt.Stopped() { // keep both queued until Stop is under way
			spin(100 * time.Microsecond)
		}
	})
	<-queued
	stopped := make(chan struct{})
	go func() { rt.Stop(); close(stopped) }()
	awaitDone(t, stopped)
	slices.Sort(order)
	if want := []string{"fresh", "parked", "woken"}; !slices.Equal(order, want) {
		t.Fatalf("finished %v, want %v", order, want)
	}
	if !errors.Is(parkedErr, ErrStopped) {
		t.Fatalf("parked wait returned %v, want ErrStopped", parkedErr)
	}
}

// TestRunQueueStamps: RunAt−ReadyAt is the run-queue wait: what a fresh
// coroutine waited for its first turn behind a busy one, and next to
// nothing for an event wake on an otherwise idle runtime.
func TestRunQueueStamps(t *testing.T) {
	run(t, func(co *Coroutine) {
		var first time.Duration
		ran := NewSignalEvent()
		co.Runtime().spawnLocked("queued", func(qc *Coroutine) {
			first = qc.RunAt().Sub(qc.ReadyAt())
			ran.Set()
		}, time.Now())
		spin(3 * time.Millisecond)
		_ = co.Wait(ran)
		if first < 3*time.Millisecond || first > time.Second {
			t.Errorf("first-turn wait = %v, want the 3 ms the spawner kept the baton", first)
		}
		if wake := co.RunAt().Sub(co.ReadyAt()); wake < 0 || wake > 3*time.Millisecond {
			t.Errorf("wake-to-run on an idle runtime = %v", wake)
		}
	})
}

// TestCompletedWaitsLeaveNoTimers: a wait that ends before its timeout
// takes its timer out of the heap, so 10k hour-long waits that complete
// leave nothing for the loop, or the garbage collector, to carry.
func TestCompletedWaitsLeaveNoTimers(t *testing.T) {
	run(t, func(co *Coroutine) {
		rt := co.Runtime()
		for i := 0; i < 10000; i++ {
			ev := NewResultEvent("disk")
			rt.Post(func() { ev.Fire(nil, nil) })
			if co.WaitFor(ev, time.Hour) != WaitReady {
				t.Error("fired result not seen")
				return
			}
		}
		if len(rt.timers) != 0 {
			t.Errorf("%d timers left armed after 10k completed waits", len(rt.timers))
		}
	})
}

func TestDeque(t *testing.T) {
	var d Deque[int]
	if _, ok := d.PopFront(); ok || d.Len() != 0 {
		t.Fatal("zero deque is not empty")
	}
	// A queue that hovers around a steady depth: FIFO order holds across
	// slides and growth, and the backing slice stays bounded.
	next, want := 0, 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ {
			d.PushBack(next)
			next++
		}
		for i := 0; i < 3 && round >= 50; i++ {
			v, ok := d.PopFront()
			if !ok || v != want {
				t.Fatalf("pop = %d,%v, want %d", v, ok, want)
			}
			want++
		}
	}
	if d.Len() != 150 || cap(d.items) > 1024 {
		t.Fatalf("len %d cap %d after 1000 rounds at depth 150", d.Len(), cap(d.items))
	}
	if items := d.Items(); items[0] != want || items[len(items)-1] != next-1 {
		t.Fatalf("Items spans %d..%d, want %d..%d", items[0], items[len(items)-1], want, next-1)
	}
	d.Filter(func(v int) bool { return v%2 == 0 })
	if d.Len() != 75 {
		t.Fatalf("len %d after filtering the odd half out", d.Len())
	}
	for i, v := range d.Items() {
		if v != want+2*i {
			t.Fatalf("item %d = %d after Filter, want %d", i, v, want+2*i)
		}
	}
	if v, _ := d.PopFront(); v != want {
		t.Fatalf("pop after Filter = %d, want %d", v, want)
	}
	if got := d.Drain(); len(got) != 74 || got[0] != want+2 || d.Len() != 0 {
		t.Fatalf("Drain returned %d items from %d, left %d", len(got), got[0], d.Len())
	}
	d.PushBack(7)
	if v, ok := d.PopFront(); !ok || v != 7 {
		t.Fatalf("pop after Drain = %d,%v", v, ok)
	}
}
