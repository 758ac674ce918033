package core

import (
	"io"
	"log"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// run spawns fn in a fresh runtime, waits for completion, and stops
// the runtime. It fails the test on timeout.
func run(t *testing.T, fn func(co *Coroutine)) {
	t.Helper()
	rt := NewRuntime("test")
	defer rt.Stop()
	done := make(chan struct{})
	rt.Spawn("main", func(co *Coroutine) {
		defer close(done)
		fn(co)
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("coroutine did not finish within 10s")
	}
}

func TestSpawnRuns(t *testing.T) {
	ran := false
	run(t, func(co *Coroutine) { ran = true })
	if !ran {
		t.Fatal("coroutine body did not run")
	}
}

func TestCoroutineIdentity(t *testing.T) {
	run(t, func(co *Coroutine) {
		if co.ID() == 0 {
			t.Error("id should be nonzero")
		}
		if co.Name() != "main" {
			t.Errorf("name = %q, want main", co.Name())
		}
		if co.Runtime().Name() != "test" {
			t.Errorf("runtime name = %q", co.Runtime().Name())
		}
	})
}

func TestMutualExclusion(t *testing.T) {
	// Two coroutines incrementing a shared counter with deliberate
	// yields must never observe concurrent execution.
	rt := NewRuntime("mutex")
	defer rt.Stop()
	var inside atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		rt.Spawn("worker", func(co *Coroutine) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if inside.Add(1) != 1 {
					violations.Add(1)
				}
				inside.Add(-1)
				if err := co.Yield(); err != nil {
					return
				}
			}
		})
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d mutual-exclusion violations", v)
	}
}

func TestSignalEventWait(t *testing.T) {
	rt := NewRuntime("sig")
	defer rt.Stop()
	sig := NewSignalEvent()
	got := make(chan error, 1)
	rt.Spawn("waiter", func(co *Coroutine) {
		got <- co.Wait(sig)
	})
	rt.Spawn("setter", func(co *Coroutine) {
		_ = co.Sleep(5 * time.Millisecond)
		sig.Set()
	})
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestWaitOnReadyEventReturnsImmediately(t *testing.T) {
	run(t, func(co *Coroutine) {
		sig := NewSignalEvent()
		sig.Set()
		if err := co.Wait(sig); err != nil {
			t.Errorf("wait: %v", err)
		}
	})
}

func TestSignalSetIdempotent(t *testing.T) {
	run(t, func(co *Coroutine) {
		sig := NewSignalEvent()
		sig.Set()
		sig.Set()
		if !sig.Ready() {
			t.Error("signal should stay ready")
		}
	})
}

func TestPostFiresEvent(t *testing.T) {
	rt := NewRuntime("post")
	defer rt.Stop()
	res := NewResultEvent("rpc", "s2")
	got := make(chan interface{}, 1)
	rt.Spawn("caller", func(co *Coroutine) {
		if err := co.Wait(res); err != nil {
			t.Errorf("wait: %v", err)
			got <- nil
			return
		}
		got <- res.Value()
	})
	go func() {
		time.Sleep(5 * time.Millisecond)
		rt.Post(func() { res.Fire("reply", nil) })
	}()
	select {
	case v := <-got:
		if v != "reply" {
			t.Fatalf("value = %v, want reply", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("caller never woke")
	}
}

func TestResultEventFireIdempotent(t *testing.T) {
	run(t, func(co *Coroutine) {
		res := NewResultEvent("rpc")
		res.Fire(1, nil)
		res.Fire(2, nil)
		if res.Value() != 1 {
			t.Errorf("value = %v, want first fire to stick", res.Value())
		}
	})
}

func TestSleepDuration(t *testing.T) {
	run(t, func(co *Coroutine) {
		start := time.Now()
		if err := co.Sleep(20 * time.Millisecond); err != nil {
			t.Errorf("sleep: %v", err)
		}
		if el := time.Since(start); el < 18*time.Millisecond {
			t.Errorf("sleep returned after %v, want >= 20ms", el)
		}
	})
}

func TestWaitForTimeout(t *testing.T) {
	run(t, func(co *Coroutine) {
		start := time.Now()
		res := co.WaitFor(NewNeverEvent(), 20*time.Millisecond)
		if res != WaitTimeout {
			t.Errorf("result = %v, want timeout", res)
		}
		if el := time.Since(start); el < 18*time.Millisecond || el > 2*time.Second {
			t.Errorf("timeout after %v, want ~20ms", el)
		}
	})
}

func TestWaitForReadyBeforeTimeout(t *testing.T) {
	rt := NewRuntime("wf")
	defer rt.Stop()
	sig := NewSignalEvent()
	got := make(chan WaitResult, 1)
	rt.Spawn("waiter", func(co *Coroutine) {
		got <- co.WaitFor(sig, time.Second)
	})
	rt.Spawn("setter", func(co *Coroutine) {
		_ = co.Sleep(5 * time.Millisecond)
		sig.Set()
	})
	select {
	case res := <-got:
		if res != WaitReady {
			t.Fatalf("result = %v, want ready", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hung")
	}
}

func TestIntEvent(t *testing.T) {
	rt := NewRuntime("int")
	defer rt.Stop()
	ev := NewCounterEvent(3)
	done := make(chan struct{})
	rt.Spawn("waiter", func(co *Coroutine) {
		defer close(done)
		if err := co.Wait(ev); err != nil {
			t.Errorf("wait: %v", err)
		}
		if ev.Value() < 3 {
			t.Errorf("woke with value %d < 3", ev.Value())
		}
	})
	rt.Spawn("adder", func(co *Coroutine) {
		for i := 0; i < 3; i++ {
			_ = co.Sleep(time.Millisecond)
			ev.Add(1)
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hung")
	}
}

func TestIntEventSetDirect(t *testing.T) {
	run(t, func(co *Coroutine) {
		ev := NewIntEvent(0, func(v int64) bool { return v == 42 })
		ev.Set(42)
		if !ev.Ready() {
			t.Error("should be ready at 42")
		}
		ev.Set(0)
		if ev.Ready() {
			t.Error("predicate is live; should not be ready at 0")
		}
	})
}

func TestStopWakesParked(t *testing.T) {
	rt := NewRuntime("stop")
	got := make(chan error, 1)
	rt.Spawn("stuck", func(co *Coroutine) {
		got <- co.Wait(NewNeverEvent())
	})
	time.Sleep(10 * time.Millisecond) // let it park
	rt.Stop()
	select {
	case err := <-got:
		if err != ErrStopped {
			t.Fatalf("err = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not wake parked coroutine")
	}
}

// A coroutine that loops on Yield is never parked, so shutdown cannot
// mark it; Yield itself must report the stop, or Stop never returns.
func TestStopEndsYieldLoop(t *testing.T) {
	rt := NewRuntime("stop-yield")
	spinning := make(chan struct{})
	rt.Spawn("spin", func(co *Coroutine) {
		close(spinning)
		for co.Yield() == nil {
		}
	})
	<-spinning
	stopped := make(chan struct{})
	go func() { rt.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Stop did not return within 1s with a coroutine looping on Yield")
	}
}

func TestStopIdempotent(t *testing.T) {
	rt := NewRuntime("stop2")
	rt.Stop()
	rt.Stop()
	if !rt.Stopped() {
		t.Fatal("not stopped")
	}
}

func TestSpawnAfterStopRefused(t *testing.T) {
	rt := NewRuntime("stop3")
	rt.Stop()
	if rt.Spawn("late", func(co *Coroutine) {}) {
		t.Fatal("spawn after stop should return false")
	}
}

func TestPostAfterStopDropped(t *testing.T) {
	rt := NewRuntime("stop4")
	rt.Stop()
	rt.Post(func() { t.Error("posted fn ran after stop") })
	time.Sleep(5 * time.Millisecond)
}

func TestManyCoroutines(t *testing.T) {
	rt := NewRuntime("many")
	defer rt.Stop()
	const n = 500
	var wg sync.WaitGroup
	var sum atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		i := i
		rt.Spawn("w", func(co *Coroutine) {
			defer wg.Done()
			_ = co.Sleep(time.Duration(i%5) * time.Millisecond)
			sum.Add(1)
		})
	}
	wg.Wait()
	if sum.Load() != n {
		t.Fatalf("sum = %d, want %d", sum.Load(), n)
	}
	if rt.SpawnCount() != n {
		t.Fatalf("spawn count = %d, want %d", rt.SpawnCount(), n)
	}
}

func TestTimerOrdering(t *testing.T) {
	rt := NewRuntime("timers")
	defer rt.Stop()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	delays := []time.Duration{30, 10, 20, 5, 25}
	for i, d := range delays {
		wg.Add(1)
		i, d := i, d
		rt.Spawn("t", func(co *Coroutine) {
			defer wg.Done()
			_ = co.Sleep(d * time.Millisecond)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	wg.Wait()
	want := []int{3, 1, 2, 4, 0} // sorted by delay
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestTracerReceivesWaits(t *testing.T) {
	var mu sync.Mutex
	var recs []WaitRecord
	tr := tracerFunc(func(r WaitRecord) {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	})
	rt := NewRuntime("s1", WithTracer(tr))
	defer rt.Stop()
	done := make(chan struct{})
	rt.Spawn("logic", func(co *Coroutine) {
		defer close(done)
		ev := NewResultEvent("rpc", "s2")
		ev.Fire("x", nil)
		_ = co.Wait(ev)
	})
	<-done
	rt.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(recs) == 0 {
		t.Fatal("no wait records")
	}
	r := recs[0]
	if r.Node != "s1" || r.Event.Kind != "rpc" || len(r.Event.Peers) != 1 || r.Event.Peers[0] != "s2" {
		t.Fatalf("bad record: %+v", r)
	}
}

type tracerFunc func(WaitRecord)

func (f tracerFunc) Record(r WaitRecord) { f(r) }

func TestYieldFairness(t *testing.T) {
	rt := NewRuntime("fair")
	defer rt.Stop()
	var mu sync.Mutex
	var seq []string
	var wg sync.WaitGroup
	wg.Add(2)
	// Both are spawned from one posted closure, so both are queued
	// before either runs.
	rt.Post(func() {
		for _, name := range []string{"a", "b"} {
			rt.Spawn(name, func(co *Coroutine) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					mu.Lock()
					seq = append(seq, name)
					mu.Unlock()
					if err := co.Yield(); err != nil {
						return
					}
				}
			})
		}
	})
	wg.Wait()
	// With strict round-robin yielding we expect interleaving a,b,a,b,...
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(seq); i++ {
		if seq[i] == seq[i-1] {
			t.Fatalf("yield not fair: %v", seq)
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	rt := NewRuntime("nest")
	defer rt.Stop()
	done := make(chan struct{})
	rt.Spawn("outer", func(co *Coroutine) {
		inner := NewSignalEvent()
		co.Runtime().Spawn("inner", func(ico *Coroutine) {
			inner.Set()
		})
		if err := co.Wait(inner); err != nil {
			t.Errorf("wait: %v", err)
		}
		close(done)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("nested spawn hung")
	}
}

func TestCoroutinePanicDoesNotKillRuntime(t *testing.T) {
	// Silence the panic log line for this test.
	old := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(old)

	rt := NewRuntime("panicky")
	defer rt.Stop()
	rt.Spawn("bomb", func(co *Coroutine) {
		panic("boom")
	})
	// The runtime must keep scheduling other coroutines.
	done := make(chan struct{})
	rt.Spawn("survivor", func(co *Coroutine) {
		defer close(done)
		_ = co.Sleep(5 * time.Millisecond)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("runtime dead after coroutine panic")
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.PanicCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rt.PanicCount() != 1 {
		t.Fatalf("panic count = %d, want 1", rt.PanicCount())
	}
}

func TestCoroutinePanicMidWaitersUnaffected(t *testing.T) {
	old := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(old)

	rt := NewRuntime("panicky2")
	defer rt.Stop()
	sig := NewSignalEvent()
	got := make(chan error, 1)
	rt.Spawn("waiter", func(co *Coroutine) {
		got <- co.Wait(sig)
	})
	rt.Spawn("bomb", func(co *Coroutine) {
		_ = co.Yield()
		panic("mid-flight")
	})
	rt.Spawn("setter", func(co *Coroutine) {
		_ = co.Sleep(10 * time.Millisecond)
		sig.Set()
	})
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("waiter: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter starved after another coroutine panicked")
	}
}

// within fails the test unless ch is closed within 5 s.
func within(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: not within 5s", what)
	}
}

// A body begins on the scheduler's goroutine, so runtime.Goexit (what
// t.FailNow does) before its first park ends that goroutine: the
// scheduler must go on on another one.
func TestGoexitDoesNotKillRuntime(t *testing.T) {
	rt := NewRuntime("goexit")
	for _, yieldFirst := range []bool{false, true} {
		exited := make(chan struct{})
		rt.Spawn("quitter", func(co *Coroutine) {
			defer close(exited)
			if yieldFirst {
				_ = co.Yield()
			}
			goruntime.Goexit()
		})
		within(t, exited, "Goexit")
		done := make(chan struct{})
		rt.Spawn("after", func(co *Coroutine) {
			if co.Sleep(time.Millisecond) == nil {
				close(done)
			}
		})
		within(t, done, "spawn after Goexit")
	}
	stopped := make(chan struct{})
	go func() { rt.Stop(); close(stopped) }()
	within(t, stopped, "Stop after Goexit")
}

// A coroutine that parks keeps the goroutine it began on while the
// scheduler moves to a new one; it must be able to wake, park again
// and finish while other coroutines begin and park in between.
func TestParkAcrossSchedulerHandover(t *testing.T) {
	run(t, func(co *Coroutine) {
		rt := co.Runtime()
		ev1, ev2 := NewSignalEvent(), NewSignalEvent()
		var steps []string
		rt.Spawn("a", func(a *Coroutine) {
			steps = append(steps, "a1")
			_ = a.Wait(ev1)
			steps = append(steps, "a2")
			_ = a.Sleep(time.Millisecond)
			steps = append(steps, "a3")
			ev2.Set()
		})
		rt.Spawn("b", func(b *Coroutine) {
			steps = append(steps, "b1")
			_ = b.Yield()
			steps = append(steps, "b2")
			ev1.Set()
			steps = append(steps, "b3")
		})
		if err := co.Wait(ev2); err != nil {
			t.Fatalf("wait: %v", err)
		}
		if got, want := strings.Join(steps, " "), "a1 b1 b2 b3 a2 a3"; got != want {
			t.Errorf("steps = %q, want %q", got, want)
		}
	})
}

// Coroutines still queued when Stop drains begin during the drain; a
// first Yield hands the scheduler over mid-drain, a first Sleep or Wait
// returns ErrStopped, and Stop returns.
func TestStopWithUnstartedCoroutines(t *testing.T) {
	rt := NewRuntime("stop-fresh")
	gate := make(chan struct{})
	rt.Post(func() { <-gate }) // nothing below begins before Stop
	var finished atomic.Int32
	never := NewSignalEvent()
	for i := 0; i < 4; i++ {
		rt.Spawn("yield", func(co *Coroutine) {
			_ = co.Yield()
			if co.Sleep(time.Hour) == ErrStopped {
				finished.Add(1)
			}
		})
		rt.Spawn("sleep", func(co *Coroutine) {
			if co.Sleep(time.Hour) == ErrStopped {
				finished.Add(1)
			}
		})
		rt.Spawn("wait", func(co *Coroutine) {
			if co.Wait(never) == ErrStopped {
				finished.Add(1)
			}
		})
	}
	stopped := make(chan struct{})
	go func() { rt.Stop(); close(stopped) }()
	for !rt.Stopped() {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	within(t, stopped, "Stop")
	if n := finished.Load(); n != 12 {
		t.Errorf("%d of 12 coroutines saw ErrStopped", n)
	}
}
