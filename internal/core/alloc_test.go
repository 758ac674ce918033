package core

import (
	goruntime "runtime"
	"testing"
	"time"

	"depfast/internal/race"
)

// A timed wait on a result fired from outside costs the event and the
// posted closure, nothing more: the waiter is held inline in the event
// and the timeout is the coroutine's own embedded timer.
func TestWaitForResultAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	run(t, func(co *Coroutine) {
		rt := co.Runtime()
		wait := func() {
			ev := NewResultEvent("disk")
			rt.Post(func() { ev.Fire(nil, nil) })
			if co.WaitFor(ev, time.Second) != WaitReady {
				t.Error("fired result not seen")
			}
		}
		wait() // the first wait sizes the timer heap and parked set
		if n := testing.AllocsPerRun(200, wait); n > 2 {
			t.Errorf("WaitFor on a posted result = %.0f allocs, want <= 2", n)
		}
	})
}

// A coroutine that returns without parking runs on the scheduler's own
// goroutine: its spawn costs the posted closure and the Coroutine, with
// no goroutine and no channel of its own.
func TestSpawnAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	rt := NewRuntime("spawn")
	defer rt.Stop()
	done := make(chan struct{}, 1)
	body := func(*Coroutine) { done <- struct{}{} }
	spawn := func() {
		rt.Spawn("noop", body)
		<-done
	}
	spawn()
	if n := testing.AllocsPerRun(200, spawn); n > 3 {
		t.Errorf("Spawn of a body that never parks = %.0f allocs, want <= 3", n)
	}
	before := goruntime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		spawn()
	}
	if after := goruntime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d over 1000 finished spawns", before, after)
	}
}
