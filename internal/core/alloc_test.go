package core

import (
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
