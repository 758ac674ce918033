package core

import (
	"fmt"
	"testing"
	"time"
)

// onRuntime runs fn as a coroutine of a fresh runtime and waits for it.
func onRuntime(b *testing.B, fn func(rt *Runtime, co *Coroutine)) {
	b.Helper()
	rt := NewRuntime("bench")
	defer rt.Stop()
	done := make(chan struct{})
	rt.Spawn("driver", func(co *Coroutine) {
		defer close(done)
		fn(rt, co)
	})
	<-done
}

// BenchmarkCoroutineOverhead measures the cost of the DepFast
// programming model itself: one event signal + coroutine wakeup per
// iteration, compared against a raw channel ping-pong baseline.
func BenchmarkCoroutineOverhead(b *testing.B) {
	b.Run("event-wakeup", func(b *testing.B) {
		onRuntime(b, func(rt *Runtime, co *Coroutine) {
			for i := 0; i < b.N; i++ {
				sig := NewSignalEvent()
				rt.Spawn("setter", func(*Coroutine) { sig.Set() })
				if err := co.Wait(sig); err != nil {
					return
				}
			}
		})
	})
	b.Run("raw-channel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch := make(chan struct{})
			go func() { close(ch) }()
			<-ch
		}
	})
}

// BenchmarkQuorumEventThroughput measures pure quorum-event machinery:
// building a 2-of-3 quorum and firing it.
func BenchmarkQuorumEventThroughput(b *testing.B) {
	onRuntime(b, func(_ *Runtime, co *Coroutine) {
		for i := 0; i < b.N; i++ {
			q := NewQuorumEvent(3, 2)
			evs := [3]*ResultEvent{}
			for j := range evs {
				evs[j] = NewResultEvent("rpc", "p")
				q.AddJudged(evs[j], nil)
			}
			evs[0].Fire("ok", nil)
			evs[1].Fire("ok", nil)
			if !q.Ready() {
				b.Error("quorum not ready")
				return
			}
		}
	})
}

// BenchmarkDispatch is the scheduler's cost of one dispatch — pop the
// run queue, hand the baton over, take it back — with depth coroutines
// runnable at all times. It must not depend on the depth. (Yield, the
// vehicle, also reads the clock once for its ready-at stamp.)
func BenchmarkDispatch(b *testing.B) {
	for _, depth := range []int{1, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			onRuntime(b, func(rt *Runtime, co *Coroutine) {
				left := NewCounterEvent(int64(depth))
				for i := 0; i < depth; i++ {
					rt.Spawn("yielder", func(yc *Coroutine) {
						for n := b.N / depth; n > 0 && yc.Yield() == nil; n-- {
						}
						left.Add(1)
					})
				}
				_ = co.Wait(left)
			})
		})
	}
}

// BenchmarkWakeToRun is what a met quorum costs a request on a busy
// runtime: with 256 not-yet-started coroutines queued, the time from an
// event firing to its waiter holding the baton again (wake-ns, from the
// runtime's own ready-at/run-at stamps). ns/op is dominated by spawning
// the 256.
func BenchmarkWakeToRun(b *testing.B) {
	const queued = 256
	var total time.Duration
	onRuntime(b, func(rt *Runtime, co *Coroutine) {
		for i := 0; i < b.N; i++ {
			ev, done := NewSignalEvent(), NewSignalEvent()
			rt.Spawn("waiter", func(wc *Coroutine) {
				if wc.Wait(ev) == nil {
					total += wc.RunAt().Sub(wc.ReadyAt())
				}
				done.Set()
			})
			_ = co.Yield() // the waiter is parked
			for j := 0; j < queued; j++ {
				rt.Spawn("fresh", func(*Coroutine) {})
			}
			_ = co.Yield() // the 256 are queued, behind this coroutine
			ev.Set()
			if co.Wait(done) != nil {
				return
			}
		}
	})
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "wake-ns")
}
