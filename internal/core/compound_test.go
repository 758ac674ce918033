package core

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestQuorumEventBasic(t *testing.T) {
	rt := NewRuntime("q")
	defer rt.Stop()
	done := make(chan QuorumOutcome, 1)
	rt.Spawn("leader", func(co *Coroutine) {
		q := NewMajorityEvent(3)
		evs := make([]*ResultEvent, 3)
		for i := range evs {
			evs[i] = NewResultEvent("rpc", "s")
			q.AddJudged(evs[i], nil)
		}
		// Complete two of three; third never fires (fail-slow peer).
		co.Runtime().Spawn("replies", func(rco *Coroutine) {
			evs[0].Fire("ok", nil)
			_ = rco.Sleep(time.Millisecond)
			evs[1].Fire("ok", nil)
		})
		done <- co.WaitQuorum(q, 5*time.Second)
	})
	select {
	case out := <-done:
		if out != QuorumOK {
			t.Fatalf("outcome = %v, want ok", out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hung")
	}
}

func TestQuorumRejectReady(t *testing.T) {
	rt := NewRuntime("qr")
	defer rt.Stop()
	done := make(chan QuorumOutcome, 1)
	rt.Spawn("leader", func(co *Coroutine) {
		q := NewQuorumEvent(3, 2) // need 2 acks; 2 rejects kill it
		evs := make([]*ResultEvent, 3)
		judge := func(v interface{}, _ error) bool { return v == "yes" }
		for i := range evs {
			evs[i] = NewResultEvent("rpc")
			q.AddJudged(evs[i], judge)
		}
		co.Runtime().Spawn("replies", func(rco *Coroutine) {
			evs[0].Fire("no", nil)
			evs[1].Fire("no", nil)
		})
		done <- co.WaitQuorum(q, 5*time.Second)
	})
	if out := <-done; out != QuorumRejected {
		t.Fatalf("outcome = %v, want rejected", out)
	}
}

func TestQuorumTimeout(t *testing.T) {
	rt := NewRuntime("qt")
	defer rt.Stop()
	done := make(chan QuorumOutcome, 1)
	rt.Spawn("leader", func(co *Coroutine) {
		q := NewQuorumEvent(3, 2)
		for i := 0; i < 3; i++ {
			q.AddJudged(NewResultEvent("rpc"), nil) // never fire
		}
		done <- co.WaitQuorum(q, 20*time.Millisecond)
	})
	if out := <-done; out != QuorumTimeout {
		t.Fatalf("outcome = %v, want timeout", out)
	}
}

func TestQuorumErrorsCountAsRejects(t *testing.T) {
	rt := NewRuntime("qe")
	defer rt.Stop()
	done := make(chan QuorumOutcome, 1)
	rt.Spawn("leader", func(co *Coroutine) {
		q := NewQuorumEvent(3, 2)
		evs := make([]*ResultEvent, 3)
		for i := range evs {
			evs[i] = NewResultEvent("rpc")
			q.AddJudged(evs[i], nil) // default judge: err => reject
		}
		co.Runtime().Spawn("replies", func(rco *Coroutine) {
			evs[0].Fire(nil, errors.New("conn reset"))
			evs[1].Fire(nil, errors.New("conn reset"))
		})
		done <- co.WaitQuorum(q, 5*time.Second)
	})
	if out := <-done; out != QuorumRejected {
		t.Fatalf("outcome = %v, want rejected", out)
	}
}

func TestQuorumAlreadyFiredChildren(t *testing.T) {
	run(t, func(co *Coroutine) {
		q := NewQuorumEvent(3, 2)
		for i := 0; i < 2; i++ {
			ev := NewResultEvent("rpc")
			ev.Fire("ok", nil) // fired before Add
			q.AddJudged(ev, nil)
		}
		if !q.Ready() {
			t.Error("quorum should count pre-fired children")
		}
		if q.Acks() != 2 {
			t.Errorf("acks = %d, want 2", q.Acks())
		}
	})
}

func TestQuorumDirectTallies(t *testing.T) {
	rt := NewRuntime("qd")
	defer rt.Stop()
	done := make(chan struct{})
	rt.Spawn("leader", func(co *Coroutine) {
		defer close(done)
		q := NewQuorumEvent(5, 3)
		co.Runtime().Spawn("tally", func(tc *Coroutine) {
			q.AddAck()
			q.AddAck()
			q.AddReject()
			q.AddAck()
		})
		if out := co.WaitQuorum(q, 5*time.Second); out != QuorumOK {
			t.Errorf("outcome = %v, want ok", out)
		}
		if q.Acks() != 3 || q.Rejects() != 1 {
			t.Errorf("tallies = %d/%d, want 3/1", q.Acks(), q.Rejects())
		}
	})
	<-done
}

func TestQuorumInvalidPanics(t *testing.T) {
	for _, tc := range []struct{ total, quorum int }{{3, 0}, {3, 4}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewQuorumEvent(%d,%d) should panic", tc.total, tc.quorum)
				}
			}()
			NewQuorumEvent(tc.total, tc.quorum)
		}()
	}
}

func TestMajorityEventSizes(t *testing.T) {
	cases := []struct{ n, want int }{{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {7, 4}}
	for _, c := range cases {
		if got := NewMajorityEvent(c.n).Quorum(); got != c.want {
			t.Errorf("majority(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAndEvent(t *testing.T) {
	rt := NewRuntime("and")
	defer rt.Stop()
	done := make(chan struct{})
	a, b := NewSignalEvent(), NewSignalEvent()
	and := NewAndEvent(a, b)
	rt.Spawn("waiter", func(co *Coroutine) {
		defer close(done)
		if err := co.Wait(and); err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	rt.Spawn("setters", func(co *Coroutine) {
		a.Set()
		if and.Ready() {
			t.Error("and ready with only one child set")
		}
		_ = co.Sleep(time.Millisecond)
		b.Set()
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hung")
	}
}

func TestAndEventEmptyNotReady(t *testing.T) {
	run(t, func(co *Coroutine) {
		if NewAndEvent().Ready() {
			t.Error("empty AndEvent should not be ready")
		}
	})
}

func TestOrEvent(t *testing.T) {
	rt := NewRuntime("or")
	defer rt.Stop()
	done := make(chan struct{})
	a, b := NewSignalEvent(), NewSignalEvent()
	or := NewOrEvent(a, b)
	rt.Spawn("waiter", func(co *Coroutine) {
		defer close(done)
		if err := co.Wait(or); err != nil {
			t.Errorf("wait: %v", err)
		}
		if !or.Ready() {
			t.Error("woke but or not ready")
		}
	})
	rt.Spawn("setter", func(co *Coroutine) {
		_ = co.Sleep(time.Millisecond)
		b.Set()
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hung")
	}
}

func TestNestedFastSlowPath(t *testing.T) {
	// The paper's §3.2 fast-path pattern: Or(fast_ok, fast_reject)
	// with QuorumEvents as children, nested and waited with timeout.
	rt := NewRuntime("nested")
	defer rt.Stop()
	result := make(chan string, 1)
	rt.Spawn("coordinator", func(co *Coroutine) {
		fastOK := NewQuorumEvent(3, 3) // fast quorum: all 3
		fastReject := NewQuorumEvent(3, 1)
		fastpath := NewOrEvent(fastOK, fastReject)

		co.Runtime().Spawn("replies", func(rc *Coroutine) {
			fastOK.AddAck()
			fastOK.AddAck()
			fastReject.AddAck() // one reject arrives -> fast path fails
		})

		if res := co.WaitFor(fastpath, time.Second); res != WaitReady {
			result <- "timeout"
			return
		}
		if fastOK.Ready() {
			result <- "fast"
			return
		}
		// Fall back to slow path: majority.
		slowOK := NewQuorumEvent(3, 2)
		co.Runtime().Spawn("slowreplies", func(rc *Coroutine) {
			slowOK.AddAck()
			slowOK.AddAck()
		})
		if out := co.WaitQuorum(slowOK, time.Second); out == QuorumOK {
			result <- "slow"
		} else {
			result <- out.String()
		}
	})
	select {
	case got := <-result:
		if got != "slow" {
			t.Fatalf("path = %q, want slow", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hung")
	}
}

func TestAndOfQuorums(t *testing.T) {
	rt := NewRuntime("aq")
	defer rt.Stop()
	done := make(chan struct{})
	rt.Spawn("waiter", func(co *Coroutine) {
		defer close(done)
		q1 := NewQuorumEvent(3, 2)
		q2 := NewQuorumEvent(3, 2)
		and := NewAndEvent(q1, q2)
		co.Runtime().Spawn("acks", func(ac *Coroutine) {
			q1.AddAck()
			q1.AddAck()
			_ = ac.Sleep(time.Millisecond)
			q2.AddAck()
			q2.AddAck()
		})
		if err := co.Wait(and); err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hung")
	}
}

func TestQuorumDesc(t *testing.T) {
	q := NewQuorumEvent(3, 2)
	q.AddJudged(NewResultEvent("rpc", "s2"), nil)
	q.AddJudged(NewResultEvent("rpc", "s3"), nil)
	d := q.Desc()
	if d.Kind != "quorum" || d.Quorum != 2 || d.Total != 3 {
		t.Fatalf("desc = %+v", d)
	}
	if len(d.Peers) != 2 {
		t.Fatalf("peers = %v", d.Peers)
	}
	if !d.IsQuorum() {
		t.Error("2-of-3 should be IsQuorum")
	}
	if (EventDesc{Quorum: 1, Total: 1}).IsQuorum() {
		t.Error("1-of-1 should not be IsQuorum")
	}
}

func TestQuorumPropertyAcksSufficient(t *testing.T) {
	// Property: for any k<=n and any completion order, once k acks have
	// been delivered the event is ready, regardless of rejects among
	// the remaining n-k.
	f := func(nRaw, kRaw uint8, pattern uint16) bool {
		n := int(nRaw%7) + 1
		k := int(kRaw)%n + 1
		q := NewQuorumEvent(n, k)
		acks, rejects := 0, 0
		for i := 0; i < n; i++ {
			if pattern&(1<<i) != 0 && rejects < n-k {
				q.AddReject()
				rejects++
			} else {
				q.AddAck()
				acks++
			}
			if acks >= k && !q.Ready() {
				return false
			}
			if acks < k && q.Ready() {
				return false
			}
		}
		return q.Ready()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuorumPropertyRejectExclusive(t *testing.T) {
	// Property: Ready and RejectReady cannot both hold when
	// acks+rejects <= total (no double counting).
	f := func(nRaw uint8, ackCount, rejCount uint8) bool {
		n := int(nRaw%7) + 1
		k := n/2 + 1
		q := NewQuorumEvent(n, k)
		a := int(ackCount) % (n + 1)
		r := int(rejCount) % (n + 1 - a)
		for i := 0; i < a; i++ {
			q.AddAck()
		}
		for i := 0; i < r; i++ {
			q.AddReject()
		}
		return !(q.Ready() && q.RejectReady())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOrEventDescAndAdd(t *testing.T) {
	or := NewOrEvent()
	or.Add(NewResultEvent("rpc", "s2"))
	d := or.Desc()
	if d.Kind != "or" || d.Total != 1 || len(d.Peers) != 1 {
		t.Fatalf("desc = %+v", d)
	}
}

func TestAndAddAlreadyReadyChild(t *testing.T) {
	rt := NewRuntime("aar")
	defer rt.Stop()
	done := make(chan struct{})
	rt.Spawn("w", func(co *Coroutine) {
		defer close(done)
		s := NewSignalEvent()
		s.Set()
		and := NewAndEvent()
		and.Add(s)
		if err := co.Wait(and); err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hung")
	}
}

// Several coroutines may wait on one QuorumEvent that they joined
// before its fan-out was known: the shape is declared late, every
// waiter wakes in the turn the quorum is met, in the order they began
// waiting, and the wait is traced with the shape and peers it finally
// had.
func TestQuorumSharedWaitReshapedAtFanOut(t *testing.T) {
	var records []WaitRecord // written under the baton, read after Stop
	rt := NewRuntime("qs", WithTracer(tracerFunc(func(r WaitRecord) { records = append(records, r) })))
	defer rt.Stop()
	const waiters = 3
	woke := make(chan int, waiters)
	rt.Spawn("opener", func(co *Coroutine) {
		q := NewQuorumEvent(1, 1) // placeholder shape: nothing added yet
		for i := 0; i < waiters; i++ {
			i := i
			rt.spawnLocked("member", func(mc *Coroutine) {
				if mc.WaitQuorum(q, 5*time.Second) == QuorumOK {
					woke <- i
				}
			}, time.Now())
		}
		_ = co.Sleep(2 * time.Millisecond) // the members are parked
		q.Reshape(3, 2)
		evs := []*ResultEvent{NewResultEvent("disk"), NewResultEvent("rpc", "s2"), NewResultEvent("rpc", "s3")}
		for _, ev := range evs {
			q.AddJudged(ev, nil)
		}
		evs[0].Fire(nil, nil)
		evs[1].Fire(nil, nil) // s3 never answers
	})
	for want := 0; want < waiters; want++ {
		select {
		case got := <-woke:
			if got != want {
				t.Fatalf("waiter %d woke in position %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a member of the shared wait never woke")
		}
	}
	rt.Stop()
	n := 0
	for _, r := range records {
		if r.CoroutineName != "member" {
			continue
		}
		n++
		if r.Event.Kind != "quorum" || r.Event.Quorum != 2 || r.Event.Total != 3 || len(r.Event.Peers) != 2 {
			t.Errorf("member wait traced as %+v, want a 2-of-3 quorum over 2 peers", r.Event)
		}
	}
	if n != waiters {
		t.Errorf("%d member waits traced, want %d", n, waiters)
	}
}

func TestQuorumReshapeAfterAddPanics(t *testing.T) {
	q := NewQuorumEvent(3, 2)
	q.AddAck()
	defer func() {
		if recover() == nil {
			t.Error("Reshape after a tally did not panic")
		}
	}()
	q.Reshape(5, 3)
}
