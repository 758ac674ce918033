package rpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/transport"
)

// echoReq/echoResp are the test service messages.
type echoReq struct{ Text string }
type echoResp struct{ Text string }

const (
	echoReqTag  = 50001
	echoRespTag = 50002
)

func (m *echoReq) TypeTag() uint32                { return echoReqTag }
func (m *echoReq) MarshalTo(e *codec.Encoder)     { e.String(m.Text) }
func (m *echoReq) UnmarshalFrom(d *codec.Decoder) { m.Text = d.String() }

func (m *echoResp) TypeTag() uint32                { return echoRespTag }
func (m *echoResp) MarshalTo(e *codec.Encoder)     { e.String(m.Text) }
func (m *echoResp) UnmarshalFrom(d *codec.Decoder) { m.Text = d.String() }

func init() {
	codec.Register(echoReqTag, func() codec.Message { return new(echoReq) })
	codec.Register(echoRespTag, func() codec.Message { return new(echoResp) })
}

// pair builds two endpoints (a, b) on one in-memory network; b serves
// echo.
type pair struct {
	net  *transport.Network
	rtA  *core.Runtime
	rtB  *core.Runtime
	epA  *Endpoint
	epB  *Endpoint
	envB *env.Env
}

func newPair(t testing.TB, opts ...Option) *pair {
	t.Helper()
	cfg := env.DefaultConfig()
	cfg.NetBase = 0
	p := &pair{
		net:  transport.NewNetwork(),
		rtA:  core.NewRuntime("a"),
		rtB:  core.NewRuntime("b"),
		envB: env.New("b", cfg),
	}
	p.epA = NewEndpoint("a", p.rtA, p.net, opts...)
	p.epB = NewEndpoint("b", p.rtB, p.net, opts...)
	p.net.Register("a", env.New("a", cfg), p.epA.TransportHandler())
	p.net.Register("b", p.envB, p.epB.TransportHandler())
	p.epB.Handle(echoReqTag, func(co *core.Coroutine, from string, req codec.Message) codec.Message {
		return &echoResp{Text: req.(*echoReq).Text + "!"}
	})
	t.Cleanup(func() {
		p.epA.Close()
		p.epB.Close()
		p.rtA.Stop()
		p.rtB.Stop()
		p.net.Close()
	})
	return p
}

// onA runs fn in a coroutine on endpoint a's runtime and waits for it.
func (p *pair) onA(t testing.TB, fn func(co *core.Coroutine)) {
	t.Helper()
	done := make(chan struct{})
	p.rtA.Spawn("test", func(co *core.Coroutine) {
		defer close(done)
		fn(co)
	})
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("coroutine timed out")
	}
}

func TestCallRoundTrip(t *testing.T) {
	p := newPair(t)
	p.onA(t, func(co *core.Coroutine) {
		ev := p.epA.Call("b", &echoReq{Text: "hi"})
		if err := co.Wait(ev); err != nil {
			t.Errorf("wait: %v", err)
			return
		}
		if ev.Err() != nil {
			t.Errorf("rpc err: %v", ev.Err())
			return
		}
		resp := ev.Value().(*echoResp)
		if resp.Text != "hi!" {
			t.Errorf("resp = %q", resp.Text)
		}
	})
}

func TestProxyCall(t *testing.T) {
	p := newPair(t)
	p.onA(t, func(co *core.Coroutine) {
		proxy := p.epA.Proxy("b")
		if proxy.Peer() != "b" {
			t.Errorf("peer = %q", proxy.Peer())
		}
		ev := proxy.Call(&echoReq{Text: "via proxy"})
		_ = co.Wait(ev)
		if ev.Err() != nil || ev.Value().(*echoResp).Text != "via proxy!" {
			t.Errorf("proxy call failed: %v %v", ev.Value(), ev.Err())
		}
	})
}

func TestCallUnknownHandler(t *testing.T) {
	p := newPair(t)
	// a has no handler for echo; call b->a.
	done := make(chan struct{})
	p.rtB.Spawn("test", func(co *core.Coroutine) {
		defer close(done)
		ev := p.epB.Call("a", &echoReq{Text: "x"})
		_ = co.Wait(ev)
		if ev.Err() == nil || !errors.Is(ev.Err(), ErrRemote) {
			t.Errorf("err = %v, want ErrRemote", ev.Err())
		}
		if !strings.Contains(ev.Err().Error(), "no handler") {
			t.Errorf("err text = %v", ev.Err())
		}
	})
	<-done
}

func TestCallTimeoutSweep(t *testing.T) {
	p := newPair(t, WithCallTimeout(150*time.Millisecond))
	// Partition so the request never arrives.
	p.net.SetLinkDown("a", "b", true)
	p.onA(t, func(co *core.Coroutine) {
		ev := p.epA.Call("b", &echoReq{Text: "lost"})
		start := time.Now()
		if err := co.Wait(ev); err != nil {
			t.Errorf("wait: %v", err)
			return
		}
		if !errors.Is(ev.Err(), ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", ev.Err())
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("sweep took %v", el)
		}
	})
	if p.epA.Timeouts.Value() != 1 {
		t.Errorf("timeouts = %d, want 1", p.epA.Timeouts.Value())
	}
}

func TestCallUnknownNodeFailsFast(t *testing.T) {
	p := newPair(t)
	p.onA(t, func(co *core.Coroutine) {
		ev := p.epA.Call("ghost", &echoReq{Text: "x"})
		// Transport error fires synchronously.
		if !ev.Ready() || !errors.Is(ev.Err(), transport.ErrUnknownNode) {
			t.Errorf("err = %v, want ErrUnknownNode immediately", ev.Err())
		}
	})
}

func TestCallAfterCloseFails(t *testing.T) {
	p := newPair(t)
	p.epA.Close()
	p.onA(t, func(co *core.Coroutine) {
		ev := p.epA.Call("b", &echoReq{Text: "x"})
		if !ev.Ready() || !errors.Is(ev.Err(), ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", ev.Err())
		}
	})
}

func TestCloseFailsPendingCalls(t *testing.T) {
	p := newPair(t)
	p.net.SetLinkDown("a", "b", true)
	got := make(chan error, 1)
	p.rtA.Spawn("test", func(co *core.Coroutine) {
		ev := p.epA.Call("b", &echoReq{Text: "x"})
		_ = co.Wait(ev)
		got <- ev.Err()
	})
	time.Sleep(20 * time.Millisecond)
	p.epA.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not failed on close")
	}
}

func TestQuorumOverRPC(t *testing.T) {
	// Three servers; one is partitioned (fail-stop-like slow); a
	// majority quorum still completes quickly.
	cfg := env.DefaultConfig()
	cfg.NetBase = 0
	net := transport.NewNetwork()
	defer net.Close()
	names := []string{"s1", "s2", "s3", "s4"}
	rts := make(map[string]*core.Runtime)
	eps := make(map[string]*Endpoint)
	for _, n := range names {
		rts[n] = core.NewRuntime(n)
		eps[n] = NewEndpoint(n, rts[n], net, WithCallTimeout(time.Second))
		net.Register(n, env.New(n, cfg), eps[n].TransportHandler())
		eps[n].Handle(echoReqTag, func(co *core.Coroutine, from string, req codec.Message) codec.Message {
			return &echoResp{Text: "ok"}
		})
	}
	defer func() {
		for _, n := range names {
			eps[n].Close()
			rts[n].Stop()
		}
	}()
	net.SetLinkDown("s1", "s4", true) // s4 unreachable from s1

	out := make(chan core.QuorumOutcome, 1)
	rts["s1"].Spawn("leader", func(co *core.Coroutine) {
		q := core.NewQuorumEvent(3, 2)
		for _, peer := range []string{"s2", "s3", "s4"} {
			q.AddJudged(eps["s1"].Call(peer, &echoReq{Text: "vote"}), nil)
		}
		out <- co.WaitQuorum(q, 5*time.Second)
	})
	select {
	case o := <-out:
		if o != core.QuorumOK {
			t.Fatalf("outcome = %v, want ok", o)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("hung")
	}
}

func TestOutboxDelivers(t *testing.T) {
	p := newPair(t)
	p.onA(t, func(co *core.Coroutine) {
		ob := NewOutbox(p.epA, "b", OutboxConfig{Window: 2})
		evs := make([]*core.ResultEvent, 5)
		and := core.NewAndEvent()
		for i := range evs {
			evs[i] = core.NewResultEvent("rpc", "b")
			and.Add(evs[i])
			ob.Send(&echoReq{Text: "m"}, evs[i], int64(i))
		}
		if err := co.Wait(and); err != nil {
			t.Errorf("wait: %v", err)
			return
		}
		for i, ev := range evs {
			if ev.Err() != nil {
				t.Errorf("msg %d err: %v", i, ev.Err())
			}
		}
		if ob.QueueLen() != 0 || ob.Inflight() != 0 || ob.QueueBytes() != 0 {
			t.Errorf("outbox not drained: q=%d inflight=%d bytes=%d",
				ob.QueueLen(), ob.Inflight(), ob.QueueBytes())
		}
	})
}

func TestOutboxWindowLimitsInflight(t *testing.T) {
	p := newPair(t)
	p.net.SetLinkDown("a", "b", true) // replies never come
	p.onA(t, func(co *core.Coroutine) {
		ob := NewOutbox(p.epA, "b", OutboxConfig{Window: 3})
		for i := 0; i < 10; i++ {
			ob.Send(&echoReq{Text: "m"}, core.NewResultEvent("rpc", "b"), int64(i))
		}
		if ob.Inflight() != 3 {
			t.Errorf("inflight = %d, want 3", ob.Inflight())
		}
		if ob.QueueLen() != 7 {
			t.Errorf("queued = %d, want 7", ob.QueueLen())
		}
	})
}

func TestOutboxBoundedOverflow(t *testing.T) {
	p := newPair(t)
	p.net.SetLinkDown("a", "b", true)
	p.onA(t, func(co *core.Coroutine) {
		ob := NewOutbox(p.epA, "b", OutboxConfig{Window: 1, Capacity: 2})
		var overflowed int
		for i := 0; i < 6; i++ {
			ev := core.NewResultEvent("rpc", "b")
			ob.Send(&echoReq{Text: "m"}, ev, int64(i))
			if ev.Ready() && errors.Is(ev.Err(), ErrBacklogOverflow) {
				overflowed++
			}
		}
		// window=1 in flight, 2 queued, 3 overflowed.
		if overflowed != 3 {
			t.Errorf("overflowed = %d, want 3", overflowed)
		}
		if ob.Overflows.Value() != 3 {
			t.Errorf("overflow counter = %d", ob.Overflows.Value())
		}
	})
}

func TestOutboxCancelBelow(t *testing.T) {
	p := newPair(t)
	p.net.SetLinkDown("a", "b", true)
	p.onA(t, func(co *core.Coroutine) {
		ob := NewOutbox(p.epA, "b", OutboxConfig{Window: 1})
		evs := make([]*core.ResultEvent, 6)
		for i := range evs {
			evs[i] = core.NewResultEvent("rpc", "b")
			ob.Send(&echoReq{Text: "m"}, evs[i], int64(i))
		}
		// idx 0 in flight; 1..5 queued. Cancel classes <= 3.
		n := ob.CancelBelow(3)
		if n != 3 {
			t.Errorf("cancelled = %d, want 3 (classes 1,2,3)", n)
		}
		for i := 1; i <= 3; i++ {
			if !evs[i].Ready() || !errors.Is(evs[i].Err(), ErrDiscarded) {
				t.Errorf("ev %d = %v, want ErrDiscarded", i, evs[i].Err())
			}
		}
		for _, i := range []int{4, 5} {
			if evs[i].Ready() {
				t.Errorf("ev %d should still be queued", i)
			}
		}
		if ob.QueueLen() != 2 {
			t.Errorf("queue = %d, want 2", ob.QueueLen())
		}
		if ob.Discards.Value() != 3 {
			t.Errorf("discards = %d, want 3", ob.Discards.Value())
		}
	})
}

func TestOutboxCancelAll(t *testing.T) {
	p := newPair(t)
	p.net.SetLinkDown("a", "b", true)
	p.onA(t, func(co *core.Coroutine) {
		ob := NewOutbox(p.epA, "b", OutboxConfig{Window: 1})
		for i := 0; i < 4; i++ {
			ob.Send(&echoReq{Text: "m"}, core.NewResultEvent("rpc", "b"), int64(i))
		}
		if n := ob.CancelAll(); n != 3 { // one in flight is untouchable
			t.Errorf("cancelled = %d, want 3", n)
		}
		if ob.QueueLen() != 0 {
			t.Errorf("queue = %d, want 0", ob.QueueLen())
		}
	})
}

func TestOutboxTracksResidentMemory(t *testing.T) {
	p := newPair(t)
	p.net.SetLinkDown("a", "b", true)
	cfg := env.DefaultConfig()
	e := env.New("a", cfg)
	p.onA(t, func(co *core.Coroutine) {
		ob := NewOutbox(p.epA, "b", OutboxConfig{Window: 1, Env: e})
		for i := 0; i < 5; i++ {
			ob.Send(&echoReq{Text: strings.Repeat("x", 1000)}, core.NewResultEvent("rpc", "b"), int64(i))
		}
		if e.Resident() < 4000 { // 4 queued x ~1KB
			t.Errorf("resident = %d, want >= 4000", e.Resident())
		}
		ob.CancelAll()
		if e.Resident() != 0 {
			t.Errorf("resident after cancel = %d, want 0", e.Resident())
		}
	})
}

// A broadcast encodes its message once and hands the same payload to
// every target's outbox: each outbox delivers it and accounts for it on
// its own, and discarding it in one leaves the other's copy alone.
func TestOutboxSendPayloadSharesOneEncoding(t *testing.T) {
	p := newPair(t)
	e := env.New("a", env.DefaultConfig())
	p.onA(t, func(co *core.Coroutine) {
		payload := codec.Marshal(&echoReq{Text: strings.Repeat("x", 1000)})
		size := int64(len(payload))
		ob1 := NewOutbox(p.epA, "b", OutboxConfig{Window: 1, Env: e})
		ob2 := NewOutbox(p.epA, "b", OutboxConfig{Window: 1, Env: e})
		and := core.NewAndEvent()
		for _, ob := range []*Outbox{ob1, ob2} {
			ev := core.NewResultEvent("rpc", "b")
			and.Add(ev)
			ob.SendPayload(payload, ev, 0)
		}
		if co.WaitFor(and, 5*time.Second) != core.WaitReady {
			t.Error("shared payload not delivered through both outboxes")
			return
		}

		p.net.SetLinkDown("a", "b", true)
		queued := core.NewResultEvent("rpc", "b")
		for _, ob := range []*Outbox{ob1, ob2} {
			ob.SendPayload(payload, core.NewResultEvent("rpc", "b"), 1) // holds the window
		}
		ob1.SendPayload(payload, queued, 2)
		ob2.SendPayload(payload, core.NewResultEvent("rpc", "b"), 2)
		if ob1.QueueBytes() != size || ob2.QueueBytes() != size || e.Resident() != 2*size {
			t.Errorf("queued bytes = %d and %d, resident = %d; want %d, %d, %d",
				ob1.QueueBytes(), ob2.QueueBytes(), e.Resident(), size, size, 2*size)
		}
		if n := ob1.CancelBelow(2); n != 1 || !errors.Is(queued.Err(), ErrDiscarded) {
			t.Errorf("cancelled %d, err %v", n, queued.Err())
		}
		if ob1.QueueBytes() != 0 || ob2.QueueBytes() != size || e.Resident() != size {
			t.Errorf("after discard in one: queued bytes = %d and %d, resident = %d; want 0, %d, %d",
				ob1.QueueBytes(), ob2.QueueBytes(), e.Resident(), size, size)
		}
	})
}

func TestOutboxQuorumDiscardScenario(t *testing.T) {
	// End-to-end mirror of the paper's broadcast optimization: leader
	// broadcasts to 2 followers, one is partitioned; after quorum
	// (self + fast follower) the slow follower's backlog is discarded.
	cfg := env.DefaultConfig()
	cfg.NetBase = 0
	net := transport.NewNetwork()
	defer net.Close()
	names := []string{"l", "f1", "f2"}
	rts := make(map[string]*core.Runtime)
	eps := make(map[string]*Endpoint)
	for _, n := range names {
		rts[n] = core.NewRuntime(n)
		eps[n] = NewEndpoint(n, rts[n], net, WithCallTimeout(time.Second))
		net.Register(n, env.New(n, cfg), eps[n].TransportHandler())
		eps[n].Handle(echoReqTag, func(co *core.Coroutine, from string, req codec.Message) codec.Message {
			return &echoResp{Text: "ack"}
		})
	}
	defer func() {
		for _, n := range names {
			eps[n].Close()
			rts[n].Stop()
		}
	}()
	net.SetLinkDown("l", "f2", true) // f2 is the straggler

	done := make(chan bool, 1)
	rts["l"].Spawn("leader", func(co *core.Coroutine) {
		ob1 := NewOutbox(eps["l"], "f1", OutboxConfig{Window: 1})
		ob2 := NewOutbox(eps["l"], "f2", OutboxConfig{Window: 1})
		var lastOK bool
		for i := 0; i < 20; i++ {
			q := core.NewQuorumEvent(3, 2)
			q.AddAck() // leader itself
			ev1 := core.NewResultEvent("rpc", "f1")
			ev2 := core.NewResultEvent("rpc", "f2")
			q.AddJudged(ev1, nil)
			q.AddJudged(ev2, nil)
			ob1.Send(&echoReq{Text: "e"}, ev1, int64(i))
			ob2.Send(&echoReq{Text: "e"}, ev2, int64(i))
			out := co.WaitQuorum(q, 5*time.Second)
			lastOK = out == core.QuorumOK
			if !lastOK {
				break
			}
			ob2.CancelBelow(int64(i)) // quorum met: drop straggler backlog
		}
		if ob2.QueueLen() > 1 {
			t.Errorf("straggler backlog grew to %d despite discard", ob2.QueueLen())
		}
		if ob2.Discards.Value() == 0 {
			t.Error("no discards recorded")
		}
		done <- lastOK
	})
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("quorum failed despite healthy majority")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hung")
	}
}
