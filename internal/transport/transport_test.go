package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"depfast/internal/env"
)

func newEnv(name string) *env.Env {
	cfg := env.DefaultConfig()
	cfg.NetBase = 0 // zero-latency baseline for precise assertions
	return env.New(name, cfg)
}

func TestNetworkDelivers(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	got := make(chan string, 1)
	n.Register("b", newEnv("b"), func(from string, payload []byte) {
		got <- from + ":" + string(payload)
	})
	n.Register("a", newEnv("a"), func(string, []byte) {})
	if err := n.Send("a", "b", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != "a:hi" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("not delivered")
	}
}

func TestNetworkUnknownNode(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	if err := n.Send("a", "nope", []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestNetworkAsymmetricOneWayDelay(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	envA, envB := newEnv("a"), newEnv("b")
	gotA := make(chan time.Time, 4)
	gotB := make(chan time.Time, 4)
	gotC := make(chan time.Time, 4)
	n.Register("a", envA, func(string, []byte) { gotA <- time.Now() })
	n.Register("b", envB, func(string, []byte) { gotB <- time.Now() })
	n.Register("c", newEnv("c"), func(string, []byte) { gotC <- time.Now() })

	// Slow only the a→b direction.
	envA.SetNetDelayTo("b", 150*time.Millisecond)

	elapsed := func(from, to string, ch chan time.Time) time.Duration {
		start := time.Now()
		if err := n.Send(from, to, []byte("x")); err != nil {
			t.Fatal(err)
		}
		select {
		case at := <-ch:
			return at.Sub(start)
		case <-time.After(5 * time.Second):
			t.Fatalf("%s->%s not delivered", from, to)
			return 0
		}
	}

	if d := elapsed("a", "b", gotB); d < 120*time.Millisecond {
		t.Fatalf("a->b took %v, want >= ~150ms one-way delay", d)
	}
	// The reverse direction and other destinations stay fast.
	if d := elapsed("b", "a", gotA); d > 60*time.Millisecond {
		t.Fatalf("b->a took %v, want fast (asym delay is one-way)", d)
	}
	if d := elapsed("a", "c", gotC); d > 60*time.Millisecond {
		t.Fatalf("a->c took %v, want fast (other peers unaffected)", d)
	}
	// ClearFaults heals the direction.
	envA.ClearFaults()
	if d := elapsed("a", "b", gotB); d > 60*time.Millisecond {
		t.Fatalf("a->b after ClearFaults took %v, want fast", d)
	}
}

func TestNetworkOrderingSameDelay(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	var mu sync.Mutex
	var order []byte
	done := make(chan struct{})
	n.Register("b", newEnv("b"), func(_ string, p []byte) {
		mu.Lock()
		order = append(order, p[0])
		if len(order) == 10 {
			close(done)
		}
		mu.Unlock()
	})
	n.Register("a", newEnv("a"), func(string, []byte) {})
	for i := byte(0); i < 10; i++ {
		if err := n.Send("a", "b", []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range order {
		if order[i] != byte(i) {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestNetworkNICDelayApplied(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	eb := newEnv("b")
	eb.SetNetDelay(50 * time.Millisecond)
	got := make(chan time.Time, 1)
	n.Register("b", eb, func(string, []byte) { got <- time.Now() })
	n.Register("a", newEnv("a"), func(string, []byte) {})
	start := time.Now()
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-got:
		if el := at.Sub(start); el < 45*time.Millisecond {
			t.Fatalf("delivered after %v, want >= 50ms (receiver NIC delay)", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestNetworkSenderNICDelayApplied(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	ea := newEnv("a")
	ea.SetNetDelay(30 * time.Millisecond)
	got := make(chan time.Time, 1)
	n.Register("b", newEnv("b"), func(string, []byte) { got <- time.Now() })
	n.Register("a", ea, func(string, []byte) {})
	start := time.Now()
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	at := <-got
	if el := at.Sub(start); el < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= 30ms (sender NIC delay)", el)
	}
}

func TestNetworkPartition(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	var delivered atomic.Int32
	n.Register("b", newEnv("b"), func(string, []byte) { delivered.Add(1) })
	n.Register("a", newEnv("a"), func(string, []byte) {})
	n.SetLinkDown("a", "b", true)
	if err := n.Send("a", "b", []byte("x")); err != nil {
		t.Fatal(err) // partitioned link drops silently
	}
	time.Sleep(20 * time.Millisecond)
	if delivered.Load() != 0 {
		t.Fatal("message crossed a partition")
	}
	if n.Dropped.Value() != 1 {
		t.Fatalf("dropped = %d, want 1", n.Dropped.Value())
	}
	n.SetLinkDown("a", "b", false)
	if err := n.Send("a", "b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() != 1 {
		t.Fatal("healed link did not deliver")
	}
}

func TestNetworkUnregister(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	n.Register("b", newEnv("b"), func(string, []byte) {})
	n.Unregister("b")
	if err := n.Send("a", "b", []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestNetworkCloseRejectsSend(t *testing.T) {
	n := NewNetwork()
	n.Register("b", newEnv("b"), func(string, []byte) {})
	n.Close()
	if err := n.Send("a", "b", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestNetworkCounters(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	done := make(chan struct{}, 3)
	n.Register("b", newEnv("b"), func(string, []byte) { done <- struct{}{} })
	n.Register("a", newEnv("a"), func(string, []byte) {})
	for i := 0; i < 3; i++ {
		if err := n.Send("a", "b", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		<-done
	}
	if n.Sent.Value() != 3 || n.Delivered.Value() != 3 {
		t.Fatalf("sent=%d delivered=%d, want 3/3", n.Sent.Value(), n.Delivered.Value())
	}
}

func TestNetworkConcurrentSenders(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	var delivered atomic.Int32
	n.Register("dst", newEnv("dst"), func(string, []byte) { delivered.Add(1) })
	var wg sync.WaitGroup
	const senders, per = 8, 100
	for s := 0; s < senders; s++ {
		name := string(rune('a' + s))
		n.Register(name, newEnv(name), func(string, []byte) {})
	}
	for s := 0; s < senders; s++ {
		wg.Add(1)
		name := string(rune('a' + s))
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = n.Send(name, "dst", []byte("m"))
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() != senders*per && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := delivered.Load(); got != senders*per {
		t.Fatalf("delivered = %d, want %d", got, senders*per)
	}
}

func TestNetworkEarlierMessagePreempts(t *testing.T) {
	// A message with a shorter delay enqueued later must not wait
	// behind an earlier long-delay message.
	n := NewNetwork()
	defer n.Close()
	slow := newEnv("slow")
	slow.SetNetDelay(80 * time.Millisecond)
	var mu sync.Mutex
	var order []string
	done := make(chan struct{})
	n.Register("dst", newEnv("dst"), func(from string, _ []byte) {
		mu.Lock()
		order = append(order, from)
		if len(order) == 2 {
			close(done)
		}
		mu.Unlock()
	})
	n.Register("slow", slow, func(string, []byte) {})
	n.Register("fast", newEnv("fast"), func(string, []byte) {})
	_ = n.Send("slow", "dst", []byte("x"))
	time.Sleep(5 * time.Millisecond)
	_ = n.Send("fast", "dst", []byte("y"))
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	mu.Lock()
	defer mu.Unlock()
	if order[0] != "fast" || order[1] != "slow" {
		t.Fatalf("order = %v, want [fast slow]", order)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	got := make(chan string, 1)
	addrB, err := tr.Listen("b", "127.0.0.1:0", func(from string, p []byte) {
		got <- from + ":" + string(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	// A second transport instance models a separate process.
	tr2 := NewTCP()
	defer tr2.Close()
	tr2.AddPeer("b", addrB)
	if err := tr2.Send("a", "b", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != "a:over tcp" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestTCPBidirectional(t *testing.T) {
	trA, trB := NewTCP(), NewTCP()
	defer trA.Close()
	defer trB.Close()
	gotA := make(chan string, 1)
	gotB := make(chan string, 1)
	addrA, err := trA.Listen("a", "127.0.0.1:0", func(from string, p []byte) { gotA <- string(p) })
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := trB.Listen("b", "127.0.0.1:0", func(from string, p []byte) { gotB <- string(p) })
	if err != nil {
		t.Fatal(err)
	}
	trA.AddPeer("b", addrB)
	trB.AddPeer("a", addrA)
	if err := trA.Send("a", "b", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if m := <-gotB; m != "ping" {
		t.Fatalf("b got %q", m)
	}
	if err := trB.Send("b", "a", []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if m := <-gotA; m != "pong" {
		t.Fatalf("a got %q", m)
	}
	// A 1 MiB payload there and back: one frame, written in one Write,
	// arrives whole on both sides.
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := trA.Send("a", "b", big); err != nil {
		t.Fatal(err)
	}
	echo := <-gotB
	if echo != string(big) {
		t.Fatalf("b got %d bytes, not the %d sent", len(echo), len(big))
	}
	if err := trB.Send("b", "a", []byte(echo)); err != nil {
		t.Fatal(err)
	}
	if m := <-gotA; m != string(big) {
		t.Fatalf("a got %d bytes back, not the %d sent", len(m), len(big))
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	if err := tr.Send("a", "ghost", []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestTCPManyMessages(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	var count atomic.Int32
	addr, err := tr.Listen("b", "127.0.0.1:0", func(string, []byte) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	tr2 := NewTCP()
	defer tr2.Close()
	tr2.AddPeer("b", addr)
	const msgs = 500
	for i := 0; i < msgs; i++ {
		if err := tr2.Send("a", "b", []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for count.Load() != msgs && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if count.Load() != msgs {
		t.Fatalf("delivered = %d, want %d", count.Load(), msgs)
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	tr := NewTCP()
	tr.AddPeer("b", "127.0.0.1:1")
	tr.Close()
	if err := tr.Send("a", "b", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTCPReplyOverInboundConnection(t *testing.T) {
	// A "client" transport with no listener of its own must still get
	// replies: servers answer over the connection the client dialed.
	srv := NewTCP()
	defer srv.Close()
	addr, err := srv.Listen("server", "127.0.0.1:0", func(from string, p []byte) {
		// Echo back to the sender by name; the server has no dialable
		// address for it.
		_ = srv.Send("server", from, append([]byte("re:"), p...))
	})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewTCP()
	defer cli.Close()
	got := make(chan string, 1)
	// The client listens only to receive on its *outgoing* connection;
	// no Listen call at all.
	cli.AddPeer("server", addr)
	// Register a handler for the client's own node name by listening on
	// a throwaway port? No: dialed connections dispatch to the sender's
	// handler, which is registered via Listen. Use a loopback listener
	// purely to install the handler table entry.
	if _, err := cli.Listen("client", "127.0.0.1:0", func(from string, p []byte) {
		got <- from + "/" + string(p)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send("client", "server", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != "server/re:ping" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply over inbound connection")
	}
}

func TestTCPDialedConnectionReceivesPushes(t *testing.T) {
	// After the client dials once, the server can push multiple
	// messages back over the same connection.
	srv := NewTCP()
	defer srv.Close()
	ready := make(chan string, 1)
	addr, err := srv.Listen("server", "127.0.0.1:0", func(from string, p []byte) {
		ready <- from
	})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewTCP()
	defer cli.Close()
	cli.AddPeer("server", addr)
	var count atomic.Int32
	if _, err := cli.Listen("pushee", "127.0.0.1:0", func(string, []byte) {
		count.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send("pushee", "server", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	<-ready
	for i := 0; i < 5; i++ {
		if err := srv.Send("server", "pushee", []byte("push")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for count.Load() != 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if count.Load() != 5 {
		t.Fatalf("pushed = %d, want 5", count.Load())
	}
}

func TestNetworkLossRate(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	var delivered atomic.Int32
	n.Register("dst", newEnv("dst"), func(string, []byte) { delivered.Add(1) })
	n.Register("src", newEnv("src"), func(string, []byte) {})
	n.SetLossRate("dst", 0.5)
	const msgs = 400
	for i := 0; i < msgs; i++ {
		if err := n.Send("src", "dst", []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if delivered.Load()+int32(n.Dropped.Value()) == msgs {
			break
		}
		time.Sleep(time.Millisecond)
	}
	got := delivered.Load()
	if got < msgs/4 || got > 3*msgs/4 {
		t.Fatalf("delivered %d/%d with 50%% loss", got, msgs)
	}
	// Clearing the loss restores full delivery.
	n.SetLossRate("dst", 0)
	before := delivered.Load()
	for i := 0; i < 50; i++ {
		_ = n.Send("src", "dst", []byte("m"))
	}
	deadline = time.Now().Add(5 * time.Second)
	for delivered.Load() != before+50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() != before+50 {
		t.Fatalf("loss not cleared: %d", delivered.Load()-before)
	}
}
