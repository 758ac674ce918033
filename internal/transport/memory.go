// Package transport moves framed messages between nodes. Two
// implementations share one interface: an in-memory network with a
// per-node latency model and fault-injection hooks (the default for
// experiments — deterministic and laptop-scale), and a TCP transport
// for real multi-process deployments. Both carry the same codec bytes,
// so the serialization path is identical.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"depfast/internal/env"
	"depfast/internal/metrics"
)

// Handler receives a message on the destination node's dispatcher
// goroutine. Implementations must not block for long; hand off to a
// runtime via Post.
type Handler func(from string, payload []byte)

// Transport is the sender-side interface used by the RPC layer.
type Transport interface {
	// Send delivers payload from node from to node to, asynchronously.
	// Errors are best-effort: an unknown destination errors, a dropped
	// message on a partitioned link does not.
	Send(from, to string, payload []byte) error
	// Close stops all delivery.
	Close()
}

// Common transport errors.
var (
	ErrUnknownNode = errors.New("transport: unknown node")
	ErrClosed      = errors.New("transport: closed")
)

// Network is the in-memory transport. Message latency is
// senderEnv.NetDelayTo(dst) + receiverEnv.NetDelay(); injecting a NIC
// delay on one node (Table 1, network slowness) therefore slows both
// its inbound and outbound traffic, like tc netem on the interface,
// while a per-peer one-way delay (env.SetNetDelayTo) slows only the
// sender's flow toward that destination.
type Network struct {
	mu     sync.Mutex
	nodes  map[string]*memNode
	envs   map[string]*env.Env
	down   map[[2]string]bool
	loss   map[string]float64 // per-node message loss probability
	rng    uint64             // xorshift state for loss decisions
	closed bool

	Sent      *metrics.Counter
	Delivered *metrics.Counter
	Dropped   *metrics.Counter
}

// NewNetwork returns an empty in-memory network.
func NewNetwork() *Network {
	return &Network{
		nodes:     make(map[string]*memNode),
		envs:      make(map[string]*env.Env),
		down:      make(map[[2]string]bool),
		loss:      make(map[string]float64),
		rng:       0x9e3779b97f4a7c15,
		Sent:      metrics.NewCounter("net.sent"),
		Delivered: metrics.NewCounter("net.delivered"),
		Dropped:   metrics.NewCounter("net.dropped"),
	}
}

// Register attaches a node with its resource environment and message
// handler, and starts its dispatcher. Re-registering a name replaces
// the previous node.
func (n *Network) Register(node string, e *env.Env, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if prev, ok := n.nodes[node]; ok {
		prev.close()
	}
	mn := newMemNode(node, h, n.Delivered)
	n.nodes[node] = mn
	n.envs[node] = e
	go mn.dispatch()
}

// Unregister detaches a node; in-flight messages to it are dropped.
func (n *Network) Unregister(node string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if mn, ok := n.nodes[node]; ok {
		mn.close()
		delete(n.nodes, node)
		delete(n.envs, node)
	}
}

// SetLinkDown partitions (or heals) the link between a and b in both
// directions.
func (n *Network) SetLinkDown(a, b string, isDown bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[[2]string{a, b}] = isDown
	n.down[[2]string{b, a}] = isDown
}

// SetLossRate drops messages to or from node with probability p in
// [0,1] — lossy-network injection, independent of partitions.
func (n *Network) SetLossRate(node string, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p <= 0 {
		delete(n.loss, node)
		return
	}
	if p > 1 {
		p = 1
	}
	n.loss[node] = p
}

// lossDraw returns a uniform float in [0,1); callers hold n.mu.
func (n *Network) lossDraw() float64 {
	v := n.rng
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	n.rng = v
	return float64(v>>11) / float64(1<<53)
}

// Send implements Transport.
func (n *Network) Send(from, to string, payload []byte) error {
	dst, delay, drop, err := n.route(from, to)
	if err != nil {
		return err
	}
	if drop {
		n.Dropped.Inc()
		return nil
	}
	n.Sent.Inc()
	dst.enqueue(from, payload, time.Now().Add(delay))
	return nil
}

// route decides one send under the lock: the destination node, the
// link's modeled delay, and whether the partition/loss model dropped
// the message silently (like the wire would).
func (n *Network) route(from, to string) (dst *memNode, delay time.Duration, drop bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, 0, false, ErrClosed
	}
	dst, ok := n.nodes[to]
	if !ok {
		return nil, 0, false, fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	if n.down[[2]string{from, to}] {
		return nil, 0, true, nil // partitioned links drop silently
	}
	if p := n.loss[from] + n.loss[to]; p > 0 && n.lossDraw() < p {
		return nil, 0, true, nil // lossy link ate the message
	}
	if e, ok := n.envs[from]; ok {
		// Sender-side latency is directional: an asymmetric one-way
		// delay toward this destination slows only this flow, while the
		// reverse path and other peers stay at the NIC baseline.
		delay += e.NetDelayTo(to)
	}
	if e, ok := n.envs[to]; ok {
		delay += e.NetDelay()
	}
	return dst, delay, false, nil
}

// Close implements Transport.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, mn := range n.nodes {
		mn.close()
	}
}

// delivery is one in-flight message.
type delivery struct {
	from    string
	payload []byte
	at      time.Time
	seq     uint64
}

// delivHeap orders in-flight messages by due time, then by send order.
// It holds them by value, so a send allocates nothing of its own.
type delivHeap []delivery

func (h delivHeap) less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h *delivHeap) push(d delivery) {
	*h = append(*h, d)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *delivHeap) pop() delivery {
	q := *h
	d, n := q[0], len(q)-1
	q[0], q[n] = q[n], delivery{}
	q = q[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && q.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && q.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return d
}

// memNode is one registered node: a delay queue plus a dispatcher.
type memNode struct {
	name      string
	h         Handler
	delivered *metrics.Counter

	mu     sync.Mutex
	queue  delivHeap
	seq    uint64
	wake   chan struct{}
	closed chan struct{}
	once   sync.Once
}

func newMemNode(name string, h Handler, delivered *metrics.Counter) *memNode {
	return &memNode{
		name:      name,
		h:         h,
		delivered: delivered,
		wake:      make(chan struct{}, 1),
		closed:    make(chan struct{}),
	}
}

func (mn *memNode) enqueue(from string, payload []byte, at time.Time) {
	mn.mu.Lock()
	mn.seq++
	mn.queue.push(delivery{from: from, payload: payload, at: at, seq: mn.seq})
	mn.mu.Unlock()
	select {
	case mn.wake <- struct{}{}:
	default:
	}
}

func (mn *memNode) close() { mn.once.Do(func() { close(mn.closed) }) }

// dispatch delivers queued messages at their due times, in order. One
// timer, re-armed for each wait, serves every message not yet due.
func (mn *memNode) dispatch() {
	var tm *time.Timer
	for {
		msg, wait, empty := mn.next()
		switch {
		case empty:
			select {
			case <-mn.wake:
			case <-mn.closed:
				return
			}
		case wait == 0:
			mn.delivered.Inc()
			mn.h(msg.from, msg.payload)
		default:
			if tm == nil {
				tm = time.NewTimer(wait)
			} else {
				tm.Reset(wait) // stopped or drained below, so Reset is safe
			}
			select {
			case <-mn.wake: // an earlier message may have arrived
				if !tm.Stop() {
					<-tm.C
				}
			case <-tm.C:
			case <-mn.closed:
				tm.Stop()
				return
			}
		}
	}
}

// next takes the queue's next due delivery under the lock: a message
// when the head is due now, the wait until it is due otherwise, or
// empty when there is nothing queued.
func (mn *memNode) next() (msg delivery, wait time.Duration, empty bool) {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	if len(mn.queue) == 0 {
		return delivery{}, 0, true
	}
	if d := time.Until(mn.queue[0].at); d > 0 {
		return delivery{}, d, false
	}
	return mn.queue.pop(), 0, false
}
