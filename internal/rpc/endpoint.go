// Package rpc is DepFast's "framework" networking layer: typed
// request/response messaging whose calls return events instead of
// invoking callbacks, per-peer outboxes with windowed flow control,
// and the quorum-aware discard optimization the paper argues a
// framework can apply once it knows a broadcast only needs a quorum of
// replies.
package rpc

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/metrics"
	"depfast/internal/transport"
)

// RPC completion errors; they surface via ResultEvent.Err and are
// judged as rejects by default quorum judges.
var (
	ErrTimeout         = errors.New("rpc: call expired")
	ErrDiscarded       = errors.New("rpc: discarded by quorum-aware broadcast")
	ErrBacklogOverflow = errors.New("rpc: peer outbox full")
	ErrRemote          = errors.New("rpc: remote handler error")
	ErrClosed          = errors.New("rpc: endpoint closed")
	ErrUnreachable     = errors.New("rpc: peer removed from configuration")
)

// HandlerFunc services one inbound request on a fresh coroutine of the
// endpoint's runtime. Returning a non-nil message sends it as the
// reply; returning nil sends an error reply.
type HandlerFunc func(co *core.Coroutine, from string, req codec.Message) codec.Message

// Endpoint is one node's RPC stack, binding a runtime to a transport.
type Endpoint struct {
	node string
	rt   *core.Runtime
	tr   transport.Transport

	mu          sync.Mutex
	pending     map[uint64]pendingCall
	nextID      uint64
	closed      bool
	unreachable map[string]bool

	// handlers is replaced whole by Handle (under mu) and read without
	// the lock on every inbound request.
	handlers atomic.Pointer[map[uint32]handler]

	callTimeout time.Duration
	observer    func(peer string, rtt time.Duration, timedOut bool)
	sweepStop   chan struct{}
	sweepOnce   sync.Once

	Calls    *metrics.Counter
	Timeouts *metrics.Counter
}

// handler is a registered HandlerFunc and the name its coroutines run
// under, built once at registration.
type handler struct {
	fn   HandlerFunc
	name string
}

// pendingCall is one outstanding call, stored by value in the pending
// map: booking a call allocates nothing of its own.
type pendingCall struct {
	ev       *core.ResultEvent
	to       string
	sentAt   time.Time
	deadline time.Time
}

// Option configures an Endpoint.
type Option func(*Endpoint)

// WithCallTimeout sets how long an unanswered call may stay pending
// before it is failed with ErrTimeout (default 5s).
func WithCallTimeout(d time.Duration) Option {
	return func(ep *Endpoint) { ep.callTimeout = d }
}

// WithLatencyObserver installs a hook receiving every call's peer and
// round-trip time (timedOut true when the sweeper expired it). This is
// the raw signal for fail-slow peer detection; the hook runs on
// transport/sweeper goroutines and must be cheap and thread-safe.
func WithLatencyObserver(fn func(peer string, rtt time.Duration, timedOut bool)) Option {
	return func(ep *Endpoint) { ep.observer = fn }
}

// NewEndpoint creates the RPC stack for node on rt over tr. The caller
// must route the node's inbound transport messages to
// (*Endpoint).TransportHandler.
func NewEndpoint(node string, rt *core.Runtime, tr transport.Transport, opts ...Option) *Endpoint {
	ep := &Endpoint{
		node:        node,
		rt:          rt,
		tr:          tr,
		pending:     make(map[uint64]pendingCall),
		callTimeout: 5 * time.Second,
		sweepStop:   make(chan struct{}),
		Calls:       metrics.NewCounter("rpc.calls"),
		Timeouts:    metrics.NewCounter("rpc.timeouts"),
	}
	ep.handlers.Store(&map[uint32]handler{})
	for _, o := range opts {
		o(ep)
	}
	go ep.sweep()
	return ep
}

// Node returns the endpoint's node name.
func (ep *Endpoint) Node() string { return ep.node }

// Runtime returns the endpoint's runtime.
func (ep *Endpoint) Runtime() *core.Runtime { return ep.rt }

// Handle registers h for requests whose message tag is tag.
func (ep *Endpoint) Handle(tag uint32, h HandlerFunc) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	next := maps.Clone(*ep.handlers.Load())
	next[tag] = handler{fn: h, name: fmt.Sprintf("rpc-%d", tag)}
	ep.handlers.Store(&next)
}

// Close fails all pending calls and stops the sweeper.
func (ep *Endpoint) Close() {
	ep.sweepOnce.Do(func() { close(ep.sweepStop) })
	ep.mu.Lock()
	ep.closed = true
	pend := ep.pending
	ep.pending = make(map[uint64]pendingCall)
	ep.mu.Unlock()
	for _, pc := range pend {
		ev := pc.ev
		ep.rt.Post(func() { ev.Fire(nil, ErrClosed) })
	}
}

// Call sends req to node to and returns the event that fires with the
// reply. Must be invoked under this endpoint's runtime baton (from one
// of its coroutines or a posted function) — like all event creation.
func (ep *Endpoint) Call(to string, req codec.Message) *core.ResultEvent {
	ev := core.NewResultEvent("rpc", to)
	ep.call(to, req, nil, ev)
	return ev
}

// CallWithEvent sends a pre-marshaled request and fires ev with the
// outcome; the outbox uses it to relay completions into events the
// logic already holds.
func (ep *Endpoint) CallWithEvent(to string, reqPayload []byte, ev *core.ResultEvent) {
	ep.call(to, nil, reqPayload, ev)
}

// envelopeHeader bounds what an envelope holds before its message: the
// call id, two flags and an empty error text.
const envelopeHeader = 16

// call sends one request envelope: the call id, the request flag, then
// the tagged request — req encoded in place, or payload, its encoding
// from codec.Marshal, copied in. Each envelope is a buffer of its own
// that the receiver then owns.
func (ep *Endpoint) call(to string, req codec.Message, payload []byte, ev *core.ResultEvent) {
	ep.Calls.Inc()
	id, err := ep.register(to, ev)
	if err != nil {
		ev.Fire(nil, err)
		return
	}

	size := len(payload)
	if req != nil {
		size = codec.SizeHint(req)
	}
	e := codec.NewEncoder(envelopeHeader + size)
	e.Uint64(id)
	e.Bool(false) // request
	if req != nil {
		codec.AppendMessage(e, req)
	} else {
		e.Raw(payload)
	}
	if err := ep.tr.Send(ep.node, to, e.Bytes()); err != nil {
		ep.mu.Lock()
		delete(ep.pending, id)
		ep.mu.Unlock()
		ev.Fire(nil, err)
	}
}

// register books the pending call under the lock, fast-failing when
// the endpoint is closed or the peer is out of the configuration (so
// a removed peer costs an error, not a full call timeout).
func (ep *Endpoint) register(to string, ev *core.ResultEvent) (uint64, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return 0, ErrClosed
	}
	if ep.unreachable[to] {
		return 0, ErrUnreachable
	}
	ep.nextID++
	id := ep.nextID
	now := time.Now()
	ep.pending[id] = pendingCall{ev: ev, to: to, sentAt: now, deadline: now.Add(ep.callTimeout)}
	return id, nil
}

// SetUnreachable marks (or clears) peer as removed from the
// configuration: subsequent calls to it fast-fail with ErrUnreachable
// rather than waiting out the call timeout.
func (ep *Endpoint) SetUnreachable(peer string, down bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if down {
		if ep.unreachable == nil {
			ep.unreachable = make(map[string]bool)
		}
		ep.unreachable[peer] = true
		return
	}
	delete(ep.unreachable, peer)
}

// TransportHandler returns the inbound message handler to register
// with the transport for this node. The frame it is handed is this
// endpoint's, read-only: the envelope, the request and the reply are
// all decoded from it in place.
func (ep *Endpoint) TransportHandler() transport.Handler {
	return func(from string, payload []byte) {
		d := codec.NewDecoder(payload)
		id := d.Uint64()
		isResp := d.Bool()
		body := d.Rest()
		if d.Err() != nil {
			return // corrupt frame
		}
		if isResp {
			ep.onResponse(id, body)
			return
		}
		ep.onRequest(from, id, body)
	}
}

// onResponse completes the pending call, on the runtime baton.
func (ep *Endpoint) onResponse(id uint64, body []byte) {
	ep.mu.Lock()
	pc, ok := ep.pending[id]
	if ok {
		delete(ep.pending, id)
	}
	ep.mu.Unlock()
	if !ok {
		return // expired or duplicate
	}
	if ep.observer != nil {
		ep.observer(pc.to, time.Since(pc.sentAt), false)
	}
	msg, err := decodeReply(body)
	ev := pc.ev
	ep.rt.Post(func() { ev.Fire(msg, err) })
}

// decodeReply splits the (ok, errmsg, tagged reply) reply body.
func decodeReply(body []byte) (codec.Message, error) {
	d := codec.NewDecoder(body)
	ok := d.Bool()
	errMsg := d.String()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrRemote, errMsg)
	}
	return codec.Unmarshal(d.Rest())
}

// onRequest decodes, dispatches to the handler on a new coroutine, and
// sends the reply.
func (ep *Endpoint) onRequest(from string, id uint64, body []byte) {
	msg, err := codec.Unmarshal(body)
	if err != nil {
		ep.reply(from, id, nil, err)
		return
	}
	h := (*ep.handlers.Load())[msg.TypeTag()]
	if h.fn == nil {
		ep.reply(from, id, nil, fmt.Errorf("no handler for tag %d", msg.TypeTag()))
		return
	}
	ep.rt.Spawn(h.name, func(co *core.Coroutine) {
		resp := h.fn(co, from, msg)
		if resp == nil {
			ep.reply(from, id, nil, errors.New("handler returned no reply"))
			return
		}
		ep.reply(from, id, resp, nil)
	})
}

// reply sends a response envelope back to the caller, encoded in one
// pass: the call id, the response flag, ok, the error text, then the
// tagged reply when there is one.
func (ep *Endpoint) reply(to string, id uint64, msg codec.Message, herr error) {
	errText, size := "", 0
	if herr != nil {
		errText = herr.Error()
	} else {
		size = codec.SizeHint(msg)
	}
	e := codec.NewEncoder(envelopeHeader + len(errText) + size)
	e.Uint64(id)
	e.Bool(true) // response
	e.Bool(herr == nil)
	e.String(errText)
	if herr == nil {
		codec.AppendMessage(e, msg)
	}
	_ = ep.tr.Send(ep.node, to, e.Bytes()) // reply loss is a timeout at the caller
}

// sweep periodically fails pending calls past their deadline.
func (ep *Endpoint) sweep() {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ep.sweepStop:
			return
		case now := <-tick.C:
			var expired []pendingCall
			ep.mu.Lock()
			for id, pc := range ep.pending {
				if now.After(pc.deadline) {
					delete(ep.pending, id)
					expired = append(expired, pc)
				}
			}
			ep.mu.Unlock()
			for _, pc := range expired {
				ep.Timeouts.Inc()
				if ep.observer != nil {
					ep.observer(pc.to, time.Since(pc.sentAt), true)
				}
				ev := pc.ev
				ep.rt.Post(func() { ev.Fire(nil, ErrTimeout) })
			}
		}
	}
}

// Pending returns the number of outstanding calls; for tests and
// backlog instrumentation.
func (ep *Endpoint) Pending() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.pending)
}

// Proxy is a convenience handle for calling one peer, mirroring the
// paper's rpc_proxy objects.
type Proxy struct {
	ep *Endpoint
	to string
}

// Proxy returns a proxy for peer to.
func (ep *Endpoint) Proxy(to string) *Proxy { return &Proxy{ep: ep, to: to} }

// Call issues the RPC and returns its event.
func (p *Proxy) Call(req codec.Message) *core.ResultEvent { return p.ep.Call(p.to, req) }

// Peer returns the proxy's target node.
func (p *Proxy) Peer() string { return p.to }
