package rpc

import (
	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/metrics"
)

// Outbox is the per-peer send queue between the logic layer and the
// wire. It enforces windowed flow control (at most Window requests in
// flight, like a connection), and optionally bounds the queue.
//
// The outbox is where the paper's framework-level fail-slow
// optimization lives: because a broadcast declares that it only needs
// a quorum of replies, the framework may discard messages still queued
// for a slow peer once the quorum is met (CancelBelow), instead of
// letting the backlog grow without bound — the RethinkDB root cause.
//
// All methods must run under the owning endpoint's runtime baton.
type Outbox struct {
	ep   *Endpoint
	peer string

	// Window is the number of in-flight (sent, unanswered) requests.
	window int
	// capacity bounds the queued-but-unsent backlog; 0 = unbounded.
	capacity int
	// e, when set, tracks queued bytes as resident memory so the
	// memory-pressure fault model sees outbox backlog.
	e *env.Env

	queue    core.Deque[*queuedSend]
	inflight int
	qBytes   int64
	pumping  bool // flattens re-entrant pump calls from sync failures

	Discards  *metrics.Counter
	Overflows *metrics.Counter
	Depth     *metrics.Gauge
}

// queuedSend is one message waiting for a window slot.
type queuedSend struct {
	payload   []byte
	ev        *core.ResultEvent
	class     int64 // ordering key for CancelBelow (e.g. log index)
	cancelled bool
}

// OutboxConfig tunes an outbox.
type OutboxConfig struct {
	// Window is the in-flight request limit (default 8).
	Window int
	// Capacity bounds queued messages; 0 means unbounded. A full
	// bounded outbox fails new sends with ErrBacklogOverflow.
	Capacity int
	// Env, if non-nil, has queued bytes tracked as resident memory.
	Env *env.Env
}

// NewOutbox returns an outbox from ep to peer.
func NewOutbox(ep *Endpoint, peer string, cfg OutboxConfig) *Outbox {
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	return &Outbox{
		ep:        ep,
		peer:      peer,
		window:    cfg.Window,
		capacity:  cfg.Capacity,
		e:         cfg.Env,
		Discards:  metrics.NewCounter("outbox.discards"),
		Overflows: metrics.NewCounter("outbox.overflows"),
		Depth:     metrics.NewGauge("outbox.depth"),
	}
}

// Peer returns the outbox's destination node.
func (ob *Outbox) Peer() string { return ob.peer }

// Send queues req for the peer; ev fires with the reply (or with
// ErrBacklogOverflow / ErrDiscarded if the message never reaches the
// wire). class orders the message for CancelBelow.
func (ob *Outbox) Send(req codec.Message, ev *core.ResultEvent, class int64) {
	ob.SendPayload(codec.Marshal(req), ev, class)
}

// SendPayload is Send for a message already encoded with codec.Marshal:
// a broadcast encodes once and hands the same slice to every target's
// outbox. The outbox only reads payload.
func (ob *Outbox) SendPayload(payload []byte, ev *core.ResultEvent, class int64) {
	if ob.capacity > 0 && ob.queue.Len() >= ob.capacity {
		ob.Overflows.Inc()
		ev.Fire(nil, ErrBacklogOverflow)
		return
	}
	ob.queue.PushBack(&queuedSend{payload: payload, ev: ev, class: class})
	ob.track(int64(len(payload)))
	ob.pump()
}

// CancelBelow discards every queued (unsent) message with class <=
// maxClass, firing its event with ErrDiscarded, and returns the number
// discarded. In-flight messages are not affected.
func (ob *Outbox) CancelBelow(maxClass int64) int {
	n := 0
	for _, q := range ob.queue.Items() {
		if !q.cancelled && q.class <= maxClass {
			q.cancelled = true
			n++
		}
	}
	if n > 0 {
		ob.Discards.Add(int64(n))
		ob.compact()
	}
	return n
}

// CancelAll discards everything queued.
func (ob *Outbox) CancelAll() int {
	n := 0
	for _, q := range ob.queue.Items() {
		if !q.cancelled {
			q.cancelled = true
			n++
		}
	}
	if n > 0 {
		ob.Discards.Add(int64(n))
		ob.compact()
	}
	return n
}

// compact removes cancelled entries, then fires their events (a fired
// event may run logic that sends again).
func (ob *Outbox) compact() {
	var dropped []*queuedSend
	ob.queue.Filter(func(q *queuedSend) bool {
		if q.cancelled {
			dropped = append(dropped, q)
		}
		return !q.cancelled
	})
	for _, q := range dropped {
		ob.track(-int64(len(q.payload)))
		q.ev.Fire(nil, ErrDiscarded)
	}
}

// pump fills the window from the queue.
func (ob *Outbox) pump() {
	if ob.pumping {
		return
	}
	ob.pumping = true
	defer func() { ob.pumping = false }()
	for ob.inflight < ob.window && ob.queue.Len() > 0 {
		q, _ := ob.queue.PopFront()
		ob.track(-int64(len(q.payload)))
		if q.cancelled {
			q.ev.Fire(nil, ErrDiscarded)
			continue
		}
		ob.inflight++
		wireEv := core.NewResultEvent("rpc", ob.peer)
		userEv := q.ev
		core.OnEvent(wireEv, func() {
			ob.inflight--
			userEv.Fire(wireEv.Value(), wireEv.Err())
			ob.pump()
		})
		ob.ep.CallWithEvent(ob.peer, q.payload, wireEv)
	}
	ob.Depth.Set(int64(ob.queue.Len()))
}

// track adjusts queued-bytes accounting (and resident memory when an
// Env is attached).
func (ob *Outbox) track(delta int64) {
	ob.qBytes += delta
	if ob.e != nil {
		if delta > 0 {
			ob.e.TrackAlloc(delta)
		} else {
			ob.e.TrackFree(-delta)
		}
	}
}

// QueueLen returns queued (unsent) messages; QueueBytes their bytes;
// Inflight the in-window count.
func (ob *Outbox) QueueLen() int     { return ob.queue.Len() }
func (ob *Outbox) QueueBytes() int64 { return ob.qBytes }
func (ob *Outbox) Inflight() int     { return ob.inflight }
