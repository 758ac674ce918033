package main

import (
	"bytes"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"depfast/internal/core"
	"depfast/internal/kv"
	"depfast/internal/raft"
	"depfast/internal/xtrace"
	"depfast/internal/ycsb"
)

// sample is one finished client operation, in nanoseconds relative to
// the start of the measured window. start is when a closed-loop client
// issued it, or when an open-loop request was due: an open loop charges
// a stall to the requests that were due during it.
type sample struct {
	start, lat int64
	failed     bool
	read       bool // a Get: served off the lease, no log entry
}

func (s sample) end() int64 { return s.start + s.lat }

// recording is what one lane's clients write under the lane's baton.
type recording struct {
	samples []sample
	late    []int64 // open loop: issue time minus due time, ns
	backlog int     // open loop: most requests ever waiting for a client
	spans   []opSpan
}

// opSpan is the benchmark's own span around one call into
// raft.Client.Do; the traced window keeps them for -trace-out.
type opSpan struct {
	Trace uint64 `json:"trace"`
	Lane  string `json:"lane"`
	Op    string `json:"op"`
	Start int64  `json:"start_ns"` // relative to the window start
	Dur   int64  `json:"dur_ns"`
	Err   bool   `json:"err,omitempty"`
}

// load is a running client population.
type load struct {
	c      *cluster
	wl     ycsb.Workload
	epoch  time.Time // start of the measured window
	stop   atomic.Bool
	wg     sync.WaitGroup
	expect []byte
	wrong  atomic.Int64 // reads that returned the wrong value
	// exec sends one command; the smoke test substitutes a fake to
	// drive the open-loop accounting without a cluster.
	exec func(co *core.Coroutine, cl *raft.Client, cmd kv.Command, tc xtrace.Context) (kv.Result, error)
}

func newLoad(c *cluster, wl ycsb.Workload, epoch time.Time) *load {
	return &load{c: c, wl: wl, epoch: epoch, expect: recordValue(),
		exec: func(co *core.Coroutine, cl *raft.Client, cmd kv.Command, tc xtrace.Context) (kv.Result, error) {
			return cl.DoTraced(co, cmd, tc)
		}}
}

func command(op ycsb.Op) kv.Command {
	if op.Type == ycsb.Read {
		return kv.Command{Op: kv.OpGet, Key: op.Key}
	}
	return kv.Command{Op: kv.OpPut, Key: op.Key, Value: op.Value}
}

// do runs one operation on cl and records it on lane l. start is the
// instant latency counts from.
func (ld *load) do(co *core.Coroutine, l *lane, cl *raft.Client, op ycsb.Op, start time.Time) error {
	var tc xtrace.Context
	issued := time.Now()
	if t := ld.c.taps; t != nil {
		tc = t.xtr.StartRequest("bench."+op.Type.String(), l.rt.Name())
	}
	res, err := ld.exec(co, cl, command(op), tc)
	now := time.Now()
	if err == raft.ErrClientStopped {
		return err
	}
	if err == nil && op.Type == ycsb.Read && !(res.Found && bytes.Equal(res.Value, ld.expect)) {
		ld.wrong.Add(1)
		err = errWrongRead
	}
	l.samples = append(l.samples, sample{
		start: int64(start.Sub(ld.epoch)), lat: int64(now.Sub(start)), failed: err != nil, read: op.Type == ycsb.Read})
	if t := ld.c.taps; t != nil {
		t.xtr.Finish(tc, now)
		l.spans = append(l.spans, opSpan{Trace: tc.TraceID, Lane: l.rt.Name(), Op: op.Type.String(),
			Start: int64(issued.Sub(ld.epoch)), Dur: int64(now.Sub(issued)), Err: err != nil})
	}
	return nil
}

// closedLoop starts clients logical clients, each sending its next
// request only when the previous one has completed.
func (ld *load) closedLoop(clients int, seed int64) {
	for ci := 0; ci < clients; ci++ {
		l := ld.c.lanes[ci%len(ld.c.lanes)]
		cl := ld.c.newClient(l)
		gen := ycsb.NewGenerator(ld.wl, clientSeed(seed, ci))
		ld.wg.Add(1)
		l.rt.Spawn("closed-client", func(co *core.Coroutine) {
			defer ld.wg.Done()
			for !ld.stop.Load() {
				if ld.do(co, l, cl, gen.Next(), time.Now()) != nil {
					return
				}
			}
		})
	}
}

// clientSeed derives logical client ci's generator seed.
func clientSeed(seed int64, ci int) int64 { return seed*1_000_003 + int64(ci)*7919 }

// arrival is one scheduled open-loop request.
type arrival struct {
	due time.Duration // offset from the schedule's start
	op  ycsb.Op
}

// schedule is a seeded Poisson arrival process of exactly
// rate×span requests over span: given their number, Poisson arrival
// times are sorted uniform draws. The same seed gives the same
// schedule, keys included.
func schedule(wl ycsb.Workload, rate float64, span time.Duration, seed int64) []arrival {
	n := int(rate * span.Seconds())
	rng := rand.New(rand.NewSource(seed))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	gen := ycsb.NewGenerator(wl, seed+1)
	out := make([]arrival, n)
	for i, d := range dues {
		out[i] = arrival{due: d, op: gen.Next()}
	}
	return out
}

// openWorkers is the logical client population of one open-loop lane.
// A raft client has one request outstanding at a time, so this bounds
// the lane's concurrency; at 250 req/s × ~11ms about three are busy,
// and a half-second stall still finds a free client for every arrival.
const openWorkers = 128

// dispatcher hands due requests to idle logical clients of one lane.
// All of its state is touched only under the lane's baton.
type dispatcher struct {
	idle    []*openClient
	waiting []pendingReq
	closed  bool // the schedule has ended: idle clients exit
}

type pendingReq struct {
	op  ycsb.Op
	due time.Time
}

type openClient struct {
	cl   *raft.Client
	next *pendingReq
	wake *core.SignalEvent
}

// openLoop starts one lane's share of an open-loop schedule: requests
// are issued when due whether or not earlier ones have completed.
// begin is the schedule's zero.
func (ld *load) openLoop(l *lane, sched []arrival, begin time.Time) {
	d := &dispatcher{}
	for i := 0; i < openWorkers; i++ {
		oc := &openClient{cl: ld.c.newClient(l), wake: core.NewSignalEvent()}
		d.idle = append(d.idle, oc)
		ld.wg.Add(1)
		l.rt.Spawn("open-client", func(co *core.Coroutine) {
			defer ld.wg.Done()
			ld.serve(co, l, d, oc)
		})
	}
	ld.wg.Add(1)
	l.rt.Spawn("open-dispatch", func(co *core.Coroutine) {
		defer ld.wg.Done()
		defer d.close()
		for _, a := range sched {
			due := begin.Add(a.due)
			if wait := time.Until(due); wait > 0 {
				if co.Sleep(wait) != nil {
					return
				}
			}
			if ld.stop.Load() {
				return
			}
			d.submit(l, pendingReq{op: a.op, due: due})
		}
	})
}

// submit gives req to an idle client, or queues it.
func (d *dispatcher) submit(l *lane, req pendingReq) {
	if n := len(d.idle); n > 0 {
		oc := d.idle[n-1]
		d.idle = d.idle[:n-1]
		oc.next = &req
		oc.wake.Set()
		return
	}
	d.waiting = append(d.waiting, req)
	if len(d.waiting) > l.backlog {
		l.backlog = len(d.waiting)
	}
}

// close releases the idle clients; busy ones leave once they have
// drained the queue.
func (d *dispatcher) close() {
	d.closed = true
	for _, oc := range d.idle {
		oc.wake.Set()
	}
	d.idle = nil
}

// idleWait bounds one park of an idle open-loop client; the wait is
// re-armed until the dispatcher hands it work or closes.
const idleWait = 5 * time.Second

// serve is one open-loop logical client: it parks until the dispatcher
// hands it a request, runs it, then takes queued requests before
// going idle again.
func (ld *load) serve(co *core.Coroutine, l *lane, d *dispatcher, oc *openClient) {
	for {
		for !oc.wake.Ready() {
			if co.WaitFor(oc.wake, idleWait) == core.WaitStopped {
				return
			}
		}
		if oc.next == nil {
			return // woken by close
		}
		req := *oc.next
		oc.next = nil
		for {
			l.late = append(l.late, int64(time.Since(req.due)))
			if ld.do(co, l, oc.cl, req.op, req.due) != nil {
				return
			}
			if len(d.waiting) == 0 {
				break
			}
			req = d.waiting[0]
			d.waiting = d.waiting[1:]
		}
		if d.closed {
			return
		}
		oc.wake = core.NewSignalEvent()
		d.idle = append(d.idle, oc)
	}
}

// finish stops the population and waits for in-flight requests, which
// complete within the client timeout.
func (ld *load) finish() {
	ld.stop.Store(true)
	ld.wg.Wait()
}
