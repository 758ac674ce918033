package main

import (
	"math"
	"runtime"
	"time"

	"depfast/internal/clock"
	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/kv"
	"depfast/internal/rpc"
	"depfast/internal/storage"
	"depfast/internal/transport"
	"depfast/internal/xtrace"
	"depfast/internal/ycsb"
)

// The ladder times calls into each layer's exported functions from
// outside, on a zero-cost environment unless a rung says otherwise:
// with no injected delay a rung is the layer's own CPU cost. Rungs
// named *_allocs count heap allocations per operation. It holds the
// layers a request crosses on the one workload whose throughput is
// processor time (read_mostly, see README.md), and the delay floor that
// sets latency on the others.

// zeroEnv costs nothing: no compute charge, no fsync or NIC delay. The
// disk bandwidth is infinite, not zero, so byte costs divide to 0.
func zeroEnv() env.Config { return env.Config{DiskBytesPerSec: math.Inf(1)} }

// ladder collects rung values.
type ladder struct {
	budget time.Duration // how long each rung iterates
	values map[string]metricValue
}

func (l *ladder) set(name, unit string, v float64) {
	l.values[name] = metricValue{Value: v, Unit: unit}
}

// loop calls body with a growing iteration count until one call lasts
// the budget, and returns that call's nanoseconds and allocations per
// iteration. Allocations are the whole process's, helpers included.
func (l *ladder) loop(body func(n int)) (nsPerOp, allocs float64) {
	n := 1
	for {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		body(n)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if took >= l.budget || n >= 1<<30 {
			return float64(took.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
		}
		next := n * 100
		if took > 0 {
			if fit := int(1.2 * float64(n) * float64(l.budget) / float64(took)); fit < next {
				next = fit
			}
		}
		if next <= n {
			next = n + 1
		}
		n = next
	}
}

func (l *ladder) ns(name string, body func(n int)) {
	per, _ := l.loop(body)
	l.set(name, "ns", per)
}

// onRuntime runs fn as a coroutine of rt and waits for it to return.
func onRuntime(rt *core.Runtime, fn func(co *core.Coroutine)) {
	done := make(chan struct{})
	rt.Spawn("ladder", func(co *core.Coroutine) {
		defer close(done)
		fn(co)
	})
	<-done
}

// rungWait bounds every wait a rung makes.
const rungWait = 2 * time.Second

// sampleRequest is the client request every message rung carries: a
// put of one 256-byte record.
func sampleRequest() *kv.ClientRequest {
	return &kv.ClientRequest{ClientID: 7, Seq: 42,
		Cmd: kv.Command{Op: kv.OpPut, Key: ycsb.Key(17), Value: recordValue()}}
}

// runLadder measures every rung, each for about budget.
func runLadder(budget time.Duration) map[string]metricValue {
	l := &ladder{budget: budget, values: make(map[string]metricValue)}
	l.codec()
	l.core()
	l.rpc()
	l.transport()
	l.kv()
	l.xtrace()
	l.floor()
	return l.values
}

func (l *ladder) codec() {
	req := sampleRequest()
	payload := codec.Marshal(req)
	per, allocs := l.loop(func(n int) {
		for i := 0; i < n; i++ {
			payload = codec.Marshal(req)
		}
	})
	l.set("codec.marshal_ns", "ns", per)
	l.set("codec.marshal_allocs", "allocs/op", allocs)
	l.ns("codec.unmarshal_ns", func(n int) {
		for i := 0; i < n; i++ {
			if _, err := codec.Unmarshal(payload); err != nil {
				panic(err)
			}
		}
	})
}

func (l *ladder) core() {
	rt := core.NewRuntime("ladder")
	defer rt.Stop()

	l.ns("core.post_ns", func(n int) {
		done := make(chan struct{})
		count := 0
		for i := 0; i < n; i++ {
			rt.Post(func() { count++ })
		}
		rt.Post(func() { close(done) })
		<-done
	})
	// Spawned and run to completion a batch at a time, so the cost does
	// not grow with how many goroutines the iteration count queues up.
	l.ns("core.spawn_ns", func(n int) {
		const batch = 256
		for left := n; left > 0; left -= batch {
			k := min(batch, left)
			done := make(chan struct{})
			for i := 0; i < batch && i < left; i++ {
				rt.Spawn("noop", func(*core.Coroutine) {
					if k--; k == 0 {
						close(done)
					}
				})
			}
			<-done
		}
	})
	// Two coroutines hand a signal back and forth; every hand-off is
	// one park, one wake and one baton switch.
	l.ns("core.wait_switch_ns", func(n int) {
		ping, pong := core.NewSignalEvent(), core.NewSignalEvent()
		done := make(chan struct{})
		rt.Spawn("pong", func(co *core.Coroutine) {
			defer close(done)
			for i := 0; i < n; i++ {
				co.WaitFor(ping, rungWait)
				ping = core.NewSignalEvent()
				pong.Set()
			}
		})
		onRuntime(rt, func(co *core.Coroutine) {
			for i := 0; i < n; i++ {
				ping.Set()
				co.WaitFor(pong, rungWait)
				pong = core.NewSignalEvent()
			}
		})
		<-done
	})
}

// rpc times one call and its echoed reply between two endpoints, each
// on its own runtime, over a zero-cost memory network.
func (l *ladder) rpc() {
	net := transport.NewNetwork()
	defer net.Close()
	var caller *rpc.Endpoint
	var callerRT *core.Runtime
	for _, name := range []string{"a", "b"} {
		rt := core.NewRuntime(name)
		defer rt.Stop()
		ep := rpc.NewEndpoint(name, rt, net, rpc.WithCallTimeout(rungWait))
		defer ep.Close()
		ep.Handle(kv.TagClientRequest, func(*core.Coroutine, string, codec.Message) codec.Message {
			return &kv.ClientResponse{OK: true}
		})
		net.Register(name, env.New(name, zeroEnv()), ep.TransportHandler())
		if caller == nil {
			caller, callerRT = ep, rt
		}
	}
	req := sampleRequest()
	per, allocs := l.loop(func(n int) {
		onRuntime(callerRT, func(co *core.Coroutine) {
			for i := 0; i < n; i++ {
				co.WaitFor(caller.Call("b", req), rungWait)
			}
		})
	})
	l.set("rpc.call_rtt_us", "us", per/1e3)
	l.set("rpc.call_allocs", "allocs/op", allocs)
}

func (l *ladder) transport() {
	payload := codec.Marshal(sampleRequest())
	net := transport.NewNetwork()
	defer net.Close()
	net.Register("a", env.New("a", zeroEnv()), func(string, []byte) {})
	net.Register("b", env.New("b", zeroEnv()), func(string, []byte) {})
	l.ns("transport.mem_send_ns", func(n int) {
		for i := 0; i < n; i++ {
			if err := net.Send("a", "b", payload); err != nil {
				panic(err)
			}
		}
	})
}

func (l *ladder) kv() {
	store := kv.NewStore()
	keys := make([]string, records)
	for i := range keys {
		keys[i] = ycsb.Key(uint64(i))
		store.Apply(kv.Command{Op: kv.OpPut, Key: keys[i], Value: recordValue()})
	}
	l.ns("kv.apply_get_ns", func(n int) {
		for i := 0; i < n; i++ {
			if !store.Apply(kv.Command{Op: kv.OpGet, Key: keys[i%records]}).Found {
				panic("record missing")
			}
		}
	})
}

// xtrace times the one telemetry sink a traced read crosses: a request
// opened, one span recorded under it, the request closed.
func (l *ladder) xtrace() {
	xtr := xtrace.NewCollector(xtrace.Config{})
	l.ns("xtrace.request_ns", func(n int) {
		for i := 0; i < n; i++ {
			now := time.Now()
			tc := xtr.StartRequest("rung", "client-0")
			xtr.Record(tc, xtrace.Span{Parent: tc.Span, Name: "rpc", Node: "s1", Res: xtrace.Net, Start: now, End: now})
			xtr.Finish(tc, now)
		}
	})
}

// floorSamples is how many times each delay-floor rung is observed;
// each observation is milliseconds long, so the count stays small.
const floorSamples = 41

// floor observes the injected delays as they really elapse with the
// default environment: the nominal 2ms fsync and 2ms hop (1ms NIC on
// each side) plus whatever the host's sleep floor adds to each.
func (l *ladder) floor() {
	obsv := make([]float64, floorSamples)
	for i := range obsv {
		obsv[i] = float64(clock.SleepFloor().Nanoseconds()) / 1e3
	}
	l.set("clock.sleep_floor_us", "us", median(obsv))

	rt := core.NewRuntime("ladder")
	defer rt.Stop()
	disk := storage.NewDisk(rt, env.New("ladder", env.DefaultConfig()), 4)
	defer disk.Close()
	wal := storage.NewWAL(disk)
	onRuntime(rt, func(co *core.Coroutine) {
		for i := range obsv {
			start := time.Now()
			fsync, err := wal.Append([]storage.Entry{{Index: uint64(i + 1), Term: 1, Data: recordValue()}})
			if err != nil {
				panic(err)
			}
			co.WaitFor(fsync, rungWait)
			obsv[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		}
	})
	l.set("storage.wal_fsync_us", "us", median(obsv))

	net := transport.NewNetwork()
	defer net.Close()
	arrived := make(chan time.Time, 1)
	net.Register("a", env.New("a", env.DefaultConfig()), func(string, []byte) {})
	net.Register("b", env.New("b", env.DefaultConfig()), func(string, []byte) { arrived <- time.Now() })
	got := obsv[:0]
	for range obsv {
		start := time.Now()
		if net.Send("a", "b", []byte{1}) != nil {
			break
		}
		select {
		case at := <-arrived:
			got = append(got, float64(at.Sub(start).Nanoseconds())/1e3)
		case <-time.After(rungWait):
		}
	}
	l.set("transport.mem_oneway_us", "us", median(got))
}
