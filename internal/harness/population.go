package harness

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"depfast/internal/clock"
	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/hedge"
	"depfast/internal/kv"
	"depfast/internal/raft"
	"depfast/internal/rpc"
	"depfast/internal/shard"
	"depfast/internal/trace"
	"depfast/internal/xtrace"
	"depfast/internal/ycsb"
)

const (
	// clientTimeout bounds each client RPC attempt.
	clientTimeout = 3 * time.Second
	// clientsPerRuntime is how many closed-loop clients share one
	// client runtime (the paper-scale default: 48 clients on 4).
	clientsPerRuntime = 12
	// hedgeWriters is the hedging experiment's counter-writer count.
	hedgeWriters = 2
	valueSize    = 100

	// The hedging load's speculation bound: hedges ≤ ratio × requests + burst.
	HedgeBudgetRatio = 0.3
	HedgeBudgetBurst = 32
)

// kvClient is the frontend a population member drives — satisfied by
// raft.Client and shard.Router, so one population covers every
// topology.
type kvClient interface {
	Do(co *core.Coroutine, cmd kv.Command) (kv.Result, error)
	SetHedger(h *hedge.Hedger)
	SetTracer(trc *xtrace.Collector)
}

// population is the one client population of a run. Its members are
// op-sources — YCSB clients, hedge readers and writers, register-key
// auditors, the unique-key writer — plugged into the same client
// wrapper, which times every measured operation into the timeline and
// appends every audited one to the history.
type population struct {
	sc Scenario
	d  *deployment
	tl *timeline

	rts    []*core.Runtime
	eps    []*rpc.Endpoint
	names  []string // client endpoint names (the Clients role)
	order  []string // leader-first server list for raft clients
	nextID uint64

	stopFlag atomic.Bool
	active   atomic.Int32 // members still inside their loop

	// hedger is shared by the hedge readers and writers; hedging toggles
	// its use per phase — same clients, same load, only the speculation
	// flag differs. auditReads gates reads into the history: the hedging
	// run's healthy phases would otherwise bury the checker in
	// sub-millisecond lease reads. Writes are always recorded — a read
	// may observe a value written in an unrecorded gap, and the checker
	// needs every put on the key or that read looks like a phantom.
	hedger     *hedge.Hedger
	hedging    atomic.Bool
	auditReads atomic.Bool

	mu      sync.Mutex
	history []HOp
	acked   []string
}

// startPopulation launches every op-source the load asks for plus the
// audit clients.
func startPopulation(sc Scenario, d *deployment, collector *trace.Collector) *population {
	p := &population{sc: sc, d: d, tl: &timeline{t0: time.Now(), groups: sc.Topology.Groups}, nextID: 1000}
	p.auditReads.Store(true)
	lead, _ := d.leader(0)
	p.order = append([]string{lead}, otherNames(d.names[:sc.Topology.Nodes], lead)...)
	var rtOpts []core.Option
	if collector != nil {
		rtOpts = append(rtOpts, core.WithTracer(collector))
	}
	runtimes := func(clients int) []int {
		out := make([]int, (clients+clientsPerRuntime-1)/clientsPerRuntime)
		for i := range out {
			name := fmt.Sprintf("client-%d", len(p.rts))
			rt := core.NewRuntime(name, rtOpts...)
			ep := rpc.NewEndpoint(name, rt, d.net, rpc.WithCallTimeout(clientTimeout))
			d.net.Register(name, env.New(name, env.DefaultConfig()), ep.TransportHandler())
			out[i] = len(p.rts)
			p.rts, p.eps, p.names = append(p.rts, rt), append(p.eps, ep), append(p.names, name)
		}
		return out
	}

	workload := ycsb.PaperWrite(sc.Load.Records, valueSize)
	if sc.Load.Workload != nil {
		workload = *sc.Load.Workload
	}
	for g := 0; g < sc.Topology.Groups && sc.Load.Clients > 0; g++ {
		rts := runtimes(sc.Load.Clients)
		for ci := 0; ci < sc.Load.Clients; ci++ {
			// A sharded client's generator draws only its group's key
			// range — the paper's per-partition workload — so backoff
			// against a slow group never leaks into its siblings.
			gen := ycsb.NewGenerator(workload, sc.Seed+int64(g*1000+ci))
			if sc.Topology.Groups > 1 {
				gen = ycsb.NewGeneratorInRange(workload, sc.Seed+int64(g*1000+ci), d.smap.Partitioner().Range(g))
			}
			p.spawn(rts[ci%len(rts)], &client{label: "ycsb", group: g, measured: true}, func(c *client) {
				for c.running() {
					c.do(opToCommand(gen.Next()), false)
				}
			})
		}
	}

	if n := sc.Load.HedgeReaders; n > 0 {
		p.hedger = hedge.New(hedge.Config{
			BudgetRatio: HedgeBudgetRatio, BudgetBurst: HedgeBudgetBurst,
			SpeculativeWrites: true, Node: "hedge-client", Recorder: sc.Recorder,
		})
		p.hedging.Store(true)
		rts := runtimes(n + hedgeWriters)
		for w := 0; w < hedgeWriters; w++ {
			// A single-writer-per-key counter: the closing audit's read of
			// the key must see its last acknowledged value.
			p.spawn(rts[w%len(rts)], &client{label: fmt.Sprintf("w%d", w), measured: true, hedged: true}, func(c *client) {
				for i := int64(1); c.running() && c.co.Sleep(3*time.Millisecond) == nil; i++ {
					c.do(kv.Command{Op: kv.OpPut, Key: hedgeWriterKey(w), Value: []byte(strconv.FormatInt(i, 10))}, true)
				}
			})
		}
		for r := 0; r < n; r++ {
			// Readers take the writers' counters round-robin, closed loop.
			p.spawn(rts[r%len(rts)], &client{label: fmt.Sprintf("r%d", r), measured: true, hedged: true}, func(c *client) {
				for k := r; c.running(); k++ {
					c.do(kv.Command{Op: kv.OpGet, Key: hedgeWriterKey(k % hedgeWriters)}, true)
				}
			})
		}
	}

	audit := runtimes(1)[0]
	for i := 0; i < sc.Load.Auditors; i++ {
		p.spawn(audit, &client{label: fmt.Sprintf("audit-%d", i)}, registerAuditor(i, sc.Seed, sc.Load.Keys))
	}
	p.spawn(audit, &client{label: "unique"}, func(c *client) {
		// Every acked key must survive to the end of the run.
		for i := 0; c.running(); i++ {
			key := fmt.Sprintf("u-%06d", i)
			if _, err := c.do(kv.Command{Op: kv.OpPut, Key: key, Value: []byte{byte(i), byte(i >> 8)}}, false); err == nil {
				p.mu.Lock()
				p.acked = append(p.acked, key)
				p.mu.Unlock()
			}
		}
	})
	return p
}

// spawn starts one population member on client runtime rt.
func (p *population) spawn(rt int, c *client, body func(*client)) {
	p.nextID++
	id, ep := p.nextID, p.eps[rt]
	p.active.Add(1)
	p.rts[rt].Spawn(c.label, func(co *core.Coroutine) {
		defer p.active.Add(-1)
		c.p, c.co = p, co
		if p.sc.Topology.Groups > 1 {
			c.kv = shard.NewRouter(p.d.smap, ep, clientTimeout)
		} else {
			c.kv = raft.NewClient(id, ep, p.order, clientTimeout)
		}
		c.kv.SetTracer(p.sc.XTracer)
		body(c)
	})
}

// client is one population member: a kv frontend plus what the
// population does with each of its operations.
type client struct {
	p  *population
	co *core.Coroutine
	kv kvClient

	label    string
	group    int  // timeline track of a measured client
	measured bool // operations count as load in the timeline
	hedged   bool // follows the population's hedging flag
	dead     bool // the runtime stopped under it
}

func (c *client) running() bool { return !c.dead && !c.p.stopFlag.Load() }

// do executes cmd, timing it into the timeline when the client is
// measured and recording it — errored "maybe" outcomes included — into
// the audit history when audit is set.
func (c *client) do(cmd kv.Command, audit bool) (kv.Result, error) {
	if c.hedged && c.p.hedging.Load() {
		c.kv.SetHedger(c.p.hedger)
	} else if c.hedged {
		c.kv.SetHedger(nil)
	}
	call := time.Now()
	res, err := c.kv.Do(c.co, cmd)
	ret := time.Now()
	if err == raft.ErrClientStopped {
		c.dead = true
	}
	read := cmd.Op == kv.OpGet || cmd.Op == kv.OpScan
	if c.measured && !(err != nil && c.p.stopFlag.Load()) {
		c.p.tl.record(c.group, read, ret, ret.Sub(call), err)
	}
	if audit && (!read || c.p.auditReads.Load()) {
		op := HOp{Client: c.label, Key: cmd.Key, Call: call, Return: ret, Maybe: err != nil}
		switch cmd.Op {
		case kv.OpPut:
			op.Kind, op.Value = HPut, cmd.Value
		case kv.OpGet:
			op.Kind, op.OutFound, op.OutValue = HGet, res.Found, res.Value
		case kv.OpCAS:
			op.Kind, op.Expect, op.Value, op.OutFound = HCAS, cmd.Expect, cmd.Value, res.Found
			if err == nil && !res.Found {
				op.OutValue = res.Value
			}
		}
		c.p.mu.Lock()
		c.p.history = append(c.p.history, op)
		c.p.mu.Unlock()
	}
	return res, err
}

// registerAuditor hammers the shared register keys with a put/get/CAS
// mix. CAS preconditions come from the client's last observation of the
// key, so concurrent auditors genuinely race.
func registerAuditor(ci int, seed int64, keys int) func(*client) {
	return func(c *client) {
		rng := rand.New(rand.NewSource(seed*31 + int64(ci)))
		lastSeen := make(map[string]string)
		for i := 0; c.running(); i++ {
			key := fmt.Sprintf("reg%d", rng.Intn(keys))
			val := fmt.Sprintf("c%d-%d", ci, i)
			switch r := rng.Float64(); {
			case r < 0.4:
				if _, err := c.do(kv.Command{Op: kv.OpPut, Key: key, Value: []byte(val)}, true); err == nil {
					lastSeen[key] = val
				}
			case r < 0.7:
				if res, err := c.do(kv.Command{Op: kv.OpGet, Key: key}, true); err == nil && res.Found {
					lastSeen[key] = string(res.Value)
				}
			default:
				res, err := c.do(kv.Command{Op: kv.OpCAS, Key: key, Expect: []byte(lastSeen[key]), Value: []byte(val)}, true)
				if err == nil && res.Found {
					lastSeen[key] = val
				} else if err == nil {
					lastSeen[key] = string(res.Value)
				}
			}
		}
	}
}

func hedgeWriterKey(i int) string { return fmt.Sprintf("hedge-w%d", i) }

// opToCommand converts a YCSB op to a KV command.
func opToCommand(op ycsb.Op) kv.Command {
	switch op.Type {
	case ycsb.Scan:
		return kv.Command{Op: kv.OpScan, Key: op.Key, ScanLen: op.ScanLen}
	case ycsb.Insert, ycsb.Update, ycsb.ReadModifyWrite:
		return kv.Command{Op: kv.OpPut, Key: op.Key, Value: op.Value}
	}
	return kv.Command{Op: kv.OpGet, Key: op.Key}
}

// stop winds the population down, waiting briefly for in-flight
// operations so their outcomes land in the history; stragglers are cut
// off when close stops the runtimes.
func (p *population) stop() {
	p.stopFlag.Store(true)
	clock.WaitUntil(10*time.Second, time.Millisecond, func() bool { return p.active.Load() == 0 })
}

// closingReads starts one plain Get per written key of the (stopped)
// population's history; stop waits for them. With the closing read in
// the history, an acknowledged write that did not survive makes the
// history non-linearizable.
func (p *population) closingReads() {
	p.mu.Lock()
	keys := map[string]bool{}
	for _, op := range p.history {
		if op.Kind != HGet {
			keys[op.Key] = true
		}
	}
	p.mu.Unlock()
	p.auditReads.Store(true)
	for key := range keys {
		p.spawn(len(p.rts)-1, &client{label: "closing"}, func(c *client) {
			c.do(kv.Command{Op: kv.OpGet, Key: key}, true)
		})
	}
}

// close tears down the client endpoints and runtimes.
func (p *population) close() {
	p.stopFlag.Store(true)
	for i := range p.rts {
		p.eps[i].Close()
		p.rts[i].Stop()
	}
}
