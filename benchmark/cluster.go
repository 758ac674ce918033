package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"depfast/internal/clock"
	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/harness"
	"depfast/internal/metrics"
	"depfast/internal/obs"
	"depfast/internal/raft"
	"depfast/internal/rpc"
	"depfast/internal/transport"
	"depfast/internal/xtrace"
	"depfast/internal/ycsb"
)

// The system under test is the same for every workload: a 3-node
// DepFastRaft group in this process on the in-memory network, with the
// default injected delays (env.DefaultConfig: fsync 2ms, disk read
// 0.5ms, NIC 1ms per side, so 2ms per hop) and ReadIndex + LeaderLease
// on; every other raft.Config field keeps its default.
const (
	nodes      = 3
	records    = 2000
	valueSize  = 256
	clientWait = 3 * time.Second // raft client and endpoint timeout
	loaders    = 32              // closed-loop coroutines that preload the records
)

// taps are the public telemetry hooks the traced window attaches. The
// untraced window leaves every field nil, so the servers emit nothing.
type taps struct {
	rec *obs.Recorder
	xtr *xtrace.Collector
	reg *metrics.Registry
}

func newTaps() *taps {
	return &taps{
		// A put_sat window emits ~2k commit spans a second; the limit
		// keeps every span of the longest traced window.
		rec: obs.NewRecorder(1 << 18),
		xtr: xtrace.NewCollector(xtrace.Config{}),
		reg: metrics.NewRegistry(0, 0),
	}
}

// lane is one client runtime: a scheduler thread, its RPC endpoint,
// and the samples its logical clients record under the baton.
type lane struct {
	rt *core.Runtime
	ep *rpc.Endpoint
	recording
}

// cluster is the running system plus the client lanes that load it.
type cluster struct {
	names   []string
	net     *transport.Network
	servers map[string]*raft.Server
	taps    *taps
	lanes   []*lane
	// leader is the leader at the end of set-up. The fault target, the
	// stage budget, the gauges and the clients' first try all follow it,
	// so a run in which it moves is reported as a violation.
	leader string
	nextID uint64 // raft client ids handed out so far
}

// clientLanes is how many client runtimes generate load: each has one
// runnable baton, and there are never more of them than processors.
func clientLanes() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// newCluster brings the system under test and the client lanes up,
// built from the exported pieces the way harness.buildCluster does, and
// waits for an agreed leader. t may be nil.
func newCluster(t *taps) (*cluster, error) {
	ecfg := env.DefaultConfig()
	c := &cluster{
		net:     transport.NewNetwork(),
		servers: make(map[string]*raft.Server),
		taps:    t,
	}
	for i := 1; i <= nodes; i++ {
		c.names = append(c.names, fmt.Sprintf("s%d", i))
	}
	for _, name := range c.names {
		rcfg := raft.DefaultConfig(name, c.names)
		rcfg.ReadIndex = true
		rcfg.LeaderLease = true
		if t != nil {
			rcfg.Recorder, rcfg.Tracer, rcfg.Metrics = t.rec, t.xtr, t.reg
		}
		e := env.New(name, ecfg)
		s := raft.NewServer(rcfg, e, c.net)
		c.net.Register(name, e, s.TransportHandler())
		c.servers[name] = s
	}
	for _, s := range c.servers {
		s.Start()
	}
	for i := 0; i < clientLanes(); i++ {
		name := fmt.Sprintf("client-%d", i)
		rt := core.NewRuntime(name)
		ep := rpc.NewEndpoint(name, rt, c.net, rpc.WithCallTimeout(clientWait))
		c.net.Register(name, env.New(name, ecfg), ep.TransportHandler())
		c.lanes = append(c.lanes, &lane{rt: rt, ep: ep})
	}
	ok := clock.WaitUntil(15*time.Second, 5*time.Millisecond, func() bool {
		var elected bool
		c.leader, elected = raft.AgreedLeader(c.servers)
		return elected
	})
	if !ok {
		c.stop()
		return nil, fmt.Errorf("no agreed leader within 15s")
	}
	return c, nil
}

// stop tears the whole deployment down and waits for every runtime.
func (c *cluster) stop() {
	for _, l := range c.lanes {
		l.ep.Close()
		l.rt.Stop()
	}
	for _, s := range c.servers {
		s.Stop()
	}
	c.net.Close()
}

// newClient returns a raft client on lane l with a fresh session id,
// trying the known leader first.
func (c *cluster) newClient(l *lane) *raft.Client {
	c.nextID++
	order := []string{c.leader}
	for _, n := range c.names {
		if n != c.leader {
			order = append(order, n)
		}
	}
	cl := raft.NewClient(1000+c.nextID, l.ep, order, clientWait)
	if c.taps != nil {
		cl.SetTracer(c.taps.xtr)
	}
	return cl
}

// elections is how many elections the servers have started so far.
func (c *cluster) elections() int64 {
	var n int64
	for _, s := range c.servers {
		n += s.Elections.Value()
	}
	return n
}

// follower returns the first non-leader, the fault target.
func (c *cluster) follower() string {
	for _, n := range c.names {
		if n != c.leader {
			return n
		}
	}
	return ""
}

// recordValue is the value every record holds: the pattern ycsb
// generators write, so any read of a preloaded key has one right answer.
func recordValue() []byte {
	v := make([]byte, valueSize)
	for i := range v {
		v[i] = byte('a' + i%26)
	}
	return v
}

// preload writes every record once through the replicated log, spread
// over closed-loop loader coroutines on the client lanes.
func (c *cluster) preload() error {
	value := recordValue()
	errs := make([]error, loaders)
	var wg sync.WaitGroup
	for w := 0; w < loaders; w++ {
		l := c.lanes[w%len(c.lanes)]
		cl := c.newClient(l)
		wg.Add(1)
		l.rt.Spawn("preload", func(co *core.Coroutine) {
			defer wg.Done()
			for i := w; i < records && errs[w] == nil; i += loaders {
				errs[w] = cl.Put(co, ycsb.Key(uint64(i)), value)
			}
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// setUp is what setup_s times: servers and lanes up, leader agreed,
// every record preloaded and applied on all three replicas. The last
// step matters: the preload burst overflows the leader's outbox window,
// quorum-discard drops the slower follower's backlog, and a workload
// must not start with one follower already out of the quorum.
func setUp(t *taps) (*cluster, time.Duration, error) {
	start := time.Now()
	c, err := newCluster(t)
	if err != nil {
		return nil, 0, err
	}
	if err := c.preload(); err != nil {
		c.stop()
		return nil, 0, err
	}
	if conv := harness.WaitConvergence(c.servers, nodes, 15*time.Second); !conv.Converged {
		c.stop()
		return nil, 0, fmt.Errorf("replicas did not catch up after the preload: %s", conv.Reason)
	}
	// The preload may have moved the leader.
	var elected bool
	if c.leader, elected = raft.AgreedLeader(c.servers); !elected {
		c.stop()
		return nil, 0, fmt.Errorf("no agreed leader after the preload")
	}
	return c, time.Since(start), nil
}
