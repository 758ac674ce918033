package harness

import (
	"fmt"
	"slices"
	"time"

	"depfast/internal/baseline"
	"depfast/internal/clock"
	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/raft"
	"depfast/internal/shard"
	"depfast/internal/trace"
	"depfast/internal/transport"
)

// deployment is a running system under test: a list of groups (one
// for the single-group topology, shard.Cluster's for the sharded one),
// so everything downstream — role resolution, sentinel counters, the
// audit — iterates groups and never asks which topology it is on. A
// baseline RSM is one group without raft servers whose first node leads
// for life.
type deployment struct {
	net    *transport.Network
	names  []string // members, group-major
	spare  string
	envs   map[string]*env.Env // every node, spare included
	groups []*shard.Group
	smap   shard.Map // the key → group layout; routers exist when it has > 1 group
	base   map[string]*baseline.Server
	stops  []func() // what close stops: the servers, or the shard.Cluster owning them
}

// server is what deploy needs of a raft or baseline server.
type server interface {
	Start()
	Stop()
	TransportHandler() transport.Handler
}

var baselineKind = map[System]baseline.Kind{
	SyncRSM: baseline.SyncRSM, BufferRSM: baseline.BufferRSM, CallbackRSM: baseline.CallbackRSM,
}

// deploy brings the scenario's topology up and waits for every group
// to agree on a leader.
func deploy(sc Scenario, collector *trace.Collector) (*deployment, error) {
	t := sc.Topology
	d := &deployment{
		net:   transport.NewNetwork(),
		names: t.nodeNames(),
		spare: t.spareName(),
		envs:  make(map[string]*env.Env),
		smap:  shard.NewMap(shard.NewRangePartitioner(t.Groups, sc.Load.Records), t.Nodes),
	}
	var opts []core.Option
	if collector != nil {
		opts = append(opts, core.WithTracer(collector))
	}
	seed := func(g, i int) int64 { return sc.Seed + int64(g)*104729 + int64(i)*7919 }
	mutate := func(rc *raft.Config) {
		rc.Tracer = sc.XTracer
		if t.Raft != nil {
			t.Raft(rc)
		}
	}

	// add builds one node: its environment, its server (by mk), its
	// place on the network.
	var starts []func()
	add := func(name string, mk func(e *env.Env) server) {
		d.envs[name] = env.New(name, env.DefaultConfig())
		n := mk(d.envs[name])
		d.net.Register(name, d.envs[name], n.TransportHandler())
		starts, d.stops = append(starts, n.Start), append(d.stops, n.Stop)
	}
	switch {
	case t.System != DepFastRaft:
		d.base = make(map[string]*baseline.Server, len(d.names))
		d.groups = []*shard.Group{{Names: d.names, Envs: d.envs, Recorder: sc.Recorder}}
		for _, name := range d.names {
			bcfg := baseline.DefaultConfig(name, d.names, baselineKind[t.System])
			if collector != nil {
				bcfg.Tracer = collector
			}
			if t.Baseline != nil {
				t.Baseline(&bcfg)
			}
			add(name, func(e *env.Env) server {
				d.base[name] = baseline.NewServer(bcfg, e, d.net)
				return d.base[name]
			})
		}

	case t.Groups > 1:
		cluster := shard.NewCluster(shard.ClusterConfig{
			Map:         d.smap,
			Seed:        seed,
			Recorder:    sc.Recorder,
			RaftMutate:  func(_ int, rc *raft.Config) { mutate(rc) },
			RuntimeOpts: opts,
		}, d.net)
		d.groups, starts, d.stops = cluster.Groups(), []func(){cluster.Start}, []func(){cluster.Stop}
		for _, grp := range d.groups {
			for name, e := range grp.Envs {
				d.envs[name] = e
			}
		}

	default:
		grp := &shard.Group{Names: d.names, Servers: make(map[string]*raft.Server),
			Envs: d.envs, Recorder: sc.Recorder}
		d.groups = []*shard.Group{grp}
		build := func(name string, peers []string, i int) {
			rc := raft.DefaultConfig(name, peers)
			rc.Seed, rc.Recorder = seed(0, i), sc.Recorder
			mutate(&rc)
			add(name, func(e *env.Env) server {
				grp.Servers[name] = raft.NewServer(rc, e, d.net, opts...)
				return grp.Servers[name]
			})
		}
		for i, name := range d.names {
			build(name, d.names, i)
		}
		if d.spare != "" {
			// No peers: an empty voter set never campaigns, so the spare
			// idles until a leader's InstallSnapshot hands it the config.
			build(d.spare, nil, len(d.names))
			grp.Spares = []string{d.spare}
		}
	}
	for _, start := range starts {
		start()
	}

	if !clock.WaitUntil(15*time.Second, 5*time.Millisecond, func() bool {
		for g := range d.groups {
			if _, ok := d.leader(g); !ok {
				return false
			}
		}
		return true
	}) {
		d.close()
		return nil, fmt.Errorf("harness: not every group elected a leader within 15s")
	}
	return d, nil
}

// close stops the servers and the network.
func (d *deployment) close() {
	for _, stop := range d.stops {
		stop()
	}
	d.net.Close()
}

// leader reports group g's agreed leader.
func (d *deployment) leader(g int) (string, bool) {
	if d.base != nil {
		return d.names[0], true
	}
	return d.groups[g].Leader()
}

// groupOf returns the index of the group holding node (0 for a
// baseline, whose nodes form the only "group").
func (d *deployment) groupOf(node string) int {
	return max(0, slices.IndexFunc(d.groups, func(g *shard.Group) bool { return g.Servers[node] != nil }))
}

// Sentinel is the mitigation sentinel's visible actions summed over a
// set of servers (the transfer counter lives on the demoted leader,
// quarantine counters on whoever led at the time), plus their election
// count.
type Sentinel struct {
	Transfers          int64 `json:"transfers"`
	QuarantinesEntered int64 `json:"quarantines_entered"`
	QuarantinesExited  int64 `json:"quarantines_exited"`
	BacklogDiscarded   int64 `json:"backlog_discarded"`
	Elections          int64 `json:"elections"`
	// Quarantined is how many peers were still quarantined when read.
	Quarantined int `json:"quarantined"`
}

func sentinelOf(groups ...*shard.Group) Sentinel {
	var s Sentinel
	for _, grp := range groups {
		for _, srv := range grp.Servers {
			s.Transfers += srv.Mitigation.Transfers.Value()
			s.QuarantinesEntered += srv.Mitigation.QuarantinesEntered.Value()
			s.QuarantinesExited += srv.Mitigation.QuarantinesExited.Value()
			s.BacklogDiscarded += srv.Mitigation.BacklogDiscarded.Value()
			s.Elections += srv.Elections.Value()
			s.Quarantined += len(srv.Quarantined())
		}
	}
	return s
}

func otherNames(names []string, skip string) []string {
	return slices.DeleteFunc(slices.Clone(names), func(n string) bool { return n == skip })
}
