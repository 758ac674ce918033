package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"syscall"
	"time"

	"depfast/internal/obs"
)

// observer reads the exported counters at the two ends of a window
// and samples the exported gauges in between. Every read is an atomic
// load or a mutex-guarded snapshot the servers already publish, so the
// untraced window carries it too; process statistics, which stop the
// world, are taken only in the traced window.
type observer struct {
	c      *cluster
	proc   bool
	before map[string]int64
	max    map[string]int64
	mem    runtime.MemStats
	cpu    time.Duration
	heap   []rtmetrics.Sample
}

// counts is what an observer saw over one window.
type counts struct {
	delta map[string]int64 // counter name → increase over the window
	max   map[string]int64 // gauge name → largest sample
	proc  map[string]float64
}

func startObserver(c *cluster, t *taps) *observer {
	o := &observer{c: c, proc: t != nil, max: make(map[string]int64),
		heap: []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
	if o.proc {
		runtime.ReadMemStats(&o.mem)
		o.cpu = cpuTime()
	}
	o.before = o.counters()
	return o
}

// counters sums each raft counter over the three servers and reads the
// network's.
func (o *observer) counters() map[string]int64 {
	m := map[string]int64{
		"net.sent":    o.c.net.Sent.Value(),
		"net.dropped": o.c.net.Dropped.Value(),
	}
	for _, s := range o.c.servers {
		m["raft.proposals"] += s.Proposals.Value()
		m["raft.commits"] += s.Commits.Value()
		m["raft.elections"] += s.Elections.Value()
		m["raft.wal_stalls"] += s.WALStalls.Value()
		m["raft.repair_sends"] += s.RepairSends.Value()
		m["raft.readindex_ops"] += s.ReadIndexOps.Value()
		m["raft.lease_reads"] += s.LeaseReads.Value()
		m["raft.lease_fallbacks"] += s.LeaseFallbacks.Value()
	}
	return m
}

func (o *observer) note(name string, v int64) {
	if v > o.max[name] {
		o.max[name] = v
	}
}

// sample reads the gauges once.
func (o *observer) sample() {
	lead := o.c.servers[o.c.leader]
	commit, _ := lead.CommitInfo()
	for _, n := range o.c.names {
		if n == o.c.leader {
			continue
		}
		fc, _ := o.c.servers[n].CommitInfo()
		if fc < commit {
			o.note("raft.follower_lag_max", int64(commit-fc))
		}
		if ob := lead.Outbox(n); ob != nil {
			o.note("rpc.outbox_queue_max", ob.Depth.Value())
		}
	}
	// Only outboxes track resident bytes on a server's environment.
	o.note("rpc.outbox_bytes_max", lead.Env().Resident())
	if o.proc {
		rtmetrics.Read(o.heap)
		o.note("proc.peak_heap_bytes", int64(o.heap[0].Value.Uint64()))
	}
}

func (o *observer) finish() counts {
	out := counts{delta: o.counters(), max: o.max, proc: map[string]float64{}}
	for k, v := range o.before {
		out.delta[k] -= v
	}
	if o.proc {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		out.proc["cpu_us"] = float64((cpuTime() - o.cpu).Microseconds())
		out.proc["allocs"] = float64(after.Mallocs - o.mem.Mallocs)
		out.proc["alloc_bytes"] = float64(after.TotalAlloc - o.mem.TotalAlloc)
		out.proc["gc_pause_ms"] = float64(after.PauseTotalNs-o.mem.PauseTotalNs) / 1e6
	}
	return out
}

// cpuTime is the user plus system time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stageFields are the obs.CommitSpan fields folded into the budget.
var stageFields = []string{"append", "replicate", "quorum", "apply", "total"}

// foldTraced turns a traced window into per-layer metrics: counter
// deltas, gauge maxima, process cost per operation, the leader's
// commit-stage budget and, under the fault script, per-fault latency.
func foldTraced(r *run, c *cluster, n counts, script []phase) map[string]float64 {
	m := make(map[string]float64)
	for _, k := range []string{"raft.proposals", "raft.commits", "raft.elections", "raft.wal_stalls",
		"raft.repair_sends", "raft.readindex_ops", "raft.lease_reads", "raft.lease_fallbacks"} {
		m[k] = float64(n.delta[k])
	}
	m["transport.dropped"] = float64(n.delta["net.dropped"])
	if commits := n.delta["raft.commits"]; commits > 0 {
		// Commits counts every replica's apply; one operation is one
		// commit on each of the three.
		m["raft.msgs_per_commit"] = float64(n.delta["net.sent"]) / (float64(commits) / nodes)
	}
	for _, k := range []string{"raft.follower_lag_max", "rpc.outbox_queue_max", "rpc.outbox_bytes_max"} {
		m[k] = float64(n.max[k])
	}
	m["proc.peak_heap_mb"] = float64(n.max["proc.peak_heap_bytes"]) / (1 << 20)
	m["proc.gc_pause_ms"] = n.proc["gc_pause_ms"]
	// Of the whole process: three servers and the client lanes.
	m["proc.cpu_cores"] = n.proc["cpu_us"] / float64(r.length.Microseconds())
	if ops := float64(r.win.completed(0, r.length)); ops > 0 {
		m["proc.cpu_us_per_op"] = n.proc["cpu_us"] / ops
		m["proc.allocs_per_op"] = n.proc["allocs"] / ops
		m["proc.alloc_bytes_per_op"] = n.proc["alloc_bytes"] / ops
	}
	m["gen.lateness_p99_ms"] = ms(quantile(sortedCopy(r.lateness), 0.99))
	m["gen.backlog_max"] = float64(r.backlog)

	m["client.tput_ops_s"] = float64(r.win.completed(0, r.length)) / r.length.Seconds()
	m["client.p50_ms"] = ms(quantile(r.lat, 0.50))
	m["client.p99_ms"] = ms(quantile(r.lat, 0.99))
	// Only updates cross the commit stages, so the budget is read
	// against their median, not the mix's.
	var updates []int64
	for _, s := range r.win.all {
		if k := r.win.key(s); !s.read && !s.failed && k >= 0 && k < int64(r.length) {
			updates = append(updates, s.lat)
		}
	}
	m["client.update_p50_ms"] = ms(quantile(sortedCopy(updates), 0.50))
	m["client.fail_ratio"] = r.failRatio()

	// The leader's commit spans inside the window, one value per stage.
	stages := make(map[string][]int64)
	for _, ev := range c.taps.rec.Events() {
		if ev.Type != obs.CommitSpan || ev.Node != c.leader {
			continue
		}
		if at := ev.Time.Sub(r.epoch); at < 0 || at >= r.length {
			continue
		}
		for _, f := range stageFields {
			if v, ok := ev.Fields[f+"_us"]; ok {
				stages[f] = append(stages[f], int64(v))
			}
		}
	}
	for _, f := range stageFields {
		slices.Sort(stages[f])
		m["raft.stage."+f+"_us"] = float64(quantile(stages[f], 0.50))
	}
	m["raft.stage.spans"] = float64(len(stages["total"]))
	m["obs.dropped_events"] = float64(c.taps.rec.Dropped())

	for _, ph := range script {
		pl := r.win.latencies(ph.from, ph.to)
		m["fault."+ph.name+".p50_ms"] = ms(quantile(pl, 0.50))
		m["fault."+ph.name+".p99_ms"] = ms(quantile(pl, 0.99))
	}
	m["fault.max_tput_drift"] = tputDrift(r.win, script)
	return m
}

// tputDrift is the largest relative change, over the fault phases, of
// the share of due requests acknowledged within their phase, against
// the healthy phase: Figure 3's throughput panel for an open loop,
// where offered load is fixed and only goodput can move.
func tputDrift(w window, script []phase) float64 {
	if len(script) == 0 {
		return 0
	}
	share := func(p phase) float64 {
		if d := w.due(p.from, p.to); d > 0 {
			return float64(w.completed(p.from, p.to)) / float64(d)
		}
		return 0
	}
	base := share(script[0])
	if base == 0 {
		return 0
	}
	worst := 0.0
	for _, p := range script[1:] {
		d := share(p)/base - 1
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
