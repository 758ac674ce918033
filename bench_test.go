// Macro-benchmarks regenerating every table and figure of the paper,
// plus ablations over the design choices called out in DESIGN.md.
//
//	go test -bench=. -benchmem            # everything (several minutes)
//	go test -bench=BenchmarkFigure3 -v    # one figure with its table
//
// Each benchmark runs the experiment once per b.N iteration (cells are
// seconds-long, so b.N stays 1 at the default benchtime) and reports
// the figure's headline numbers via b.ReportMetric; the full panel
// table is emitted with b.Logf (visible with -v).
package depfast_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"depfast/internal/baseline"
	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/failslow"
	"depfast/internal/harness"
	"depfast/internal/raft"
	"depfast/internal/rpc"
	"depfast/internal/transport"
)

// benchOptions returns cells short enough for benchmarking.
func benchOptions() harness.Options {
	o := harness.DefaultOptions()
	o.Duration = 1200 * time.Millisecond
	o.Warmup = 400 * time.Millisecond
	return o
}

// measure runs one scenario and returns its result and "measure" window.
func measure(b *testing.B, sc harness.Scenario) (harness.Result, harness.Stats) {
	b.Helper()
	res, err := harness.Run(sc)
	if err != nil {
		b.Fatal(err)
	}
	return res, res.Phase("measure").All
}

// BenchmarkTable1FaultCatalog regenerates Table 1: the fault catalog
// with the measured per-resource stretch factors.
func BenchmarkTable1FaultCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Table1()
		if i == 0 {
			b.Logf("\n%s", harness.RenderTable1(rows))
			for _, r := range rows {
				switch r.Fault {
				case failslow.CPUSlow:
					b.ReportMetric(r.ComputeFactor, "cpu-slow-x")
				case failslow.DiskSlow:
					b.ReportMetric(r.DiskFactor, "disk-slow-x")
				case failslow.NetSlow:
					b.ReportMetric(r.NetFactor, "net-slow-x")
				}
			}
		}
	}
}

// figureColumn benches one group of a paper figure — a system at a
// node count across all faults — and reports its worst normalized
// throughput, P99 and drift.
func figureColumn(b *testing.B, label string, sys harness.System, nodes int) {
	for i := 0; i < b.N; i++ {
		var base harness.Stats
		worstTput, worstP99, maxDrift := 1.0, 1.0, 0.0
		var lines string
		for _, fault := range failslow.All {
			res, m := measure(b, harness.Steady(fmt.Sprintf("%s/%v", label, fault), benchOptions(), sys, nodes, fault, 1))
			if fault == failslow.None {
				base = m
			}
			nt, np := m.Tput/base.Tput, float64(m.P99)/float64(base.P99)
			worstTput, worstP99 = math.Min(worstTput, nt), math.Max(worstP99, np)
			maxDrift = math.Max(maxDrift, math.Max(math.Abs(nt-1), math.Abs(float64(m.Mean)/float64(base.Mean)-1)))
			lines += fmt.Sprintf("  %s  [norm tput %.2f p99 %.2f]\n", res, nt, np)
		}
		if i == 0 {
			b.Logf("\n%s:\n%s", label, lines)
			b.ReportMetric(base.Tput, "base-op/s")
			b.ReportMetric(worstTput, "worst-norm-tput")
			b.ReportMetric(worstP99, "worst-norm-p99")
			b.ReportMetric(maxDrift*100, "max-drift-%")
		}
	}
}

// BenchmarkFigure1SyncRSM..CallbackRSM regenerate the three groups of
// Figure 1 (baseline RSMs with one fail-slow follower, normalized).
func BenchmarkFigure1SyncRSM(b *testing.B) { figureColumn(b, "figure1/SyncRSM", harness.SyncRSM, 3) }
func BenchmarkFigure1BufferRSM(b *testing.B) {
	figureColumn(b, "figure1/BufferRSM", harness.BufferRSM, 3)
}
func BenchmarkFigure1CallbackRSM(b *testing.B) {
	figureColumn(b, "figure1/CallbackRSM", harness.CallbackRSM, 3)
}

// BenchmarkFigure3ThreeNodes / FiveNodes regenerate Figure 3
// (DepFastRaft with a minority of fail-slow followers, absolute).
func BenchmarkFigure3ThreeNodes(b *testing.B) { figureColumn(b, "figure3/3", harness.DepFastRaft, 3) }
func BenchmarkFigure3FiveNodes(b *testing.B)  { figureColumn(b, "figure3/5", harness.DepFastRaft, 5) }

// BenchmarkFigure2SPG regenerates the slowness propagation graph of
// Figure 2 and reports its shape.
func BenchmarkFigure2SPG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.RunRow("figure2", benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", out.Text)
			b.ReportMetric(out.Derived["green_edges"], "green-edges")
			b.ReportMetric(out.Derived["red_edges"], "red-edges")
			b.ReportMetric(float64(out.Results[0].Collector.Len()), "wait-records")
		}
	}
}

// BenchmarkBaseThroughput compares no-fault throughput head to head —
// the paper's §3.4 note that DepFastRaft's low drift is not explained
// by a smaller base performance.
func BenchmarkBaseThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sys := range harness.Systems {
			res, m := measure(b, harness.Steady("base/"+sys.String(), benchOptions(), sys, 3, failslow.None, 1))
			if i == 0 {
				b.Logf("%s", res)
				b.ReportMetric(m.Tput, sys.String()+"-op/s")
			}
		}
	}
}

// BenchmarkAblationDiscard isolates the quorum-aware broadcast discard
// (the paper's "logic versus framework" optimization): DepFastRaft
// with and without it, under a network-slow follower.
func BenchmarkAblationDiscard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, discard := range []bool{true, false} {
			discard := discard
			sc := harness.Steady(fmt.Sprintf("discard=%v", discard), benchOptions(), harness.DepFastRaft, 3, failslow.NetSlow, 1)
			sc.Topology.Raft = func(rc *raft.Config) { rc.QuorumDiscard = discard }
			res, m := measure(b, sc)
			if i == 0 {
				b.Logf("%s", res)
				b.ReportMetric(m.Tput, map[bool]string{true: "discard-on-op/s", false: "discard-off-op/s"}[discard])
			}
		}
	}
}

// BenchmarkAblationEntryCache sweeps the SyncRSM entry-cache size
// under a network-slow follower: the smaller the cache, the more
// synchronous WAL reads block the region thread (the TiDB root cause).
func BenchmarkAblationEntryCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, size := range []int{8, 32, 512} {
			size := size
			sc := harness.Steady(fmt.Sprintf("cache=%d", size), benchOptions(), harness.SyncRSM, 3, failslow.NetSlow, 1)
			sc.Topology.Baseline = func(bc *baseline.Config) { bc.EntryCacheSize = size }
			res, m := measure(b, sc)
			if i == 0 {
				b.Logf("%s", res)
				b.ReportMetric(m.Tput, fmt.Sprintf("cache%d-op/s", size))
			}
		}
	}
}

// BenchmarkAblationReadIndex compares the replicated-read path against
// the ReadIndex leadership-check path on a read-heavy workload.
func BenchmarkAblationReadIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, readIndex := range []bool{false, true} {
			readIndex := readIndex
			sc := harness.Steady(fmt.Sprintf("readindex=%v", readIndex), benchOptions(), harness.DepFastRaft, 3, failslow.None, 1)
			sc.Topology.Raft = func(rc *raft.Config) { rc.ReadIndex = readIndex }
			if res, _ := measure(b, sc); i == 0 {
				b.Logf("%s", res)
			}
		}
	}
}

// BenchmarkSlowLeaderMitigation exercises the paper's §5 future-work
// mitigation: with the detector on, followers notice a fail-slow
// leader's stretched heartbeat cadence and demote it by re-electing.
func BenchmarkSlowLeaderMitigation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		names := []string{"s1", "s2", "s3"}
		net := transport.NewNetwork()
		envs := map[string]*env.Env{}
		servers := map[string]*raft.Server{}
		for j, n := range names {
			cfg := raft.DefaultConfig(n, names)
			cfg.Seed = int64(j+1) * 17
			cfg.SlowLeaderDetector = true
			cfg.SlowLeaderThreshold = 4
			e := env.New(n, env.DefaultConfig())
			s := raft.NewServer(cfg, e, net)
			net.Register(n, e, s.TransportHandler())
			envs[n] = e
			servers[n] = s
		}
		for _, s := range servers {
			s.Start()
		}
		leader := awaitLeader(b, servers)
		in := failslow.DefaultIntensity()
		in.NetDelay = 150 * time.Millisecond
		failslow.Apply(envs[leader], failslow.NetSlow, in)
		start := time.Now()
		recovered := time.Duration(0)
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			for n, s := range servers {
				if n == leader {
					continue
				}
				if _, role, _ := s.Status(); role == raft.Leader {
					recovered = time.Since(start)
				}
			}
			if recovered > 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if i == 0 {
			if recovered > 0 {
				b.Logf("slow leader demoted after %v", recovered.Round(time.Millisecond))
				b.ReportMetric(recovered.Seconds()*1000, "demotion-ms")
			} else {
				b.Log("slow leader never demoted (detector failed)")
			}
		}
		for _, s := range servers {
			s.Stop()
		}
		net.Close()
	}
}

func awaitLeader(b *testing.B, servers map[string]*raft.Server) string {
	b.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for n, s := range servers {
			if _, role, _ := s.Status(); role == raft.Leader {
				return n
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.Fatal("no leader")
	return ""
}

// BenchmarkAblationBatching contrasts one entry per AppendEntries
// (RepairBatch = 1, the per-request wire pattern) against the default
// group commit at a client count well past the 16-batch commit gate —
// what sharing an append, a fan-out and a quorum buys once the gate is
// closed. There is no batching switch: the batch cap is the only lever.
func BenchmarkAblationBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			name string
			cap  int // 0 keeps the default RepairBatch
		}{{"one-entry-per-msg-op/s", 1}, {"group-commit-op/s", 0}} {
			c := c
			o := benchOptions()
			o.Duration, o.Warmup, o.Clients = 1500*time.Millisecond, 500*time.Millisecond, 64
			sc := harness.Steady(c.name, o, harness.DepFastRaft, 3, failslow.None, 1)
			sc.Topology.Raft = func(rc *raft.Config) {
				if c.cap > 0 {
					rc.RepairBatch = c.cap
				}
			}
			res, m := measure(b, sc)
			if i == 0 {
				b.Logf("%s", res)
				b.ReportMetric(m.Tput, c.name)
			}
		}
	}
}

// BenchmarkTransientFault runs the timeline experiment: a network
// fault lands on one follower mid-run and clears; DepFastRaft's
// windows stay flat while a baseline's sag (§5 transient faults).
func BenchmarkTransientFault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.RunRow("transient", benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", out.Text)
			for _, r := range out.Results {
				b.ReportMetric(r.Phase("fault").All.Tput/r.Phase("before").All.Tput, r.System+"-during/before")
			}
		}
	}
}

// BenchmarkClientSweep sweeps the closed-loop client population — the
// scaled version of the paper's 256–1200 YCSB clients.
func BenchmarkClientSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Duration, o.Warmup = time.Second, 300*time.Millisecond
		out, err := harness.RunRow("sweep", o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", out.Text)
			b.ReportMetric(out.Results[len(out.Results)-1].Phase("measure").All.Tput, "peak-op/s")
		}
	}
}

// BenchmarkIntensitySweep measures the degradation *curve* over fault
// magnitude: DepFastRaft stays flat while CallbackRSM bends.
func BenchmarkIntensitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.RunRow("intensity", benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", out.Text)
			// Cells are system-major: a base cell, then one per delay.
			tput := func(k int) float64 { return out.Results[k].Phase("measure").All.Tput }
			per := len(out.Results) / len(harness.Systems)
			for s, sys := range harness.Systems {
				if sys == harness.DepFastRaft || sys == harness.CallbackRSM {
					b.ReportMetric(tput(s*per+per-1)/tput(s*per), sys.String()+"-80ms-x")
				}
			}
		}
	}
}

// BenchmarkEndToEndPut measures single-client put latency through a
// full in-memory 3-node cluster (closed loop, b.N puts).
func BenchmarkEndToEndPut(b *testing.B) {
	names := []string{"s1", "s2", "s3"}
	net := transport.NewNetwork()
	defer net.Close()
	servers := map[string]*raft.Server{}
	for j, n := range names {
		cfg := raft.DefaultConfig(n, names)
		cfg.Seed = int64(j+1) * 29
		e := env.New(n, env.DefaultConfig())
		s := raft.NewServer(cfg, e, net)
		net.Register(n, e, s.TransportHandler())
		servers[n] = s
	}
	for _, s := range servers {
		s.Start()
	}
	defer func() {
		for _, s := range servers {
			s.Stop()
		}
	}()
	awaitLeader(b, servers)

	crt := core.NewRuntime("client-bench")
	defer crt.Stop()
	cep := rpc.NewEndpoint("client-bench", crt, net, rpc.WithCallTimeout(3*time.Second))
	defer cep.Close()
	net.Register("client-bench", env.New("client-bench", env.DefaultConfig()), cep.TransportHandler())

	b.ResetTimer()
	done := make(chan error, 1)
	crt.Spawn("bench", func(co *core.Coroutine) {
		cl := raft.NewClient(1, cep, names, 3*time.Second)
		for i := 0; i < b.N; i++ {
			if err := cl.Put(co, fmt.Sprintf("bench%d", i), []byte("v")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	})
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}
