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

// benchExperimentConfig returns cells short enough for benchmarking.
func benchExperimentConfig() harness.ExperimentConfig {
	ecfg := harness.DefaultExperimentConfig()
	ecfg.Duration = 1200 * time.Millisecond
	ecfg.Warmup = 400 * time.Millisecond
	ecfg.Clients = 24
	return ecfg
}

// BenchmarkTable1FaultCatalog regenerates Table 1: the fault catalog
// with the measured per-resource stretch factors.
func BenchmarkTable1FaultCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Table1(failslow.DefaultIntensity())
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

// figure1For benches one baseline system across all faults
// (one column of Figure 1).
func figure1For(b *testing.B, sys harness.System) {
	for i := 0; i < b.N; i++ {
		var base harness.RunResult
		var worstTput = 1.0
		var worstP99 = 1.0
		ecfg := benchExperimentConfig()
		var lines string
		for _, fault := range failslow.All {
			cfg := harness.DefaultRunConfig(sys)
			cfg.Duration = ecfg.Duration
			cfg.Warmup = ecfg.Warmup
			cfg.Clients = ecfg.Clients
			cfg.Fault = fault
			res, err := harness.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if fault == failslow.None {
				base = res
			}
			nt := res.Throughput / base.Throughput
			np := float64(res.P99) / float64(base.P99)
			if nt < worstTput {
				worstTput = nt
			}
			if np > worstP99 {
				worstP99 = np
			}
			lines += fmt.Sprintf("  %s  [norm tput %.2f p99 %.2f]\n", res, nt, np)
		}
		if i == 0 {
			b.Logf("\nFigure 1 column — %v:\n%s", sys, lines)
			b.ReportMetric(base.Throughput, "base-op/s")
			b.ReportMetric(worstTput, "worst-norm-tput")
			b.ReportMetric(worstP99, "worst-norm-p99")
		}
	}
}

// BenchmarkFigure1SyncRSM..CallbackRSM regenerate the three groups of
// Figure 1 (baseline RSMs with one fail-slow follower, normalized).
func BenchmarkFigure1SyncRSM(b *testing.B)     { figure1For(b, harness.SyncRSM) }
func BenchmarkFigure1BufferRSM(b *testing.B)   { figure1For(b, harness.BufferRSM) }
func BenchmarkFigure1CallbackRSM(b *testing.B) { figure1For(b, harness.CallbackRSM) }

// figure3For benches DepFastRaft at one group size with a minority of
// fail-slow followers (one group of Figure 3).
func figure3For(b *testing.B, nodes int) {
	for i := 0; i < b.N; i++ {
		var base harness.RunResult
		maxDrift := 0.0
		ecfg := benchExperimentConfig()
		var lines string
		for _, fault := range failslow.All {
			cfg := harness.DefaultRunConfig(harness.DepFastRaft)
			cfg.Nodes = nodes
			cfg.FaultFollowers = (nodes - 1) / 2
			cfg.Duration = ecfg.Duration
			cfg.Warmup = ecfg.Warmup
			cfg.Clients = ecfg.Clients
			cfg.Fault = fault
			res, err := harness.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if fault == failslow.None {
				base = res
			}
			for _, pair := range [][2]float64{
				{res.Throughput, base.Throughput},
				{float64(res.Mean), float64(base.Mean)},
			} {
				d := pair[0]/pair[1] - 1
				if d < 0 {
					d = -d
				}
				if d > maxDrift {
					maxDrift = d
				}
			}
			lines += fmt.Sprintf("  %s\n", res)
		}
		if i == 0 {
			b.Logf("\nFigure 3 group — %d nodes:\n%s", nodes, lines)
			b.ReportMetric(base.Throughput, "base-op/s")
			b.ReportMetric(maxDrift*100, "max-drift-%")
		}
	}
}

// BenchmarkFigure3ThreeNodes / FiveNodes regenerate Figure 3
// (DepFastRaft with a minority of fail-slow followers, absolute).
func BenchmarkFigure3ThreeNodes(b *testing.B) { figure3For(b, 3) }
func BenchmarkFigure3FiveNodes(b *testing.B)  { figure3For(b, 5) }

// BenchmarkFigure2SPG regenerates the slowness propagation graph of
// Figure 2 and reports its shape.
func BenchmarkFigure2SPG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, col, err := harness.Figure2(30*time.Second, 25)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", g.ASCII())
			b.ReportMetric(float64(len(g.QuorumEdges())), "green-edges")
			b.ReportMetric(float64(len(g.SingularEdges())), "red-edges")
			b.ReportMetric(float64(col.Len()), "wait-records")
		}
	}
}

// BenchmarkBaseThroughput compares no-fault throughput head to head —
// the paper's §3.4 note that DepFastRaft's low drift is not explained
// by a smaller base performance.
func BenchmarkBaseThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sys := range []harness.System{
			harness.DepFastRaft, harness.SyncRSM, harness.BufferRSM, harness.CallbackRSM,
		} {
			cfg := harness.DefaultRunConfig(sys)
			cfg.Duration = 1200 * time.Millisecond
			cfg.Warmup = 400 * time.Millisecond
			cfg.Clients = 24
			res, err := harness.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("%s", res)
				b.ReportMetric(res.Throughput, sys.String()+"-op/s")
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
			cfg := harness.DefaultRunConfig(harness.DepFastRaft)
			cfg.Duration = 1200 * time.Millisecond
			cfg.Warmup = 400 * time.Millisecond
			cfg.Clients = 24
			cfg.Fault = failslow.NetSlow
			cfg.RaftMutate = func(rc *raft.Config) { rc.QuorumDiscard = discard }
			res, err := harness.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("discard=%v: %s", discard, res)
				name := "discard-on-op/s"
				if !discard {
					name = "discard-off-op/s"
				}
				b.ReportMetric(res.Throughput, name)
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
			cfg := harness.DefaultRunConfig(harness.SyncRSM)
			cfg.Duration = 1200 * time.Millisecond
			cfg.Warmup = 400 * time.Millisecond
			cfg.Clients = 24
			cfg.Fault = failslow.NetSlow
			cfg.BaselineMutate = func(bc *baseline.Config) { bc.EntryCacheSize = size }
			res, err := harness.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("cache=%d: %s", size, res)
				b.ReportMetric(res.Throughput, fmt.Sprintf("cache%d-op/s", size))
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
			cfg := harness.DefaultRunConfig(harness.DepFastRaft)
			cfg.Duration = 1200 * time.Millisecond
			cfg.Warmup = 400 * time.Millisecond
			cfg.Clients = 24
			cfg.RaftMutate = func(rc *raft.Config) { rc.ReadIndex = readIndex }
			res, err := harness.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("readindex=%v: %s", readIndex, res)
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
			cfg := harness.DefaultRunConfig(harness.DepFastRaft)
			cfg.Duration = 1500 * time.Millisecond
			cfg.Warmup = 500 * time.Millisecond
			cfg.Clients = 64
			cfg.RaftMutate = func(rc *raft.Config) {
				if c.cap > 0 {
					rc.RepairBatch = c.cap
				}
			}
			res, err := harness.RunStable(cfg, 3)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("%s: %s", c.name, res)
				b.ReportMetric(res.Throughput, c.name)
			}
		}
	}
}

// BenchmarkTransientFault runs the timeline experiment: a network
// fault lands on one follower mid-run and clears; DepFastRaft's
// windows stay flat while a baseline's sag (§5 transient faults).
func BenchmarkTransientFault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sys := range []harness.System{harness.DepFastRaft, harness.CallbackRSM} {
			cfg := harness.DefaultRunConfig(sys)
			cfg.Clients = 24
			cfg.Fault = failslow.NetSlow
			res, err := harness.RunTransient(cfg, 3*time.Second, 500*time.Millisecond,
				time.Second, time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				before, during, _ := res.PhaseThroughputs()
				b.Logf("\n%s", res.Render())
				b.ReportMetric(during/before, sys.String()+"-during/before")
			}
		}
	}
}

// BenchmarkClientSweep sweeps the closed-loop client population — the
// scaled version of the paper's 256–1200 YCSB clients.
func BenchmarkClientSweep(b *testing.B) {
	counts := []int{8, 24, 48}
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultRunConfig(harness.DepFastRaft)
		cfg.Duration = time.Second
		cfg.Warmup = 300 * time.Millisecond
		results, err := harness.Sweep(cfg, counts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", harness.RenderSweep(results, counts))
			b.ReportMetric(results[len(results)-1].Throughput, "peak-op/s")
		}
	}
}

// BenchmarkIntensitySweep measures the degradation *curve* over fault
// magnitude: DepFastRaft stays flat while CallbackRSM bends.
func BenchmarkIntensitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ecfg := benchExperimentConfig()
		delays := []time.Duration{20 * time.Millisecond, 80 * time.Millisecond}
		res, err := harness.IntensitySweep(ecfg,
			[]harness.System{harness.DepFastRaft, harness.CallbackRSM}, delays)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
			last := len(delays) - 1
			b.ReportMetric(res.Points[harness.DepFastRaft][last].NormTput, "depfast-80ms-x")
			b.ReportMetric(res.Points[harness.CallbackRSM][last].NormTput, "callback-80ms-x")
		}
	}
}

// BenchmarkCoroutineOverhead measures the cost of the DepFast
// programming model itself: one event signal + coroutine wakeup per
// iteration, compared against a raw channel ping-pong baseline.
func BenchmarkCoroutineOverhead(b *testing.B) {
	b.Run("event-wakeup", func(b *testing.B) {
		rt := core.NewRuntime("bench")
		defer rt.Stop()
		done := make(chan struct{})
		rt.Spawn("waiter", func(co *core.Coroutine) {
			defer close(done)
			for i := 0; i < b.N; i++ {
				sig := core.NewSignalEvent()
				co.Runtime().Spawn("setter", func(sc *core.Coroutine) { sig.Set() })
				if err := co.Wait(sig); err != nil {
					return
				}
			}
		})
		<-done
	})
	b.Run("raw-channel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch := make(chan struct{})
			go func() { close(ch) }()
			<-ch
		}
	})
}

// BenchmarkQuorumEventThroughput measures pure quorum-event machinery:
// building a 2-of-3 quorum and firing it.
func BenchmarkQuorumEventThroughput(b *testing.B) {
	rt := core.NewRuntime("bench")
	defer rt.Stop()
	done := make(chan struct{})
	rt.Spawn("driver", func(co *core.Coroutine) {
		defer close(done)
		for i := 0; i < b.N; i++ {
			q := core.NewQuorumEvent(3, 2)
			evs := [3]*core.ResultEvent{}
			for j := range evs {
				evs[j] = core.NewResultEvent("rpc", "p")
				q.AddJudged(evs[j], nil)
			}
			evs[0].Fire("ok", nil)
			evs[1].Fire("ok", nil)
			if !q.Ready() {
				b.Error("quorum not ready")
				return
			}
		}
	})
	<-done
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
