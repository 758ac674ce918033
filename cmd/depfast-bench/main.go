// Command depfast-bench regenerates the paper's evaluation artifacts:
//
//	depfast-bench -exp table1    # Table 1: fault catalog + measured stretch
//	depfast-bench -exp figure1   # Figure 1: baseline RSMs, normalized
//	depfast-bench -exp figure2   # Figure 2: slowness propagation graph
//	depfast-bench -exp figure3   # Figure 3: DepFastRaft, absolute
//	depfast-bench -exp all       # everything, in paper order
//
// Extension experiments beyond the paper's figures:
//
//	depfast-bench -exp verify    # mechanical fail-slow-tolerance verification
//	depfast-bench -exp transient # fault lands mid-run and clears (timeline)
//	depfast-bench -exp sweep     # client-population capacity sweep
//	depfast-bench -exp intensity # degradation vs fault magnitude curves
//	depfast-bench -exp mitigation # sentinel on/off under a CPU-slow leader
//	depfast-bench -exp shard     # multi-Raft sharded KV: blast-radius containment
//	depfast-bench -exp replace   # automated replacement of a condemned fail-slow node
//	depfast-bench -exp trace     # causal tracing: attribution accuracy + overhead gates
//	depfast-bench -exp hedge     # request hedging under a sub-threshold episode -> BENCH_hedge.json
//
// One-off custom runs:
//
//	depfast-bench -exp run -system BufferRSM -fault net \
//	    -workload "recordcount=1000,readproportion=0.95,updateproportion=0.05"
//
// Runs are scaled for a laptop: seconds per cell instead of the
// paper's minutes per Azure deployment. Shapes — who degrades, by
// roughly what factor, and that DepFastRaft stays within a few
// percent — are the reproduction target, not absolute numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"depfast/internal/clock"
	"depfast/internal/failslow"
	"depfast/internal/harness"
	"depfast/internal/obs"
	"depfast/internal/trace"
	"depfast/internal/ycsb"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|figure1|figure2|figure3|verify|transient|sweep|intensity|mitigation|shard|replace|trace|hedge|run|all")
		benchOut = flag.String("out", "BENCH_hedge.json", "hedge: write the result JSON to this file")
		duration = flag.Duration("duration", 3*time.Second, "measurement window per cell")
		warmup   = flag.Duration("warmup", 750*time.Millisecond, "warmup before measuring")
		clients  = flag.Int("clients", 24, "closed-loop client population")
		records  = flag.Int("records", 2000, "YCSB record population")
		dotOut   = flag.String("dot", "", "write the Figure 2 SPG as Graphviz DOT to this file")
		quiet    = flag.Bool("quiet", false, "suppress per-run progress lines")
		timeline = flag.String("timeline", "", "write the flight-recorder timeline as JSONL to this file (mitigation and run experiments); analyze with depfast-report")
		quick    = flag.Bool("quick", false, "mitigation/shard: shortened single-run variant for smoke testing")

		// -exp run flags.
		system   = flag.String("system", "DepFastRaft", "run: DepFastRaft|SyncRSM|BufferRSM|CallbackRSM")
		faultArg = flag.String("fault", "none", "run: none|cpu|cpucontend|mem|disk|diskcontend|net")
		workload = flag.String("workload", "", "run: YCSB property string or preset name (a-f, paper)")
		nodes    = flag.Int("nodes", 3, "run: cluster size")
	)
	flag.Parse()

	ecfg := harness.DefaultExperimentConfig()
	ecfg.Duration = *duration
	ecfg.Warmup = *warmup
	ecfg.Clients = *clients
	ecfg.Records = *records
	if !*quiet {
		ecfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	}

	fmt.Printf("depfast-bench: host sleep floor %v (see internal/clock)\n\n",
		clock.SleepFloor().Round(10*time.Microsecond))

	runTable1 := func() {
		fmt.Println(harness.RenderTable1(harness.Table1(failslow.DefaultIntensity())))
	}
	runFigure1 := func() {
		fig, err := harness.Figure1(ecfg)
		exitOn(err)
		fmt.Println(fig.Render(true))
		for _, g := range fig.Order {
			fmt.Printf("max drift %-12s: %5.1f%%\n", g, fig.MaxDrift(g)*100)
		}
		fmt.Println()
	}
	runFigure2 := func() {
		g, col, err := harness.Figure2(30*time.Second, 40)
		exitOn(err)
		fmt.Println("== Figure 2: slowness propagation graph (3 shards, 3 clients) ==")
		fmt.Println(g.ASCII())
		fmt.Println(trace.Report(col.Records(), trace.VerifyConfig{AllowClientPrefix: "c"}))
		if *dotOut != "" {
			exitOn(os.WriteFile(*dotOut, []byte(g.DOT()), 0o644))
			fmt.Printf("DOT written to %s\n", *dotOut)
		}
		fmt.Println()
	}
	runFigure3 := func() {
		fig, err := harness.Figure3(ecfg)
		exitOn(err)
		fmt.Println(fig.Render(false))
		for _, g := range fig.Order {
			fmt.Printf("max drift %-12s: %5.1f%% (paper claim: within 5%%)\n",
				g, fig.MaxDrift(g)*100)
		}
		fmt.Println()
	}

	runVerify := func() {
		results, err := harness.VerifySystems(ecfg, []harness.System{
			harness.DepFastRaft, harness.SyncRSM, harness.BufferRSM, harness.CallbackRSM,
		})
		exitOn(err)
		fmt.Println("== Runtime verification: fail-slow-tolerance discipline ==")
		fmt.Println(harness.RenderVerify(results))
		fmt.Println("(SyncRSM's synchronous disk reads bypass the event abstraction")
		fmt.Println(" and are invisible to event-based verification — the paper's")
		fmt.Println(" argument for routing every wait through an event.)")
		fmt.Println()
	}
	runTransient := func() {
		fmt.Println("== Transient fault timeline (network slowness on one follower) ==")
		for _, sys := range []harness.System{harness.DepFastRaft, harness.CallbackRSM} {
			cfg := harness.DefaultRunConfig(sys)
			cfg.Clients = *clients
			cfg.Fault = failslow.NetSlow
			res, err := harness.RunTransient(cfg, 4*time.Second, 500*time.Millisecond,
				1200*time.Millisecond, 1500*time.Millisecond)
			exitOn(err)
			fmt.Println(res.Render())
		}
	}
	runIntensity := func() {
		delays := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond,
			40 * time.Millisecond, 80 * time.Millisecond}
		res, err := harness.IntensitySweep(ecfg,
			[]harness.System{harness.DepFastRaft, harness.SyncRSM, harness.BufferRSM, harness.CallbackRSM},
			delays)
		exitOn(err)
		fmt.Println(res.Render())
	}
	// The flight recorder is shared by every run the invocation makes,
	// so a -timeline file holds one continuous event stream.
	var recorder *obs.Recorder
	if *timeline != "" {
		recorder = obs.NewRecorder(0)
	}

	runMitigation := func() {
		if *quick {
			fmt.Println("== Mitigation sentinel (quick: leader cpu-slow, sentinel on) ==")
			cfg := harness.DefaultMitigationRunConfig()
			cfg.Recorder = recorder
			res, err := harness.RunMitigation(cfg)
			exitOn(err)
			fmt.Println(res)
			return
		}
		fmt.Println("== Mitigation sentinel on/off ==")
		out, err := harness.MitigationExperimentRecorded(recorder)
		exitOn(err)
		fmt.Println(out)
	}
	runSharded := func() {
		fmt.Println("== Sharded KV: blast-radius containment (disk-slow shard leader) ==")
		cfg := harness.DefaultShardedRunConfig()
		if *quick {
			cfg = harness.QuickShardedRunConfig()
		}
		cfg.Recorder = recorder
		res, err := harness.RunSharded(cfg)
		exitOn(err)
		fmt.Println(res.Render())
	}
	runReplace := func() {
		fmt.Println("== Automated replacement (disk-slow follower condemned, spare joined) ==")
		out, err := harness.ReplacementExperimentRecorded(recorder)
		exitOn(err)
		fmt.Println(out)
	}
	runSweep := func() {
		fmt.Println("== Client-population sweep (DepFastRaft, healthy) ==")
		counts := []int{4, 8, 16, 32, 64}
		cfg := harness.DefaultRunConfig(harness.DepFastRaft)
		cfg.Duration = *duration
		cfg.Warmup = *warmup
		results, err := harness.Sweep(cfg, counts)
		exitOn(err)
		fmt.Println(harness.RenderSweep(results, counts))
	}

	runTrace := func() {
		fmt.Println("== Causal tracing: attribution accuracy + overhead (leader disk-slow) ==")
		cfg := harness.DefaultTraceExpConfig()
		if *quick {
			cfg.OverheadTrials = 1
		}
		res, err := harness.RunTraceExperiment(cfg)
		exitOn(err)
		fmt.Println(res)
		fmt.Println(res.Attribution.Render())
		failed := false
		if res.MatchFraction < 0.9 {
			fmt.Fprintf(os.Stderr, "FAIL: only %.0f%% of tail-promoted traces blame (leader, disk); gate is 90%%\n",
				res.MatchFraction*100)
			failed = true
		}
		if res.OverheadRatio > 0 && res.OverheadRatio < 0.95 {
			fmt.Fprintf(os.Stderr, "FAIL: tracing costs %.1f%% throughput; gate is 5%%\n",
				(1-res.OverheadRatio)*100)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("gates: attribution >= 90% matched, tracing overhead < 5% — both hold")
		fmt.Println()
	}
	runHedge := func() {
		fmt.Println("== Request hedging under a sub-threshold fail-slow episode ==")
		cfg := harness.DefaultHedgeConfig()
		if *quick {
			cfg = harness.QuickHedgeConfig()
		}
		cfg.Recorder = recorder
		res, err := harness.RunHedge(cfg)
		exitOn(err)
		fmt.Println(res)
		failed := false
		if res.ReadGain < 2 {
			fmt.Fprintf(os.Stderr, "FAIL: hedged read p99 only %.2fx better than unhedged; gate is 2x\n",
				res.ReadGain)
			failed = true
		}
		if res.Lin.Verdict == harness.LinViolation {
			fmt.Fprintf(os.Stderr, "FAIL: hedged history not linearizable (key %q, %d ops)\n",
				res.Lin.Key, res.Lin.Ops)
			failed = true
		}
		if res.AckedLoss != 0 {
			fmt.Fprintf(os.Stderr, "FAIL: %d acked writes lost under speculation\n", res.AckedLoss)
			failed = true
		}
		if res.HealthyWastedRate > res.BudgetRatio {
			fmt.Fprintf(os.Stderr, "FAIL: healthy-window wasted-hedge rate %.3f exceeds budget ratio %.2f\n",
				res.HealthyWastedRate, res.BudgetRatio)
			failed = true
		}
		if res.SuspectEvents != 0 || res.ElectionsDelta != 0 {
			fmt.Fprintf(os.Stderr, "FAIL: episode leaked into the server plane (suspects=%d elections=%d); it must stay sub-threshold\n",
				res.SuspectEvents, res.ElectionsDelta)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
		out := map[string]any{
			"name": "hedge",
			"cells": []map[string]any{
				{"phase": "healthy-hedged", "read_p99_us": res.Healthy.ReadP99.Seconds() * 1e6,
					"write_p99_us": res.Healthy.WriteP99.Seconds() * 1e6, "tput": res.Healthy.Tput},
				{"phase": "episode-unhedged", "read_p99_us": res.Unhedged.ReadP99.Seconds() * 1e6,
					"write_p99_us": res.Unhedged.WriteP99.Seconds() * 1e6, "tput": res.Unhedged.Tput},
				{"phase": "episode-hedged", "read_p99_us": res.Hedged.ReadP99.Seconds() * 1e6,
					"write_p99_us": res.Hedged.WriteP99.Seconds() * 1e6, "tput": res.Hedged.Tput},
			},
			"read_gain":           res.ReadGain,
			"fired":               res.Fired,
			"won":                 res.Won,
			"wasted":              res.Wasted,
			"put_retries":         res.PutRetries,
			"healthy_wasted_rate": res.HealthyWastedRate,
			"lin_verdict":         res.Lin.Verdict.String(),
			"acked_loss":          res.AckedLoss,
		}
		b, err := json.MarshalIndent(out, "", "  ")
		exitOn(err)
		exitOn(os.WriteFile(*benchOut, append(b, '\n'), 0o644))
		fmt.Printf("gates: read p99 gain >= 2x, linearizable, zero acked-write loss,\n"+
			"       wasted rate <= budget, server plane silent — all hold\n"+
			"hedge results written to %s\n\n", *benchOut)
	}
	runCustom := func() {
		sys, err := systemByName(*system)
		exitOn(err)
		fault, err := faultByName(*faultArg)
		exitOn(err)
		cfg := harness.DefaultRunConfig(sys)
		cfg.Nodes = *nodes
		cfg.FaultFollowers = (*nodes - 1) / 2
		cfg.Duration = *duration
		cfg.Warmup = *warmup
		cfg.Clients = *clients
		cfg.Records = *records
		cfg.Fault = fault
		cfg.Recorder = recorder
		if *workload != "" {
			wl, err := ycsb.Preset(*workload)
			if err != nil {
				wl, err = ycsb.Parse(*workload)
				exitOn(err)
			}
			cfg.Workload = &wl
		}
		res, err := harness.RunStable(cfg, 3)
		exitOn(err)
		fmt.Println(res)
	}

	switch *exp {
	case "run":
		runCustom()
	case "table1":
		runTable1()
	case "figure1":
		runFigure1()
	case "figure2", "spg":
		runFigure2()
	case "figure3":
		runFigure3()
	case "verify":
		runVerify()
	case "transient":
		runTransient()
	case "sweep":
		runSweep()
	case "intensity":
		runIntensity()
	case "mitigation":
		runMitigation()
	case "shard":
		runSharded()
	case "replace":
		runReplace()
	case "trace":
		runTrace()
	case "hedge":
		runHedge()
	case "all":
		runTable1()
		runFigure1()
		runFigure2()
		runFigure3()
		runVerify()
		runTransient()
		runSweep()
		runIntensity()
		runMitigation()
		runSharded()
		runReplace()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	if recorder != nil {
		f, err := os.Create(*timeline)
		exitOn(err)
		err = obs.WriteRecorderJSONL(f, recorder)
		exitOn(err)
		exitOn(f.Close())
		fmt.Printf("timeline: %d events written to %s (analyze with: depfast-report %s)\n",
			recorder.Len(), *timeline, *timeline)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "depfast-bench:", err)
		os.Exit(1)
	}
}

func systemByName(name string) (harness.System, error) {
	switch strings.ToLower(name) {
	case "depfastraft", "depfast":
		return harness.DepFastRaft, nil
	case "syncrsm", "sync":
		return harness.SyncRSM, nil
	case "bufferrsm", "buffer":
		return harness.BufferRSM, nil
	case "callbackrsm", "callback":
		return harness.CallbackRSM, nil
	}
	return 0, fmt.Errorf("unknown system %q", name)
}

func faultByName(name string) (failslow.Fault, error) {
	switch strings.ToLower(name) {
	case "", "none":
		return failslow.None, nil
	case "cpu":
		return failslow.CPUSlow, nil
	case "cpucontend":
		return failslow.CPUContention, nil
	case "mem":
		return failslow.MemContention, nil
	case "disk":
		return failslow.DiskSlow, nil
	case "diskcontend":
		return failslow.DiskContention, nil
	case "net":
		return failslow.NetSlow, nil
	}
	return 0, fmt.Errorf("unknown fault %q", name)
}
