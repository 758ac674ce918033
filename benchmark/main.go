// Command benchmark is the repository's performance yardstick: four
// workloads against a 3-node DepFastRaft group in this process, four
// end-to-end metrics per workload, and per-layer metrics under them.
// BENCHMARK.json at the repository root names every metric and
// workload; README.md in this directory says what each is for.
//
//	go run ./benchmark -workload put_sat -seed 3 -seconds 20 -trace 0   one run, one JSON line (the driver's form)
//	go run ./benchmark                      that run for every workload, as a table
//	go run ./benchmark -traced              plus the -trace 1 run of each: per-layer metrics, stage budget
//	go run ./benchmark -aa 10 -out aa.json  ten seeds per workload, spreads against bounds
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -layers              the ladder of per-layer microbenchmarks alone
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"depfast/internal/env"
)

// plan holds the lengths of one run. Every way of invoking the
// benchmark measures with the same plan; -quick swaps in a short one
// for the smoke test.
type plan struct {
	warm   time.Duration // load before each measured window
	window time.Duration // -trace 0: the measured window
	setups int           // -trace 0: set-ups per run; setup_s is their median
	// -trace 1 fits an untraced and a traced window, two set-ups and the
	// ladder into the time of one -trace 0 run, so its windows are shorter.
	tracedWindow time.Duration
	rung         time.Duration // how long each ladder rung iterates
}

func planFor(window time.Duration, quick bool) plan {
	if quick {
		return plan{warm: 500 * time.Millisecond, window: 2 * time.Second, setups: 1,
			tracedWindow: 2 * time.Second, rung: 5 * time.Millisecond}
	}
	return plan{warm: 3 * time.Second, window: window, setups: 3,
		tracedWindow: min(window, 8*time.Second), rung: 200 * time.Millisecond}
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print one JSON result line (the driver's form)")
		seed     = flag.Int64("seed", 1, "seed of every random choice the benchmark makes")
		seconds  = flag.Int("seconds", 20, "length of the measured window; BENCHMARK.json's run_seconds")
		trace    = flag.Int("trace", 0, "with -workload: 1 prints the per-layer metrics in place of the end-to-end ones")
		traced   = flag.Bool("traced", false, "after the table, make each workload's -trace 1 run and print its per-layer metrics")
		layers   = flag.Bool("layers", false, "run the ladder of per-layer microbenchmarks in place of the workloads")
		quick    = flag.Bool("quick", false, "2s windows, one set-up, short ladder: a smoke run, not a measurement")
		aa       = flag.Int("aa", 1, "run every workload this many times, on seed, seed+1, ..., and print each metric's spread beside its bound")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments against the bounds in BENCHMARK.json")
		out      = flag.String("out", "", "also write the result lines as JSON to this file")
		traceOut = flag.String("trace-out", "", "with -traced: write the benchmark's spans and the kept request trees here as JSONL")
		commit   = flag.String("commit", "unknown", "commit to stamp the -out file with")
		clients  = flag.Int("clients", 0, "override the client count of the closed-loop workloads: for the saturation sweep in README.md, not a measurement")
	)
	flag.Parse()
	if *clients > 0 {
		for i := range workloads {
			if !workloads[i].open {
				workloads[i].clients = *clients
			}
		}
	}
	p := planFor(time.Duration(*seconds)*time.Second, *quick)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(2, "-compare needs two files: old.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *name != "":
		os.Exit(driverRun(*name, *seed, p, *trace == 1))
	}

	rep := &report{Stamp: stamp{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Seed: *seed,
		Commit: *commit, Seconds: p.window.Seconds(), ClientLanes: clientLanes()}}
	ok := true
	if *layers {
		fmt.Printf("# ladder: each rung iterates for %v on a zero-cost environment; the delay floor on the default one\n", p.rung)
		rep.Layers = runLadder(p.rung)
		printMetrics(rep.Layers)
	} else {
		ok = suite(rep, p, *aa, *traced, *traceOut)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fail(1, err.Error())
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(code int, msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(code)
}

// metricValue is one metric in a result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output in the driver's form.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverRun makes one run the way the benchmark driver asks for it and
// prints the one-line result. Violations go to standard error.
func driverRun(name string, seed int64, p plan, traced bool) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	m, err := measure(w, seed, p, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, b := range m.bad {
		fmt.Fprintf(os.Stderr, "benchmark: %s: VIOLATION: %s\n", name, b)
	}
	b, err := json.Marshal(m.line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	if !m.line.Correct {
		return 1
	}
	return 0
}

// measured is one run of one workload.
type measured struct {
	line   resultLine
	bad    []string // correctness violations
	traced *run     // -trace 1: the traced window, for -trace-out
}

// measure makes one run: the end-to-end metrics of an untraced window,
// or, traced, every per-layer metric. A run is correct when no check
// was violated and no operation failed.
func measure(w workload, seed int64, p plan, traced bool) (*measured, error) {
	m := &measured{line: resultLine{Metrics: make(map[string]metricValue)}}
	if !traced {
		r, err := runWorkload(w, runOpts{seed: seed, warm: p.warm, length: p.window, setups: p.setups})
		if err != nil {
			return nil, err
		}
		e2e := r.endToEnd()
		for _, d := range endToEndMetrics {
			m.line.Metrics[d.name] = metricValue{Value: e2e[d.name], Unit: d.unit}
		}
		m.line.Attempted, m.line.Failed, m.bad = r.attempted, r.failed, r.bad
	} else {
		o := runOpts{seed: seed, warm: p.warm, length: p.tracedWindow, setups: 1}
		plain, err := runWorkload(w, o)
		if err != nil {
			return nil, err
		}
		o.taps = newTaps()
		r, err := runWorkload(w, o)
		if err != nil {
			return nil, err
		}
		m.line.Metrics = perLayer(r, plain, runLadder(p.rung))
		m.line.Attempted, m.line.Failed = plain.attempted+r.attempted, plain.failed+r.failed
		m.bad, m.traced = append(plain.bad, r.bad...), r
	}
	m.line.Correct = len(m.bad) == 0 && m.line.Failed == 0
	return m, nil
}

// perLayer assembles every per-layer metric of one workload: the traced
// window's, the tap cost against the untraced run plain, and the rungs
// (which must include the delay floor).
func perLayer(r, plain *run, rungs map[string]metricValue) map[string]metricValue {
	m := r.layer
	pe, te := plain.endToEnd(), r.endToEnd()
	m["tap.tput_ratio"] = te["tput_ops_s"] / pe["tput_ops_s"]
	m["tap.p50_ratio"] = te["p50_ms"] / pe["p50_ms"]
	m["client.residual_us"] = m["client.update_p50_ms"]*1e3 - m["raft.stage.total_us"] -
		2*rungs["transport.mem_oneway_us"].Value
	out := make(map[string]metricValue, len(tracedUnits)+len(rungs))
	for name, unit := range tracedUnits {
		out[name] = metricValue{Value: m[name], Unit: unit}
	}
	for n, v := range rungs {
		out[n] = v
	}
	return out
}

// report is the -out file: the result lines the driver's form would
// have printed, so -compare reads what the driver reads.
type report struct {
	Stamp  stamp                   `json:"stamp"`
	Runs   map[string][]resultLine `json:"runs,omitempty"`   // workload → the -trace 0 line of each run
	Traced map[string]resultLine   `json:"traced,omitempty"` // workload → its -trace 1 line
	Layers map[string]metricValue  `json:"layers,omitempty"` // -layers
}

// stamp records where and how a report was measured.
type stamp struct {
	NProc       int     `json:"nproc"`
	GoVersion   string  `json:"go"`
	Seed        int64   `json:"seed"` // of the first run; run i used seed+i
	Commit      string  `json:"commit"`
	Seconds     float64 `json:"window_s"`
	ClientLanes int     `json:"client_lanes"`
}

// values returns one end-to-end metric over the runs of a workload.
func values(lines []resultLine, metric string) []float64 {
	out := make([]float64, len(lines))
	for i, l := range lines {
		out[i] = l.Metrics[metric].Value
	}
	return out
}

// suite makes runs -trace 0 runs of every workload and, traced, one
// -trace 1 run of each; it reports whether every run was correct.
func suite(rep *report, p plan, runs int, traced bool, traceOut string) bool {
	ecfg := env.DefaultConfig()
	fmt.Printf("# depfast benchmark: %d-node DepFastRaft in one process, in-memory network, %d records of %dB, zipfian keys\n",
		nodes, records, valueSize)
	fmt.Printf("# injected delays: fsync %v, disk read %v, NIC %v on each side of a hop; without them latency is CPU only\n",
		ecfg.FsyncBase, ecfg.DiskReadBase, ecfg.NetBase)
	fmt.Printf("# nproc=%d go=%s seed=%d window=%v warm-up=%v set-ups=%d client lanes=%d\n",
		rep.Stamp.NProc, rep.Stamp.GoVersion, rep.Stamp.Seed, p.window, p.warm, p.setups, clientLanes())

	ok := true
	note := func(what string, m *measured) {
		for _, b := range m.bad {
			fmt.Printf("  VIOLATION (%s): %s\n", what, b)
		}
		ok = ok && m.line.Correct
	}
	rep.Runs = make(map[string][]resultLine)
	for i := 0; i < runs; i++ {
		fmt.Printf("%-16s %5s %12s %9s %9s %9s %11s %8s %8s\n",
			"workload", "seed", "tput_ops_s", "p50_ms", "p99_ms", "setup_s", "fail_ratio", "samples", "correct")
		for _, w := range workloads {
			m, err := measure(w, rep.Stamp.Seed+int64(i), p, false)
			if err != nil {
				fail(1, err.Error())
			}
			rep.Runs[w.name] = append(rep.Runs[w.name], m.line)
			v := func(n string) float64 { return m.line.Metrics[n].Value }
			fmt.Printf("%-16s %5d %12.1f %9.3f %9.3f %9.3f %11.5f %8d %8v\n", w.name, rep.Stamp.Seed+int64(i),
				v("tput_ops_s"), v("p50_ms"), v("p99_ms"), v("setup_s"),
				float64(m.line.Failed)/float64(m.line.Attempted), m.line.Attempted, m.line.Correct)
			note(w.name, m)
		}
	}
	if runs > 1 {
		printSpreads(rep)
	}
	if !traced {
		return ok
	}
	rep.Traced = make(map[string]resultLine)
	var kept []*run
	for _, w := range workloads {
		m, err := measure(w, rep.Stamp.Seed, p, true)
		if err != nil {
			fail(1, err.Error())
		}
		rep.Traced[w.name] = m.line
		kept = append(kept, m.traced)
		printTraced(w, m.line.Metrics)
		note("traced "+w.name, m)
	}
	if traceOut != "" {
		if err := writeTrace(traceOut, kept); err != nil {
			fail(1, err.Error())
		}
	}
	return ok
}

// printMetrics writes metrics in name order.
func printMetrics(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %12.3f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printTraced prints one workload's per-layer metrics and its
// commit-stage budget.
func printTraced(w workload, m map[string]metricValue) {
	fmt.Printf("\n# -trace 1: %s\n", w.name)
	printMetrics(m)
	v := func(n string) float64 { return m[n].Value }
	p50 := v("client.update_p50_ms") * 1e3
	fmt.Printf("  stage budget (leader, p50 of %d spans): append %.0fus | replicate %.0fus | quorum %.0fus | apply %.0fus | total %.0fus\n",
		int(v("raft.stage.spans")), v("raft.stage.append_us"), v("raft.stage.replicate_us"),
		v("raft.stage.quorum_us"), v("raft.stage.apply_us"), v("raft.stage.total_us"))
	flag := ""
	if p50 > 0 && v("client.residual_us") > 0.10*p50 {
		flag = "  UNEXPLAINED: over 10% of the client's p50"
	}
	fmt.Printf("  client update p50 %.0fus - stage total %.0fus - 2 x hop %.0fus = client.residual_us %.0fus%s\n",
		p50, v("raft.stage.total_us"), v("transport.mem_oneway_us"), v("client.residual_us"), flag)
}

// writeTrace writes one JSON object per line: the benchmark's own span
// around every client operation of the traced windows, then every
// request tree their causal trace collectors kept.
func writeTrace(path string, traced []*run) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range traced {
		for _, sp := range r.spans {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	for _, r := range traced {
		for _, tr := range r.taps.xtr.Traces() {
			if err := enc.Encode(tr); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
