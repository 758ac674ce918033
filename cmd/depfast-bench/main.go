// Command depfast-bench regenerates the paper's evaluation artifacts
// and the extension experiments. Every experiment is a row of the
// harness table (internal/harness/rows.go) run by one engine:
//
//	depfast-bench -exp table1    # one row (names: depfast-bench -h)
//	depfast-bench -exp all       # every row, paper order first
//	depfast-bench -exp hedge -quick -out BENCH_hedge.json
//	depfast-bench -exp figure2 -dot spg.dot -waits run.jsonl
//
// One-off custom runs:
//
//	depfast-bench -exp run -system BufferRSM -fault net \
//	    -workload "recordcount=1000,readproportion=0.95,updateproportion=0.05"
//
// A row whose gates fail exits 1 after printing what failed. Runs are
// scaled for a laptop: seconds per cell instead of the paper's minutes
// per Azure deployment. Shapes — who degrades, by roughly what factor,
// and that DepFastRaft stays within a few percent — are the
// reproduction target, not absolute numbers.
package main

import (
	"encoding/json"
	"errors"
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
	o := harness.DefaultOptions()
	var names, all []string // every row; every row -exp all runs (not the custom cell)
	for _, row := range harness.Rows {
		if names = append(names, row.Name); row.Name != "run" {
			all = append(all, row.Name)
		}
	}
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
		benchOut = flag.String("out", "", "write the experiment's result JSON to this file")
		quiet    = flag.Bool("quiet", false, "suppress per-run progress lines")
		timeline = flag.String("timeline", "", "write the flight-recorder timeline as JSONL to this file; analyze with depfast-report")
		waits    = flag.String("waits", "", "write the first traced run's wait records as JSONL to this file (figure2, verify); analyze with depfast-report")

		// -exp run flags.
		system   = flag.String("system", "DepFastRaft", "run: DepFastRaft|SyncRSM|BufferRSM|CallbackRSM")
		faultArg = flag.String("fault", "none", "run: none|cpu|cpucontend|mem|disk|diskcontend|net")
		workload = flag.String("workload", "", "run: YCSB property string or preset name (a-f, paper)")
	)
	flag.DurationVar(&o.Duration, "duration", o.Duration, "measurement window per cell")
	flag.DurationVar(&o.Warmup, "warmup", o.Warmup, "warmup before measuring")
	flag.IntVar(&o.Clients, "clients", o.Clients, "closed-loop client population")
	flag.IntVar(&o.Records, "records", o.Records, "YCSB record population")
	flag.StringVar(&o.Dot, "dot", "", "write the Figure 2 SPG as Graphviz DOT to this file")
	flag.BoolVar(&o.Quick, "quick", false, "shortened variant for smoke testing, on rows that have one")
	flag.IntVar(&o.Nodes, "nodes", o.Nodes, "run: cluster size")
	flag.Parse()

	var err error
	o.System, err = systemByName(*system)
	exitOn(err)
	o.Fault, err = faultByName(*faultArg)
	exitOn(err)
	if *workload != "" {
		wl, err := ycsb.Preset(*workload)
		if err != nil {
			wl, err = ycsb.Parse(*workload)
			exitOn(err)
		}
		o.Workload = &wl
	}
	if !*quiet {
		o.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	}
	// The flight recorder is shared by every run the invocation makes,
	// so a -timeline file holds one continuous event stream.
	if *timeline != "" {
		o.Recorder = obs.NewRecorder(0)
	}

	fmt.Printf("depfast-bench: host sleep floor %v (see internal/clock)\n\n",
		clock.SleepFloor().Round(10*time.Microsecond))

	rows := []string{*exp}
	if *exp == "all" {
		rows = all
	}
	failed := false
	var outcomes []harness.Outcome
	var col *trace.Collector // the first traced run's, for -waits
	for _, name := range rows {
		out, err := harness.RunRow(name, o)
		if errors.Is(err, harness.ErrUnknownRow) {
			fmt.Fprintln(os.Stderr, "depfast-bench:", err)
			flag.Usage()
			os.Exit(2)
		}
		exitOn(err)
		fmt.Println(out.Text)
		for _, gate := range out.Failed {
			fmt.Fprintln(os.Stderr, "FAIL:", gate)
			failed = true
		}
		if *benchOut != "" { // results hold their whole flight recording
			outcomes = append(outcomes, out)
		}
		for _, r := range out.Results {
			if col == nil {
				col = r.Collector
			}
		}
	}

	if *benchOut != "" {
		var v any = outcomes
		if len(outcomes) == 1 {
			v = outcomes[0]
		}
		b, err := json.MarshalIndent(v, "", "  ")
		exitOn(err)
		exitOn(os.WriteFile(*benchOut, append(b, '\n'), 0o644))
		fmt.Printf("results written to %s\n", *benchOut)
	}
	if *waits != "" {
		if col == nil {
			exitOn(fmt.Errorf("-waits: experiment %s runs no traced cell (figure2 and verify do)", *exp))
		}
		f, err := os.Create(*waits)
		exitOn(err)
		exitOn(trace.WriteJSON(f, col))
		exitOn(f.Close())
		fmt.Printf("waits: %d records (%d dropped) written to %s (analyze with: depfast-report %s)\n",
			col.Len(), col.Dropped(), *waits, *waits)
	}
	if o.Recorder != nil {
		f, err := os.Create(*timeline)
		exitOn(err)
		exitOn(obs.WriteRecorderJSONL(f, o.Recorder))
		exitOn(f.Close())
		fmt.Printf("timeline: %d events written to %s (analyze with: depfast-report %s)\n",
			o.Recorder.Len(), *timeline, *timeline)
	}
	if failed {
		os.Exit(1)
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
