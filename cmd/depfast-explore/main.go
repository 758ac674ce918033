// Command depfast-explore is the deterministic fail-slow schedule
// explorer: it enumerates fault schedules from a seed, drives a full
// cluster (single raft group or sharded deployment) through each one
// under an audit client population, and checks run invariants after
// every schedule — linearizability of acked operations, zero
// acked-write loss, blast-radius containment, sentinel convergence.
// Failing schedules are shrunk to a minimal repro whose one-line spec
// replays byte-for-byte.
//
//	depfast-explore -seed 1 -budget 200              # explore
//	depfast-explore -seed 1 -budget 50 -quick -v     # CI smoke
//	depfast-explore -replay "seed=3 topo=raft steps=5 | disk@1 s1,s3 x1"
//	depfast-explore -replay "<spec>" -shrink         # minimize a failure
//	depfast-explore -broken -budget 2 -shrink        # sentinel self-test
//
// Exit status is 1 when any schedule violated an invariant, so the
// broken self-test is asserted with `! depfast-explore -broken ...`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"depfast/internal/explore"
)

func main() {
	var (
		seed   = flag.Int64("seed", 1, "schedule enumeration seed")
		budget = flag.Int("budget", 50, "distinct schedules to explore")
		steps  = flag.Int("steps", 6, "logical steps per schedule")
		replay = flag.String("replay", "", "run this replay spec instead of exploring")
		shrink = flag.Bool("shrink", false, "shrink failing schedules to a minimal repro")
		broken = flag.Bool("broken", false, "use the deliberately mis-tuned sentinel (self-test: failures expected)")
		quick  = flag.Bool("quick", false, "CI-scale runs: shorter steps and audit population")
		asJSON = flag.Bool("json", false, "emit the report as JSON")
		bench  = flag.String("bench", "", "write exploration throughput benchmark JSON to this file")
		verb   = flag.Bool("v", false, "print each verdict as it lands")
	)
	flag.Parse()

	cfg := explore.RunnerConfig{}
	if *quick {
		cfg.StepDur = 50 * time.Millisecond
		cfg.AuditClients = 2
		cfg.Keys = 2
	}
	if *broken {
		cfg.Broken = true
		// Broken runs fail convergence by timeout; keep that cheap.
		cfg.ConvergeWait = 3 * time.Second
	}

	if *replay != "" {
		os.Exit(runReplay(*replay, cfg, *shrink, *asJSON))
	}
	os.Exit(runExplore(*seed, *budget, *steps, cfg, *shrink, *asJSON, *verb, *bench))
}

// runReplay executes one spec (optionally shrinking a failure) and
// returns the process exit code.
func runReplay(spec string, cfg explore.RunnerConfig, shrink, asJSON bool) int {
	s, err := explore.Parse(spec)
	exitOn(err)
	v, err := explore.Run(s, cfg)
	exitOn(err)
	if !v.Pass && shrink {
		min, mv, ok := explore.ShrinkFailure(s, cfg)
		if ok {
			fmt.Fprintf(os.Stderr, "shrunk to %d event(s): %s\n", len(min.Events), min.Spec())
			v = mv
		} else {
			fmt.Fprintln(os.Stderr, "failure did not reproduce; reporting the original run")
		}
	}
	if asJSON {
		printJSON(verdictJSON(v))
	} else {
		fmt.Println(v)
	}
	if v.Pass {
		return 0
	}
	return 1
}

// runExplore runs the budget and returns the process exit code.
func runExplore(seed int64, budget, steps int, cfg explore.RunnerConfig, shrink, asJSON, verb bool, benchPath string) int {
	onVerdict := func(i int, v explore.Verdict) {
		if verb {
			fmt.Fprintf(os.Stderr, "[%3d] %s\n", i, v)
		}
	}
	rep, err := explore.Explore(seed, budget, steps, cfg, onVerdict)
	exitOn(err)

	type shrunk struct {
		Spec     string   `json:"spec"`
		Events   int      `json:"events"`
		Failures []string `json:"failures"`
	}
	var minimal []shrunk
	if shrink {
		for _, f := range rep.Failures {
			min, mv, ok := explore.ShrinkFailure(f.Schedule, cfg)
			if !ok {
				fmt.Fprintf(os.Stderr, "failure did not reproduce, not shrinking: %s\n", f.Spec)
				continue
			}
			minimal = append(minimal, shrunk{Spec: min.Spec(), Events: len(min.Events), Failures: mv.Failures})
			fmt.Fprintf(os.Stderr, "shrunk to %d event(s): %s\n", len(min.Events), min.Spec())
		}
	}

	if asJSON {
		out := map[string]any{
			"seed":              rep.Seed,
			"schedules":         len(rep.Verdicts),
			"failed":            len(rep.Failures),
			"by_class":          rep.ByClass,
			"elapsed_ms":        rep.Elapsed.Milliseconds(),
			"check_ms":          rep.CheckDur.Milliseconds(),
			"schedules_per_sec": rep.SchedulesPerSec(),
			"coverage":          coverageJSON(rep.Coverage),
		}
		var vs []map[string]any
		for _, v := range rep.Verdicts {
			vs = append(vs, verdictJSON(v))
		}
		out["verdicts"] = vs
		if minimal != nil {
			out["shrunk"] = minimal
		}
		printJSON(out)
	} else {
		fmt.Print(rep)
	}

	if benchPath != "" {
		writeBench(benchPath, rep)
	}
	if rep.Passed() {
		return 0
	}
	return 1
}

// verdictJSON flattens one verdict for machine consumers.
func verdictJSON(v explore.Verdict) map[string]any {
	return map[string]any{
		"spec":        v.Spec,
		"class":       v.Schedule.Class,
		"pass":        v.Pass,
		"failures":    v.Failures,
		"ops":         v.Ops,
		"acked":       v.Acked,
		"lost":        len(v.Lost),
		"lin":         v.Lin.Verdict.String(),
		"lin_states":  v.Lin.States,
		"churned":     v.Churned,
		"transitions": coverageJSON(v.Transitions),
		"elapsed_ms":  v.Elapsed.Milliseconds(),
		"check_ms":    v.CheckDur.Seconds() * 1000,
	}
}

// coverageJSON renders a transition tally with every vocabulary kind
// present, zeros included — coverage is about what was NOT exercised.
func coverageJSON(tally map[string]int) map[string]int {
	out := make(map[string]int, len(explore.TransitionKinds))
	for _, kind := range explore.TransitionKinds {
		out[kind] = tally[kind]
	}
	return out
}

// writeBench records the exploration perf trajectory point CI tracks:
// throughput and invariant-check latency.
func writeBench(path string, rep explore.Report) {
	n := len(rep.Verdicts)
	checkMS := rep.CheckDur.Seconds() * 1000
	checkMean := 0.0
	if n > 0 {
		checkMean = checkMS / float64(n)
	}
	out := map[string]any{
		"name":              "explore",
		"seed":              rep.Seed,
		"schedules":         n,
		"elapsed_sec":       rep.Elapsed.Seconds(),
		"schedules_per_sec": rep.SchedulesPerSec(),
		"check_ms_total":    checkMS,
		"check_ms_mean":     checkMean,
	}
	b, err := json.MarshalIndent(out, "", "  ")
	exitOn(err)
	exitOn(os.WriteFile(path, append(b, '\n'), 0o644))
	fmt.Fprintf(os.Stderr, "bench written to %s\n", path)
}

func printJSON(v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	exitOn(err)
	fmt.Println(string(b))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "depfast-explore:", err)
		os.Exit(2)
	}
}
