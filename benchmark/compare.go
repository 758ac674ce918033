package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) gives them, which is what the benchmark
// driver computes; v holds at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles of the values as a share
// of their median, the driver's measure of run-to-run noise; 0 for a
// single value.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}

// worsening is how much worse new is than old, as a share of old;
// negative when new is better.
func worsening(old, new float64, better string) float64 {
	if old == 0 {
		return 0
	}
	if better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// verdict judges one metric of one workload: UNRESOLVED when either
// side's own runs spread by more than the bound, so the difference
// cannot be told from noise; REGRESSION when new's median is worse than
// old's by more than the bound; PASS otherwise.
func verdict(old, new []float64, m specMetric) string {
	switch {
	case spread(old) > m.Bound || spread(new) > m.Bound:
		return "UNRESOLVED"
	case worsening(median(old), median(new), m.Better) > m.Bound:
		return "REGRESSION"
	}
	return "PASS"
}

// compareFiles prints, per workload and end-to-end metric, both
// reports' medians, the change relative to the old one, and the
// verdict against the bound in BENCHMARK.json. Exit code 1 on any
// regression or failed operation.
func compareFiles(oldPath, newPath string) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	oldRep, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("old: %s (commit %s, seed %d)\nnew: %s (commit %s, seed %d)\n",
		oldPath, oldRep.Stamp.Commit, oldRep.Stamp.Seed, newPath, newRep.Stamp.Commit, newRep.Stamp.Seed)
	fmt.Printf("%-16s %-11s %5s %12s %12s %9s %7s  %s\n", "workload", "metric", "runs", "old", "new", "worse by", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		ow, nw := oldRep.Runs[w.name], newRep.Runs[w.name]
		if len(ow) == 0 || len(nw) == 0 {
			fmt.Printf("%-16s missing from one report\n", w.name)
			code = 1
			continue
		}
		for _, m := range sp.EndToEnd {
			o, n := values(ow, m.Name), values(nw, m.Name)
			v := verdict(o, n, m)
			if v == "REGRESSION" {
				code = 1
			}
			om, nm := median(o), median(n)
			fmt.Printf("%-16s %-11s %2d/%-2d %12.3f %12.3f %+8.1f%% %6.0f%%  %s\n", w.name, m.Name, len(o), len(n),
				om, nm, 100*worsening(om, nm, m.Better), 100*m.Bound, v)
		}
		for _, l := range nw {
			if !l.Correct {
				fmt.Printf("%-16s a run of the new report failed %d of %d operations or a correctness check\n",
					w.name, l.Failed, l.Attempted)
				code = 1
			}
		}
	}
	return code
}

// printSpreads prints, after several runs of the same code, each
// metric's spread beside its bound.
func printSpreads(rep *report) {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: no bounds to print spreads against:", err)
		return
	}
	fmt.Printf("\n# A/A: the same code on %d seeds; spread = quartile distance / median\n", len(rep.Runs[workloads[0].name]))
	fmt.Printf("%-16s %-11s %12s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			v := values(rep.Runs[w.name], m.Name)
			note := ""
			if spread(v) > m.Bound/3 {
				note = "  over a third of the bound"
			}
			fmt.Printf("%-16s %-11s %12.3f %8.2f%% %6.0f%%%s\n", w.name, m.Name, median(v), 100*spread(v), 100*m.Bound, note)
		}
	}
}
