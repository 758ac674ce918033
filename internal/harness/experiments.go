package harness

import (
	"fmt"
	"math"
	"strings"
	"time"

	"depfast/internal/env"
	"depfast/internal/failslow"
)

// figureReport cuts a paper figure — groups (systems or node counts) by
// condition (fault, or fault magnitude) — from group-major results,
// each group's no-fault cell first, and renders the paper's three
// panels: (a) throughput, (b) average latency, (c) P99 latency,
// normalized to the group's no-fault cell for Figure 1 and absolute for
// Figure 3. Each group's max drift is the largest relative deviation
// from that cell across all three metrics — the paper's "within 5%"
// claim for DepFastRaft.
func figureReport(title string, groups, conditions []string, rs []Result, normalized bool, note string) Report {
	panels := []struct {
		name string
		val  func(Stats) float64
		abs  func(Stats) string
	}{
		{"(a) Throughput", func(s Stats) float64 { return s.Tput },
			func(s Stats) string { return fmt.Sprintf("%7.0f/s", s.Tput) }},
		{"(b) Average Latency", func(s Stats) float64 { return float64(s.Mean) },
			func(s Stats) string { return fmt.Sprintf("%9v", s.Mean.Round(10*time.Microsecond)) }},
		{"(c) P99 Latency", func(s Stats) float64 { return float64(s.P99) },
			func(s Stats) string { return fmt.Sprintf("%9v", s.P99.Round(10*time.Microsecond)) }},
	}
	cell := func(g, c int) Result { return rs[g*len(conditions)+c] }
	rep := Report{Derived: map[string]float64{}}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	for _, panel := range panels {
		fmt.Fprintf(&b, "\n%s\n%-22s", panel.name, "condition \\ group")
		for _, g := range groups {
			fmt.Fprintf(&b, " %12s", g)
		}
		for f, condition := range conditions {
			fmt.Fprintf(&b, "\n%-22s", condition)
			for g, name := range groups {
				m := cell(g, f).Phase("measure").All
				norm := ratio(panel.val(m), panel.val(cell(g, 0).Phase("measure").All))
				if d := math.Abs(norm - 1); norm > 0 && d > rep.Derived["max_drift/"+name] {
					rep.Derived["max_drift/"+name] = d
				}
				text := panel.abs(m)
				if normalized {
					text = fmt.Sprintf("%7.2fx", norm)
				}
				if cell(g, f).LeaderCrashed {
					text += "!"
				}
				fmt.Fprintf(&b, " %12s", text)
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	for _, name := range groups {
		fmt.Fprintf(&b, "max drift %-12s: %5.1f%%%s\n", name, rep.Derived["max_drift/"+name]*100, note)
	}
	rep.Text = b.String()
	return rep
}

// Table1Row is one fault-catalog entry with its measured effect.
type Table1Row struct {
	Fault     failslow.Fault
	Injection string
	// Measured service-time stretch factors on a probe node.
	ComputeFactor float64
	DiskFactor    float64
	NetFactor     float64
}

// Table1 reproduces the paper's Table 1: the simulated fault catalog,
// with the measured stretch each fault applies to the affected
// resource (the cgroup/tc substitution made concrete).
func Table1() []Table1Row {
	rows := make([]Table1Row, 0, len(failslow.All))
	for _, f := range failslow.All {
		probe := env.New("probe", env.DefaultConfig())
		healthyCompute := probe.ComputeCost(time.Millisecond)
		healthyDisk := probe.DiskWriteCost(4096)
		healthyNet := probe.NetDelay()

		failslow.Apply(probe, f, failslow.DefaultIntensity())
		if f == failslow.MemContention {
			probe.TrackAlloc(64 << 20) // representative resident set
		}
		// Average over draws: the contention faults are probabilistic.
		const draws = 200
		var compute, disk time.Duration
		for i := 0; i < draws; i++ {
			compute += probe.ComputeCost(time.Millisecond)
			disk += probe.DiskWriteCost(4096)
		}
		rows = append(rows, Table1Row{
			Fault:         f,
			Injection:     f.Injection(),
			ComputeFactor: float64(compute/draws) / float64(healthyCompute),
			DiskFactor:    float64(disk/draws) / float64(healthyDisk),
			NetFactor:     float64(probe.NetDelay()) / float64(healthyNet),
		})
	}
	return rows
}

// RenderTable1 formats the fault catalog.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("== Table 1: simulated fail-slow faults and measured resource stretch ==\n")
	fmt.Fprintf(&b, "%-20s %9s %9s %9s  %s\n",
		"FAULT", "CPU x", "DISK x", "NET x", "INJECTION")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %9.2f %9.2f %9.2f  %s\n",
			r.Fault, r.ComputeFactor, r.DiskFactor, r.NetFactor, r.Injection)
	}
	return b.String()
}
