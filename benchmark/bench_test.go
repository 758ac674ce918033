package main

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"depfast/internal/core"
	"depfast/internal/kv"
	"depfast/internal/raft"
	"depfast/internal/xtrace"
	"depfast/internal/ycsb"
)

// TestSpecMatchesCode holds BENCHMARK.json and the benchmark's own
// lists together: same workloads, same metrics, same units.
func TestSpecMatchesCode(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(names), len(workloads))
	}
	want := make(map[string]string)
	for _, d := range endToEndMetrics {
		want[d.name] = d.unit
	}
	checkMetrics(t, "end_to_end", sp.EndToEnd, want)
	want = maps.Clone(tracedUnits)
	for n, u := range rungUnits {
		want[n] = u
	}
	checkMetrics(t, "per_layer", sp.PerLayer, want)
}

func checkMetrics(t *testing.T, list string, got []specMetric, want map[string]string) {
	t.Helper()
	seen := make(map[string]bool)
	for _, m := range got {
		if seen[m.Name] {
			t.Errorf("%s: %s listed twice", list, m.Name)
		}
		seen[m.Name] = true
		if u, ok := want[m.Name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but the benchmark does not emit it", list, m.Name)
		} else if u != m.Unit {
			t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the benchmark", list, m.Name, m.Unit, u)
		}
	}
	for n := range want {
		if !seen[n] {
			t.Errorf("%s: the benchmark emits %s but BENCHMARK.json does not list it", list, n)
		}
	}
}

// TestSmoke makes the -quick -trace 0 and -trace 1 runs of every
// workload and checks that each metric BENCHMARK.json names comes out
// once, with its unit and a finite value, and that nothing failed. The
// four workloads run side by side to keep `go test ./...` short: the
// numbers mean nothing here, only their presence is checked.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up twelve clusters")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	p := planFor(0, true)
	type pair struct {
		plain, traced *measured
		err           error
	}
	results := make([]pair, len(workloads))
	var wg sync.WaitGroup
	for i, w := range workloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[i]
			if r.plain, r.err = measure(w, 1, p, false); r.err == nil {
				r.traced, r.err = measure(w, 1, p, true)
			}
		}()
	}
	wg.Wait()
	for i, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if results[i].err != nil {
				t.Fatal(results[i].err)
			}
			plain, traced := results[i].plain, results[i].traced
			for _, m := range []*measured{plain, traced} {
				// Elections are not asserted here: under a loaded `go test
				// ./...` a heartbeat can miss its deadline.
				for _, b := range m.bad {
					if !strings.Contains(b, "elections on a healthy workload") && !strings.Contains(b, "the leader moved") {
						t.Errorf("violation: %s", b)
					}
				}
				if m.line.Failed != 0 {
					t.Errorf("%d of %d operations failed", m.line.Failed, m.line.Attempted)
				}
				if m.line.Attempted == 0 {
					t.Error("no operations attempted")
				}
			}
			checkLine(t, "end-to-end", plain.line, sp.EndToEnd, true)
			checkLine(t, "per-layer", traced.line, sp.PerLayer, false)
			if traced.line.Metrics["raft.stage.spans"].Value == 0 {
				t.Error("traced window folded no commit spans")
			}
			if len(traced.traced.spans) == 0 {
				t.Error("traced window kept none of the benchmark's own spans")
			}
		})
	}
}

// checkLine holds one result line against the metrics BENCHMARK.json
// lists for it.
func checkLine(t *testing.T, list string, line resultLine, want []specMetric, positive bool) {
	t.Helper()
	for _, m := range want {
		v, ok := line.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (positive && v.Value <= 0) {
			t.Errorf("%s %s = %+v (present %v), want unit %q", list, m.Name, v, ok, m.Unit)
		}
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%d %s metrics emitted, BENCHMARK.json names %d", len(line.Metrics), list, len(want))
	}
}

// TestQuantileMatchesOracle compares the nearest-rank code with a
// definition-level oracle: the smallest sample that at least q of all
// samples do not exceed.
func TestQuantileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63n(50) // many ties
		}
		sorted := sortedCopy(v)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			var want int64 = math.MaxInt64
			for _, x := range v {
				atOrBelow := 0
				for _, y := range v {
					if y <= x {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(n) && x < want {
					want = x
				}
			}
			if got := quantile(sorted, q); got != want {
				t.Fatalf("n=%d q=%v: quantile %d, oracle %d", n, q, got, want)
			}
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty input must give 0")
	}
}

// TestFailuresCountAsTail: a failed operation sorts above every
// latency, so one failure in a hundred is the 99.5th percentile.
func TestFailuresCountAsTail(t *testing.T) {
	w := window{length: time.Second}
	for i := 0; i < 99; i++ {
		w.all = append(w.all, sample{start: int64(i) * 1e6, lat: 1e6})
	}
	w.all = append(w.all, sample{start: 5e8, lat: 1e6, failed: true})
	lat := w.latencies(0, w.length)
	if got := quantile(lat, 0.99); got != 1e6 {
		t.Errorf("p99 = %d, want the 99th of 100 samples, a real latency", got)
	}
	if got := quantile(lat, 0.995); got != failedLatency {
		t.Errorf("p99.5 = %d, want the failure", got)
	}
	if w.completed(0, w.length) != 99 {
		t.Errorf("completed = %d, want 99", w.completed(0, w.length))
	}
}

// TestOpenLoopChargesStallToDueRequests stalls an open-loop lane for
// 50ms and checks that the requests due during the stall carry it:
// their latency runs from the instant they were due, not from when the
// generator got to them.
func TestOpenLoopChargesStallToDueRequests(t *testing.T) {
	const (
		rate    = 1000.0
		span    = 400 * time.Millisecond
		stallAt = 150 * time.Millisecond
		stall   = 50 * time.Millisecond
		service = time.Millisecond
	)
	l := &lane{rt: core.NewRuntime("open-loop-test")}
	defer l.rt.Stop()
	begin := time.Now().Add(20 * time.Millisecond)
	ld := newLoad(&cluster{lanes: []*lane{l}}, updates(), begin)
	ld.exec = func(co *core.Coroutine, _ *raft.Client, _ kv.Command, _ xtrace.Context) (kv.Result, error) {
		return kv.Result{}, co.Sleep(service)
	}
	ld.openLoop(l, schedule(updates(), rate, span, 3), begin)
	time.Sleep(time.Until(begin.Add(stallAt)))
	// Hold the lane's baton: nothing on this runtime runs for 50ms.
	stalledAt := make(chan time.Time, 1)
	l.rt.Post(func() {
		stalledAt <- time.Now()
		time.Sleep(stall)
	})
	from := (<-stalledAt).Sub(begin)
	ld.wg.Wait()

	if len(l.samples) != int(rate*span.Seconds()) {
		t.Fatalf("%d samples, want every scheduled request", len(l.samples))
	}
	to := from + stall
	during, charged := 0, 0
	var worst, calm time.Duration
	for _, s := range l.samples {
		due, lat := time.Duration(s.start), time.Duration(s.lat)
		switch {
		case due >= from && due < to:
			during++
			// Due at `due`, it cannot have been issued before the stall
			// ended at `to`.
			if lat >= to-due {
				charged++
			}
			if lat > worst {
				worst = lat
			}
		case due < from-10*time.Millisecond || due > to+50*time.Millisecond:
			if lat > calm {
				calm = lat
			}
		}
	}
	if during < 30 {
		t.Fatalf("only %d requests were due during the stall", during)
	}
	if charged != during {
		t.Errorf("%d of %d requests due during the stall were charged the rest of it", charged, during)
	}
	if worst < stall*8/10 {
		t.Errorf("worst latency of a request due during the stall is %v, want about %v", worst, stall)
	}
	if calm > stall/2 {
		t.Errorf("a request due well away from the stall took %v", calm)
	}
	if late := time.Duration(quantile(sortedCopy(l.late), 1)); late < stall*8/10 {
		t.Errorf("largest generator lateness %v, want about %v", late, stall)
	}
}

// TestSameSeedSameRequests: the request sequence is a function of the
// seed alone.
func TestSameSeedSameRequests(t *testing.T) {
	a := schedule(ycsbB(), 250, 2*time.Second, 11)
	b := schedule(ycsbB(), 250, 2*time.Second, 11)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different open-loop schedules")
	}
	if len(a) != 500 {
		t.Errorf("schedule has %d arrivals, want rate x span = 500", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].due < a[j].due }) {
		t.Error("schedule is not in due order")
	}
	if reflect.DeepEqual(a, schedule(ycsbB(), 250, 2*time.Second, 12)) {
		t.Error("different seeds, same schedule")
	}
	// Closed loop: each logical client draws from its own seeded
	// generator.
	for ci := 0; ci < 3; ci++ {
		g1 := ycsb.NewGenerator(ycsbB(), clientSeed(11, ci))
		g2 := ycsb.NewGenerator(ycsbB(), clientSeed(11, ci))
		other := ycsb.NewGenerator(ycsbB(), clientSeed(11, ci+1))
		same, differs := true, false
		for i := 0; i < 200; i++ {
			o1, o2, o3 := g1.Next(), g2.Next(), other.Next()
			if o1.Type != o2.Type || o1.Key != o2.Key {
				same = false
			}
			if o1.Key != o3.Key {
				differs = true
			}
		}
		if !same || !differs {
			t.Errorf("client %d: same seed repeats %v, neighbouring client differs %v", ci, same, differs)
		}
	}
}

// TestFaultScriptCoversWindow: a healthy fifth, then six equal phases
// to the end of the window.
func TestFaultScriptCoversWindow(t *testing.T) {
	sc := faultScript(30 * time.Second)
	if len(sc) != 7 || sc[0].to != 6*time.Second || sc[6].to != 30*time.Second {
		t.Fatalf("script %+v", sc)
	}
	for i := 1; i < len(sc); i++ {
		if sc[i].from != sc[i-1].to || sc[i].to-sc[i].from != 4*time.Second {
			t.Errorf("phase %s runs %v to %v", sc[i].name, sc[i].from, sc[i].to)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(v, n=4) returns, since the driver judges the
// benchmark's noise with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 7, 4, 1}, 1.5, 8.5},
		{[]float64{3, 5}, 2.5, 5.5},
		{[]float64{12.4, 12.5, 12.45}, 12.4, 12.5},
	} {
		if q1, q3 := quartiles(c.v); math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if spread([]float64{7}) != 0 {
		t.Error("one value has no spread")
	}
}

// TestVerdicts pins the three outcomes of -compare.
func TestVerdicts(t *testing.T) {
	lower := specMetric{Better: "lower", Bound: 0.10}
	higher := specMetric{Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		old, new []float64
		m        specMetric
		want     string
	}{
		{[]float64{10}, []float64{10.9}, lower, "PASS"},
		{[]float64{10}, []float64{11.5}, lower, "REGRESSION"},
		{[]float64{10}, []float64{5}, lower, "PASS"},
		{[]float64{2000}, []float64{1700}, higher, "REGRESSION"},
		{[]float64{2000}, []float64{2500}, higher, "PASS"},
		{[]float64{10, 12}, []float64{10}, lower, "UNRESOLVED"},
	} {
		if got := verdict(c.old, c.new, c.m); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.old, c.new, c.m.Better, got, c.want)
		}
	}
}
