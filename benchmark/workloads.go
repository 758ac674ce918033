package main

import (
	"fmt"
	"time"

	"depfast/internal/clock"
	"depfast/internal/failslow"
	"depfast/internal/ycsb"
)

// workload is one traffic mix against the system under test.
type workload struct {
	name    string
	open    bool    // open loop at rate, else closed loop with clients
	clients int     // closed loop: logical clients
	rate    float64 // open loop: requests per second
	mix     ycsb.Workload
	faults  bool // run the follower fault script during the window
}

const (
	// putClients is twice the leader's 16-slot replication window
	// (raft.Config.OutboxWindow): update throughput stops rising at 32
	// clients because the window, not a processor, is full.
	putClients = 32
	// readClients is where read_mostly's throughput stops rising because
	// the leader's runtime thread is busy all the time (README.md has
	// the sweep).
	readClients = 256
	pacedRate   = 500 // about a quarter of put_sat's throughput
)

func updates() ycsb.Workload { return ycsb.PaperWrite(records, valueSize) }

func ycsbB() ycsb.Workload {
	w := ycsb.WorkloadB()
	w.Records, w.ValueSize = records, valueSize
	return w
}

// workloads are the four the benchmark runs; BENCHMARK.json and the
// README say why each exists.
var workloads = []workload{
	{name: "put_sat", clients: putClients, mix: updates()},
	{name: "put_paced", open: true, rate: pacedRate, mix: updates()},
	{name: "read_mostly", clients: readClients, mix: ycsbB()},
	{name: "follower_faults", open: true, rate: pacedRate, mix: updates(), faults: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phase is one stretch of the follower fault script.
type phase struct {
	name     string
	fault    failslow.Fault
	from, to time.Duration
}

// faultScript splits a window into a healthy fifth followed by six
// equal fault phases (4s + 6×2.67s of the 20s window), each injected on
// a clean environment.
func faultScript(length time.Duration) []phase {
	kinds := []struct {
		name  string
		fault failslow.Fault
	}{
		{"none", failslow.None},
		{"cpu", failslow.CPUSlow},
		{"cpucontend", failslow.CPUContention},
		{"mem", failslow.MemContention},
		{"disk", failslow.DiskSlow},
		{"diskcontend", failslow.DiskContention},
		{"net", failslow.NetSlow},
	}
	healthy := length / 5
	each := (length - healthy) / time.Duration(len(kinds)-1)
	out := []phase{{name: "none", fault: failslow.None, to: healthy}}
	for i, k := range kinds[1:] {
		from := healthy + time.Duration(i)*each
		out = append(out, phase{name: k.name, fault: k.fault, from: from, to: from + each})
	}
	out[len(out)-1].to = length
	return out
}

// runOpts are the knobs of one run of one workload.
type runOpts struct {
	seed   int64
	warm   time.Duration
	length time.Duration
	setups int   // set up this many times; setup_s is their median
	taps   *taps // non-nil for the traced window
}

// run is the outcome of one workload run.
type run struct {
	win       window
	lat       []int64   // sorted latencies of the window, failures on top
	epoch     time.Time // start of the measured window
	length    time.Duration
	setup     []float64 // seconds, one per set-up
	attempted int
	failed    int
	lateness  []int64 // open loop, ns
	backlog   int
	bad       []string           // correctness violations
	layer     map[string]float64 // traced window only: per-layer metrics
	spans     []opSpan
	taps      *taps
}

// metricTick is how often the main goroutine wakes during a window to
// apply the fault script and sample gauges.
const metricTick = 100 * time.Millisecond

// runWorkload sets the system up, loads it with w for warm + length,
// checks correctness and tears everything down.
func runWorkload(w workload, o runOpts) (*run, error) {
	r := &run{length: o.length, taps: o.taps}
	var c *cluster
	for i := 0; i < o.setups; i++ {
		if c != nil {
			c.stop()
		}
		var took time.Duration
		var err error
		if c, took, err = setUp(o.taps); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		r.setup = append(r.setup, took.Seconds())
	}
	defer c.stop()

	electionsBefore := c.elections()
	begin := time.Now()
	epoch := begin.Add(o.warm)
	r.epoch = epoch
	ld := newLoad(c, w.mix, epoch)
	if w.open {
		share := w.rate / float64(len(c.lanes))
		for i, l := range c.lanes {
			ld.openLoop(l, schedule(w.mix, share, o.warm+o.length, clientSeed(o.seed, i)), begin)
		}
	} else {
		ld.closedLoop(w.clients, o.seed)
	}
	au := startAudit(ld, o.seed)

	clock.Precise(time.Until(epoch))
	var script []phase
	if w.faults {
		script = faultScript(o.length)
	}
	target := c.servers[c.follower()].Env()
	obsv := startObserver(c, o.taps)
	next := 0
	for now := time.Duration(0); now < o.length; now = time.Since(epoch) {
		if next < len(script) && now >= script[next].from {
			failslow.Apply(target, script[next].fault, failslow.DefaultIntensity())
			next++
		}
		obsv.sample()
		clock.Precise(min(metricTick, o.length-now))
	}
	failslow.Clear(target)
	counts := obsv.finish()
	ld.finish()

	for _, l := range c.lanes {
		r.win.all = append(r.win.all, l.samples...)
		r.lateness = append(r.lateness, l.late...)
		r.spans = append(r.spans, l.spans...)
		if l.backlog > r.backlog {
			r.backlog = l.backlog
		}
	}
	r.win.length, r.win.open = o.length, w.open
	r.lat = r.win.latencies(0, o.length)
	r.attempted = len(r.lat)
	for _, v := range r.lat {
		if v == failedLatency {
			r.failed++
		}
	}
	r.bad = au.check(!w.faults, c.elections()-electionsBefore)
	r.failed += au.errored
	r.attempted += au.errored
	if o.taps != nil {
		r.layer = foldTraced(r, c, counts, script)
	}
	return r, nil
}

// endToEnd returns the metrics a client of the system sees.
func (r *run) endToEnd() map[string]float64 {
	return map[string]float64{
		"tput_ops_s": float64(r.win.completed(0, r.length)) / r.length.Seconds(),
		"p50_ms":     ms(quantile(r.lat, 0.50)),
		"p99_ms":     ms(quantile(r.lat, 0.99)),
		"setup_s":    median(r.setup),
	}
}

// failRatio is (errors + timeouts + wrong answers) / attempted.
func (r *run) failRatio() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}
