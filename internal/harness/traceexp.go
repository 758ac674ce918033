package harness

import (
	"fmt"
	"time"

	"depfast/internal/clock"
	"depfast/internal/failslow"
	"depfast/internal/obs"
	"depfast/internal/raft"
	"depfast/internal/xtrace"
	"depfast/internal/ycsb"
)

// TraceExpConfig parameterizes the tracing end-to-end experiment: a
// scripted leader disk fault under load, judged by whether the
// critical-path attribution blames the injected (node, resource), plus
// a paired measurement of tracing overhead at default sampling.
type TraceExpConfig struct {
	Clients        int
	ClientRuntimes int
	Warmup         time.Duration
	Window         time.Duration
	Records        int
	ValueSize      int
	Intensity      failslow.Intensity

	// SampleEvery is the head-sampling rate for the attribution phase
	// (1 = every request; the overhead phase always uses the collector
	// default).
	SampleEvery int

	// OverheadTrials is how many traced/untraced run pairs to measure;
	// the reported ratio compares the best of each (0 = skip).
	OverheadTrials int

	Recorder *obs.Recorder
	Seed     int64
}

// DefaultTraceExpConfig returns the scaled-down scripted scenario.
func DefaultTraceExpConfig() TraceExpConfig {
	return TraceExpConfig{
		Clients:        12,
		ClientRuntimes: 4,
		Warmup:         700 * time.Millisecond,
		Window:         1500 * time.Millisecond,
		Records:        2000,
		ValueSize:      100,
		Intensity:      failslow.DefaultIntensity(),
		SampleEvery:    2,
		OverheadTrials: 3,
		Seed:           42,
	}
}

// TraceExpResult is the experiment's verdict.
type TraceExpResult struct {
	Leader string

	// Attribution phase: how many traces the window kept, how many the
	// deadline promoted, and what fraction of the promoted ones blame
	// (leader, disk) — the injected fault — as their top critical-path
	// contributor.
	Kept          int
	Tail          int
	Matched       int
	MatchFraction float64
	Attribution   xtrace.Attribution

	// Overhead phase: best-of-trials throughput with tracing at the
	// default sampling rate vs with tracing disabled entirely.
	TracedTput    float64
	PlainTput     float64
	OverheadRatio float64
}

// String renders a summary.
func (r TraceExpResult) String() string {
	s := fmt.Sprintf("trace-exp: leader=%s kept=%d tail=%d matched=%d (%.0f%%)",
		r.Leader, r.Kept, r.Tail, r.Matched, r.MatchFraction*100)
	if r.OverheadRatio > 0 {
		s += fmt.Sprintf("  overhead: traced=%.0f plain=%.0f op/s ratio=%.3f",
			r.TracedTput, r.PlainTput, r.OverheadRatio)
	}
	return s
}

// RunTraceExperiment drives the tracing plane end to end. Phase one
// answers "does the blame land where the fault is": a healthy warmup
// settles the promotion deadline, the deadline is then frozen, a
// DiskSlow fault lands on the leader, and every request the frozen
// deadline promotes is attributed — the top (node, resource) must be
// the leader's disk. The cluster runs unbatched so each request's
// write stall is its own span rather than a shared committer queue.
// Phase two answers "what does always-on tracing cost": paired traced
// and untraced fault-free runs at the collector's default sampling,
// compared best against best.
func RunTraceExperiment(cfg TraceExpConfig) (TraceExpResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 12
	}
	if cfg.ClientRuntimes <= 0 {
		cfg.ClientRuntimes = 4
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 2
	}
	col := xtrace.NewCollector(xtrace.Config{
		SampleEvery: cfg.SampleEvery,
		MaxRetained: 2048,
	})
	rec := cfg.Recorder
	workload := ycsb.PaperWrite(cfg.Records, cfg.ValueSize)
	rcfg := RunConfig{
		System:         DepFastRaft,
		Nodes:          3,
		Clients:        cfg.Clients,
		ClientRuntimes: cfg.ClientRuntimes,
		Records:        cfg.Records,
		ValueSize:      cfg.ValueSize,
		Workload:       &workload,
		Seed:           cfg.Seed,
		Recorder:       rec,
		XTracer:        col,
		// A tight dirty-append bound makes the leader's slow disk stall
		// the write path promptly instead of hiding behind 64 entries of
		// slack — the scripted fault should dominate every slow request.
		// QuorumDiscard would let the stalled leader cancel follower
		// backlog, making followers reject later appends on log mismatch
		// and turning each slow request into a NotLeader retry storm the
		// client's backoff owns; keeping delivery in-order leaves the
		// disk stall as each slow request's own dominant wait.
		RaftMutate: func(rc *raft.Config) {
			rc.MaxDirtyAppends = 4
			rc.QuorumDiscard = false
			// A 16-message send window rejects fan-out instantly during a
			// stall burst (two instant rejects veto the quorum before the
			// network is even touched); give bursts room to queue instead.
			rc.OutboxWindow = 256
		},
	}

	res := TraceExpResult{}
	h, err := buildCluster(rcfg, nil)
	if err != nil {
		return res, err
	}
	leader, err := h.waitLeader(15 * time.Second)
	if err != nil {
		h.stop()
		return res, err
	}
	res.Leader = leader

	pool := startClients(h, rcfg, leader, nil)
	stopSampler := startSampler(rec, pool, h, nil, col)

	phase(rec, "warmup")
	clock.Precise(cfg.Warmup)
	// Freeze the promotion deadline at its healthy-warmup value: once
	// the fault lands, every slowed request overshoots a bar derived
	// from how the cluster behaved when it was well.
	col.SetDeadline(col.Deadline())
	col.Reset()

	phase(rec, "inject")
	failslow.ApplyObserved(rec, h.envs[leader], failslow.DiskSlow, cfg.Intensity)
	phase(rec, "measure")
	pool.measureFor(cfg.Window)
	phase(rec, "measure-end")

	pool.stop()
	stopSampler()
	pool.close()
	h.stop()

	tail := col.TailTraces()
	res.Kept = len(col.Traces())
	res.Tail = len(tail)
	res.Attribution = xtrace.Attribute(tail)
	for _, t := range tail {
		node, r, _, ok := xtrace.TopBlame(t)
		if ok && node == leader && r == xtrace.Disk {
			res.Matched++
		}
	}
	if res.Tail > 0 {
		res.MatchFraction = float64(res.Matched) / float64(res.Tail)
	}

	// Overhead: identical fault-free runs, tracing on (default
	// sampling) vs off, best of cfg.OverheadTrials each. Best-vs-best
	// compares the configurations' capability rather than scheduler
	// luck on any one run.
	for i := 0; i < cfg.OverheadTrials; i++ {
		ocfg := DefaultRunConfig(DepFastRaft)
		ocfg.Clients = cfg.Clients
		ocfg.ClientRuntimes = cfg.ClientRuntimes
		ocfg.Warmup = 300 * time.Millisecond
		ocfg.Duration = 700 * time.Millisecond
		ocfg.Seed = cfg.Seed + int64(i)
		ocfg.XTracer = xtrace.NewCollector(xtrace.Config{})
		traced, err := Run(ocfg)
		if err != nil {
			return res, err
		}
		ocfg.XTracer = nil
		plain, err := Run(ocfg)
		if err != nil {
			return res, err
		}
		if traced.Throughput > res.TracedTput {
			res.TracedTput = traced.Throughput
		}
		if plain.Throughput > res.PlainTput {
			res.PlainTput = plain.Throughput
		}
	}
	if res.PlainTput > 0 {
		res.OverheadRatio = res.TracedTput / res.PlainTput
	}
	return res, nil
}
