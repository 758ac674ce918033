// Package hedge is the request-path speculation layer: it turns the
// fail-slow detector's signals into per-request decisions instead of
// (only) mitigation actions. The paper argues fail-slow tolerance
// must live in the programming model; the sentinel closes the loop in
// seconds (detect → quarantine → transfer), but every request in
// flight during an *undetected* episode still eats the full tail.
// A Hedger closes that gap: it derives a per-peer deadline from the
// same EWMA evidence the detector keeps, and when a request's first
// attempt overruns it, the caller launches one speculative second
// attempt — to a different replica for reads, through the
// exactly-once session table for writes — takes the first success,
// and abandons the loser. A ratio token bucket (Budget) bounds the
// extra load so speculation on a healthy cluster stays under a
// configured waste cap.
package hedge

import (
	"time"

	"depfast/internal/detect"
	"depfast/internal/metrics"
	"depfast/internal/obs"
)

// minSamples is how many round trips the client-side detector needs
// before it judges a peer: a client should start hedging within its
// first handful of requests, not after a server-grade observation
// window.
const minSamples = 8

// Config tunes a Hedger.
type Config struct {
	// BudgetRatio / BudgetBurst parameterize the token bucket
	// (defaults 0.1 / 8): hedges ≤ ratio × requests + burst.
	BudgetRatio float64
	BudgetBurst float64
	// SpeculativeWrites enables hedged re-proposal of mutating
	// commands. Safe only against servers with session dedup (PR 5's
	// exactly-once machinery); reads are always hedgeable.
	SpeculativeWrites bool
	// Node names the emitting client on flight-recorder events.
	Node string
	// Recorder, when set, receives HedgeFired/HedgeWon/HedgeCancelled
	// events. Nil disables emission at zero cost.
	Recorder *obs.Recorder
}

// Hedger owns the client-side speculation state: a detector fed with
// client-observed RTTs, the hedge budget, and the outcome counters.
// Safe for concurrent use; one Hedger may back many clients.
type Hedger struct {
	cfg    Config
	det    *detect.Detector
	budget *Budget
	rec    *obs.Recorder

	// Counters, attachable to a metrics.Registry.
	Fired     *metrics.Counter // hedges launched
	Won       *metrics.Counter // hedge answered first
	Wasted    *metrics.Counter // primary answered first; hedge abandoned
	Exhausted *metrics.Counter // hedge wanted but budget empty
	PutRetry  *metrics.Counter // hedges that were speculative write re-proposals
}

// New returns a hedger; zero-value cfg fields take defaults.
func New(cfg Config) *Hedger {
	return &Hedger{
		cfg:       cfg,
		det:       detect.New(minSamples),
		budget:    NewBudget(cfg.BudgetRatio, cfg.BudgetBurst),
		rec:       cfg.Recorder,
		Fired:     metrics.NewCounter("hedge.fired"),
		Won:       metrics.NewCounter("hedge.won"),
		Wasted:    metrics.NewCounter("hedge.wasted"),
		Exhausted: metrics.NewCounter("hedge.budget_exhausted"),
		PutRetry:  metrics.NewCounter("hedge.put_retry"),
	}
}

// SetCorroborator forwards trace-derived blame shares
// (xtrace.Collector.BlameShare) to the underlying detector, so
// request-path evidence flexes the client's suspicion thresholds
// exactly as it does the server-side detector's.
func (h *Hedger) SetCorroborator(fn func(peer string) (float64, bool)) {
	h.det.SetCorroborator(fn)
}

// Detector exposes the underlying client-side detector.
func (h *Hedger) Detector() *detect.Detector { return h.det }

// SpeculativeWrites reports whether mutating commands may be hedged.
func (h *Hedger) SpeculativeWrites() bool { return h.cfg.SpeculativeWrites }

// Observe folds one client-observed call outcome into the detector.
func (h *Hedger) Observe(peer string, rtt time.Duration, timedOut bool) {
	h.det.Observe(peer, rtt, timedOut)
}

// NoteRequest accrues one request's worth of hedge budget; call once
// per logical request.
func (h *Hedger) NoteRequest() { h.budget.NoteRequest() }

// Healthy reports whether peer is currently unsuspected — the "never
// hedge to a currently-suspected peer" gate.
func (h *Hedger) Healthy(peer string) bool { return h.det.Healthy(peer) }

// Deadline returns the detector-informed hedge deadline for an
// attempt against peer (detect.Detector.DeadlineHint). ok is false
// until the detector has enough samples to estimate — callers then
// skip hedging rather than guess.
func (h *Hedger) Deadline(peer string) (time.Duration, bool) {
	return h.det.DeadlineHint(peer)
}

// TryFire asks to launch one hedge against target: it spends a budget
// token and records the launch. False means the budget is exhausted
// (counted) and the caller must keep waiting on the primary alone.
// kind annotates the flight-recorder event ("read" or "write").
func (h *Hedger) TryFire(primary, target, kind string) bool {
	if !h.budget.TryTake() {
		h.Exhausted.Inc()
		return false
	}
	h.Fired.Inc()
	if kind == "write" {
		h.PutRetry.Inc()
	}
	h.rec.Emit(obs.Event{Type: obs.HedgeFired, Node: h.cfg.Node, Peer: target,
		Detail: kind + " slow=" + primary})
	return true
}

// NoteWon records a hedge answering before the primary.
func (h *Hedger) NoteWon(target string, latency time.Duration) {
	h.Won.Inc()
	h.rec.Emit(obs.Event{Type: obs.HedgeWon, Node: h.cfg.Node, Peer: target,
		Fields: map[string]float64{"latency_us": float64(latency.Microseconds())}})
}

// NoteWasted records the primary answering first: the hedge was
// unnecessary and is abandoned (cancelled).
func (h *Hedger) NoteWasted(target string) {
	h.Wasted.Inc()
	h.rec.Emit(obs.Event{Type: obs.HedgeCancelled, Node: h.cfg.Node, Peer: target,
		Detail: "primary won"})
}

// NoteCancelled records a hedge abandoned for any other reason (both
// sides timed out, or the hedge answered uselessly).
func (h *Hedger) NoteCancelled(target, why string) {
	h.rec.Emit(obs.Event{Type: obs.HedgeCancelled, Node: h.cfg.Node, Peer: target, Detail: why})
}

// Budget exposes the token bucket (tests, introspection).
func (h *Hedger) Budget() *Budget { return h.budget }
