// Package detect implements a fail-slow peer detector from runtime
// observations — the paper's §5 plan to "implement failure detectors
// based on those trace points". It consumes per-peer RPC round-trip
// times (via rpc.WithLatencyObserver) and flags peers whose smoothed
// latency inflates far beyond the healthy majority's.
//
// Detection is *relative*: a peer is suspected when its EWMA exceeds
// both an absolute floor and a multiple of the median peer's EWMA, so
// cluster-wide slowness (overload) is not misattributed to one node.
//
// Suspicion is sticky (a Schmitt trigger): a peer enters suspicion at
// 5× median and leaves only once its EWMA falls back to 2.5× median,
// so a peer hovering near the threshold doesn't flap. For mitigation the detector also tracks each peer's
// run of consecutive healthy round-trips (ConsecutiveHealthy), which
// recovers much faster than the EWMA after a fault clears.
package detect

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Detection constants. Every detector — a server's, a hedging
// client's — judges peers by the same rules; only minSamples differs
// (New). DESIGN.md "Detection constants" gives the reason for each.
const (
	// alpha is the EWMA weight of a new round-trip sample.
	alpha = 1.0 / 8
	// A peer enters suspicion once its EWMA exceeds suspectRatio ×
	// the median peer EWMA, and leaves it once the EWMA falls back to
	// releaseRatio × median or below: the hysteresis band between the
	// two keeps a peer hovering near the threshold from flapping.
	suspectRatio = 5
	releaseRatio = 2.5
	// recoveryRatio bounds a healthy individual round trip for the
	// consecutive-healthy streak: at or below recoveryRatio × median
	// (or below floor).
	recoveryRatio = 2
	// floor is the smallest EWMA considered abnormal at all; below it
	// a peer is never suspected regardless of ratios.
	floor = 2 * time.Millisecond
	// Trace corroboration (SetCorroborator). A peer whose
	// critical-path blame share is at least corroborateShare enters
	// suspicion at corroborateEase × suspectRatio × median; one whose
	// share is at most vetoShare must exceed vetoStretch ×
	// suspectRatio × median. Eased entry (3×) stays above release
	// (2.5×), so corroboration never closes the hysteresis band.
	corroborateShare = 0.3
	corroborateEase  = 0.6
	vetoShare        = 0.05
	vetoStretch      = 1.5
	// minTimeoutPenalty is the least latency charged for a timed-out
	// call; the charge is twice the peer's largest RTT so far when
	// that is larger.
	minTimeoutPenalty = 100 * time.Millisecond
	// A hedge deadline is hedgeMult × the larger of the peer's and the
	// median EWMA, clamped to [floor, maxHedgeDeadline]: a
	// microsecond-fast peer does not trigger hedges on scheduler
	// noise, and a degraded estimate cannot postpone speculation past
	// the RPC timeout.
	hedgeMult        = 2.5
	maxHedgeDeadline = 500 * time.Millisecond
)

// peerState is one peer's smoothed view.
type peerState struct {
	rtt      EWMA // nanoseconds
	timeouts int
	maxRTT   time.Duration
	suspect  bool // sticky verdict, updated by refreshLocked
	okStreak int  // consecutive healthy samples
}

// Detector aggregates RTT observations per peer. Safe for concurrent
// use — Observe is called from transport goroutines.
type Detector struct {
	minSamples int

	mu          sync.Mutex
	peers       map[string]*peerState
	medians     []float64 // medianLocked's reused buffer
	onVerdict   func(peer string, suspect bool, ewma time.Duration)
	corroborate func(peer string) (share float64, ok bool)
}

// SetOnVerdict registers a callback fired on every suspicion
// transition (enter and exit), with the peer's EWMA at the moment of
// the flip. The callback runs with the detector's lock held — it must
// not call back into the detector. Used to publish verdict
// transitions onto the flight recorder.
func (d *Detector) SetOnVerdict(fn func(peer string, suspect bool, ewma time.Duration)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onVerdict = fn
}

// SetCorroborator registers a source of per-peer critical-path blame
// shares (xtrace.Collector.BlameShare): the fraction of recent slow
// requests' critical-path time attributed to the peer. The verdict
// threshold then flexes — corroborated peers are suspected sooner,
// trace-exonerated peers later. fn is called with the detector's lock
// held and must not call back into the detector; it returns ok=false
// when there is not enough trace evidence, which leaves the plain RTT
// threshold in force.
func (d *Detector) SetCorroborator(fn func(peer string) (share float64, ok bool)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.corroborate = fn
}

// New returns a detector that judges a peer once it has minSamples
// observations.
func New(minSamples int) *Detector {
	return &Detector{minSamples: minSamples, peers: make(map[string]*peerState)}
}

// Observe folds one call outcome into the peer's state. Plug it into
// an endpoint with rpc.WithLatencyObserver(d.Observe).
func (d *Detector) Observe(peer string, rtt time.Duration, timedOut bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.peers[peer]
	if st == nil {
		st = &peerState{}
		d.peers[peer] = st
	}
	if timedOut {
		st.timeouts++
		rtt = max(2*st.maxRTT, minTimeoutPenalty)
	} else if rtt > st.maxRTT {
		st.maxRTT = rtt
	}
	st.rtt.Add(float64(rtt), alpha)

	// A sample is healthy if it looks like a normal round-trip right
	// now, judged against the healthy majority — not against the
	// peer's own (possibly inflated) EWMA. This is the fast-recovery
	// signal: the EWMA takes many samples to decay after a fault
	// clears, but the streak resets to healthy immediately.
	median := d.medianLocked()
	if !timedOut && float64(rtt) <= max(float64(floor), recoveryRatio*median) {
		st.okStreak++
	} else {
		st.okStreak = 0
	}
	d.refreshLocked(median)
}

// medianLocked returns the lower-median EWMA over judgeable peers.
// Lower median: with two peers this compares against the faster one,
// so a slow peer in a pair is still caught.
func (d *Detector) medianLocked() float64 {
	d.medians = d.medians[:0]
	for _, st := range d.peers {
		if st.rtt.Samples() >= d.minSamples {
			d.medians = append(d.medians, st.rtt.Value())
		}
	}
	if len(d.medians) == 0 {
		return 0
	}
	slices.Sort(d.medians)
	return d.medians[(len(d.medians)-1)/2]
}

// refreshLocked re-evaluates every peer's sticky suspicion verdict
// against median — enter high, exit low (Schmitt trigger).
func (d *Detector) refreshLocked(median float64) {
	for peer, st := range d.peers {
		if st.rtt.Samples() < d.minSamples {
			continue
		}
		ewma := st.rtt.Value()
		if !st.suspect {
			if median > 0 && ewma > float64(floor) &&
				ewma > d.suspectThresholdLocked(peer)*median {
				st.suspect = true
				if d.onVerdict != nil {
					d.onVerdict(peer, true, time.Duration(ewma))
				}
			}
		} else {
			if ewma <= float64(floor) || (median > 0 && ewma <= releaseRatio*median) {
				st.suspect = false
				if d.onVerdict != nil {
					d.onVerdict(peer, false, time.Duration(ewma))
				}
			}
		}
	}
}

// suspectThresholdLocked returns the entry multiple-of-median for
// peer: suspectRatio flexed by trace corroboration when available.
func (d *Detector) suspectThresholdLocked(peer string) float64 {
	if d.corroborate == nil {
		return suspectRatio
	}
	share, ok := d.corroborate(peer)
	switch {
	case !ok:
		return suspectRatio
	case share >= corroborateShare:
		return suspectRatio * corroborateEase
	case share <= vetoShare:
		return suspectRatio * vetoStretch
	}
	return suspectRatio
}

// PeerStat is one peer's exported state.
type PeerStat struct {
	Peer     string
	EWMA     time.Duration
	Samples  int
	Timeouts int
	Suspect  bool
	// Healthy is the peer's current run of consecutive healthy
	// round-trips — the mitigation layer's rehabilitation signal.
	Healthy int
}

// Stats returns per-peer state with suspicion verdicts, slowest first.
func (d *Detector) Stats() []PeerStat {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.refreshLocked(d.medianLocked())
	out := make([]PeerStat, 0, len(d.peers))
	for peer, st := range d.peers {
		out = append(out, PeerStat{
			Peer:     peer,
			EWMA:     time.Duration(st.rtt.Value()),
			Samples:  st.rtt.Samples(),
			Timeouts: st.timeouts,
			Suspect:  st.suspect,
			Healthy:  st.okStreak,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EWMA != out[j].EWMA {
			return out[i].EWMA > out[j].EWMA
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// Suspects returns the currently suspected peers.
func (d *Detector) Suspects() []string {
	var out []string
	for _, st := range d.Stats() {
		if st.Suspect {
			out = append(out, st.Peer)
		}
	}
	return out
}

// Healthy reports whether peer is currently unsuspected. Peers the
// detector has never observed are healthy by default.
func (d *Detector) Healthy(peer string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.refreshLocked(d.medianLocked())
	st := d.peers[peer]
	return st == nil || !st.suspect
}

// DeadlineHint derives a per-peer latency deadline for request-path
// speculation: hedgeMult × the larger of the peer's EWMA and the
// median peer EWMA, clamped to [floor, maxHedgeDeadline]. Taking the
// max of peer and median keeps the hint two-sided — a peer whose own
// estimate has gone stale still inherits the cluster's current
// baseline, and a peer faster than its siblings isn't hedged on noise.
// ok is false until the peer has minSamples observations; callers
// should then not speculate at all rather than guess.
func (d *Detector) DeadlineHint(peer string) (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.peers[peer]
	if st == nil || st.rtt.Samples() < d.minSamples {
		return 0, false
	}
	hint := time.Duration(hedgeMult * max(st.rtt.Value(), d.medianLocked()))
	return min(max(hint, floor), maxHedgeDeadline), true
}

// ConsecutiveHealthy returns peer's current run of healthy
// round-trips (zero for unknown peers).
func (d *Detector) ConsecutiveHealthy(peer string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.peers[peer]
	if st == nil {
		return 0
	}
	return st.okStreak
}

// Forget drops one peer's state so it re-earns minSamples before it
// can be judged again — a probation period after rehabilitation.
func (d *Detector) Forget(peer string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.peers, peer)
}

// Reset clears all state (e.g. after a membership change).
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.peers = make(map[string]*peerState)
}

// Render formats the detector state as a table.
func Render(stats []PeerStat) string {
	var b strings.Builder
	b.WriteString("PEER         EWMA         SAMPLES  TIMEOUTS  SUSPECT\n")
	for _, s := range stats {
		mark := ""
		if s.Suspect {
			mark = "  <== fail-slow"
		}
		suspect := "no"
		if s.Suspect {
			suspect = "yes"
		}
		fmt.Fprintf(&b, "%-12s %-12s %-8d %-9d %s%s\n",
			s.Peer, s.EWMA.Round(10*time.Microsecond), s.Samples, s.Timeouts, suspect, mark)
	}
	return b.String()
}
