// Package mitigate is the policy core of the fail-slow mitigation
// loop — the paper's §5 step from *detecting* a fail-slow peer to
// *doing something about it*. It is deliberately protocol-agnostic:
// the caller (e.g. the Raft sentinel) feeds it per-peer suspicion
// verdicts and a self-slowness signal each tick, and the policy
// answers with graduated actions — quarantine a straggling follower,
// rehabilitate it once it has proven healthy again, or demote a
// fail-slow self by handing leadership away.
//
// Every transition is hysteresis-guarded: quarantine requires a run
// of consecutive suspect verdicts, rehabilitation a run of
// consecutive healthy round-trips plus a minimum quarantine stay, and
// self-demotion a run of self-slow observations plus a cooldown
// between handoffs. Transient contention therefore cannot flap a peer
// in and out of quarantine or ping-pong leadership.
package mitigate

import "time"

// selfDemoteAfter is how many consecutive self-slow ticks a leader
// tolerates before handing leadership away. (What counts as self-slow
// is detect.Self's stretch threshold.)
const selfDemoteAfter = 3

// Config tunes the mitigation policy. Zero-valued fields take the
// defaults from DefaultConfig.
type Config struct {
	// Interval is the sentinel tick cadence (default 25ms). The policy
	// itself is tick-driven; the integrator owns the timer.
	Interval time.Duration

	// QuarantineAfter is how many consecutive suspect ticks a peer must
	// accumulate before it is quarantined (default 3).
	QuarantineAfter int

	// RehabRTTs is how many consecutive healthy round-trips a
	// quarantined peer must show before it is rehabilitated (default 8).
	RehabRTTs int

	// MinQuarantine is the minimum stay in quarantine regardless of
	// healthy probes, so a briefly-quiet fault cannot bounce straight
	// back (default 300ms).
	MinQuarantine time.Duration

	// TransferCooldown is the minimum gap between self-demotion
	// handoffs (default 2s), bounding leadership churn if the whole
	// cluster is slow.
	TransferCooldown time.Duration

	// MaxQuarantined caps concurrent quarantines. The integrator must
	// set it so a quorum always remains reachable (for an n-node
	// majority protocol: n - majority(n)). Zero means no peer is ever
	// quarantined.
	MaxQuarantined int

	// ReplaceAfterQuarantines condemns a peer to replacement after it
	// has entered quarantine that many times: rehabilitation keeps
	// failing, so quarantine is palliative and the peer should be
	// swapped out. Zero disables count-based escalation.
	ReplaceAfterQuarantines int

	// SlowBudget condemns a peer once its cumulative quarantined time
	// passes this budget — the "permanently slow, never replaced" trap.
	// Zero disables budget-based escalation.
	SlowBudget time.Duration
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		Interval:         25 * time.Millisecond,
		QuarantineAfter:  3,
		RehabRTTs:        8,
		MinQuarantine:    300 * time.Millisecond,
		TransferCooldown: 2 * time.Second,
	}
}

// WithDefaults fills zero-valued fields from DefaultConfig.
// MaxQuarantined is left alone: zero is a meaningful value there.
func (c Config) WithDefaults() Config {
	def := DefaultConfig()
	if c.Interval <= 0 {
		c.Interval = def.Interval
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = def.QuarantineAfter
	}
	if c.RehabRTTs <= 0 {
		c.RehabRTTs = def.RehabRTTs
	}
	if c.MinQuarantine <= 0 {
		c.MinQuarantine = def.MinQuarantine
	}
	if c.TransferCooldown <= 0 {
		c.TransferCooldown = def.TransferCooldown
	}
	return c
}

// PeerVerdict is one peer's detector reading at a tick.
type PeerVerdict struct {
	Peer string
	// Suspect is the detector's current fail-slow verdict.
	Suspect bool
	// ConsecutiveHealthy counts the peer's healthy round-trips since
	// its last slow one — the rehabilitation signal.
	ConsecutiveHealthy int
}

// Decision lists the actions the integrator should apply after a tick.
type Decision struct {
	// Quarantine holds peers entering quarantine this tick.
	Quarantine []string
	// Release holds peers rehabilitated this tick.
	Release []string
	// Replace holds condemned peers: quarantine kept failing (or the
	// slow budget is spent) and the integrator should replace them.
	// Repeated every tick until the integrator calls Forget.
	Replace []string
	// DemoteSelf is set when the node should hand leadership away.
	DemoteSelf bool
}

// peerTrack is the policy's per-peer hysteresis state.
type peerTrack struct {
	suspectStreak int
	quarantined   bool
	since         time.Time

	quarEpisodes int
	slowAccrued  time.Duration
	lastAccrual  time.Time
	condemned    bool
}

// Policy is the mitigation state machine. It is not safe for
// concurrent use: the integrator calls it from one goroutine (in
// DepFast, under the runtime baton).
type Policy struct {
	cfg   Config
	peers map[string]*peerTrack

	selfSlowStreak int
	lastTransfer   time.Time
	quarCount      int
}

// NewPolicy returns a policy with cfg (zero fields defaulted).
func NewPolicy(cfg Config) *Policy {
	return &Policy{
		cfg:   cfg.WithDefaults(),
		peers: make(map[string]*peerTrack),
	}
}

// Config returns the resolved configuration.
func (p *Policy) Config() Config { return p.cfg }

// Tick folds one round of observations into the state machine and
// returns the actions to apply. now is passed in for testability.
func (p *Policy) Tick(now time.Time, verdicts []PeerVerdict, selfSlow bool) Decision {
	var d Decision
	for _, v := range verdicts {
		t := p.peers[v.Peer]
		if t == nil {
			t = &peerTrack{}
			p.peers[v.Peer] = t
		}
		if t.quarantined {
			// Accrue quarantined wall time toward the slow budget.
			if !t.lastAccrual.IsZero() {
				t.slowAccrued += now.Sub(t.lastAccrual)
			}
			t.lastAccrual = now
			// Escalation check runs before release: a peer that keeps
			// cycling through quarantine is condemned, not rehabilitated.
			if !t.condemned &&
				((p.cfg.ReplaceAfterQuarantines > 0 && t.quarEpisodes >= p.cfg.ReplaceAfterQuarantines) ||
					(p.cfg.SlowBudget > 0 && t.slowAccrued >= p.cfg.SlowBudget)) {
				t.condemned = true
			}
			if t.condemned {
				d.Replace = append(d.Replace, v.Peer)
				continue
			}
			if now.Sub(t.since) >= p.cfg.MinQuarantine &&
				v.ConsecutiveHealthy >= p.cfg.RehabRTTs {
				t.quarantined = false
				t.suspectStreak = 0
				p.quarCount--
				d.Release = append(d.Release, v.Peer)
			}
			continue
		}
		if !v.Suspect {
			t.suspectStreak = 0
			continue
		}
		t.suspectStreak++
		if t.suspectStreak >= p.cfg.QuarantineAfter && p.quarCount < p.cfg.MaxQuarantined {
			t.quarantined = true
			t.since = now
			t.suspectStreak = 0
			t.quarEpisodes++
			t.lastAccrual = now
			p.quarCount++
			d.Quarantine = append(d.Quarantine, v.Peer)
		}
	}

	if selfSlow {
		p.selfSlowStreak++
	} else {
		p.selfSlowStreak = 0
	}
	if p.selfSlowStreak >= selfDemoteAfter &&
		now.Sub(p.lastTransfer) >= p.cfg.TransferCooldown {
		d.DemoteSelf = true
		p.lastTransfer = now
		p.selfSlowStreak = 0
	}
	return d
}

// IsQuarantined reports whether peer is currently quarantined.
func (p *Policy) IsQuarantined(peer string) bool {
	t := p.peers[peer]
	return t != nil && t.quarantined
}

// Quarantined returns the currently quarantined peers.
func (p *Policy) Quarantined() []string {
	var out []string
	for peer, t := range p.peers {
		if t.quarantined {
			out = append(out, peer)
		}
	}
	return out
}

// Forget drops one peer's track entirely — used when the peer has
// been removed from the configuration, so a stale condemned verdict
// cannot outlive the member it indicted.
func (p *Policy) Forget(peer string) {
	t := p.peers[peer]
	if t == nil {
		return
	}
	if t.quarantined {
		p.quarCount--
	}
	delete(p.peers, peer)
}

// SetMaxQuarantined retunes the quarantine cap after a membership
// change resizes the voter set.
func (p *Policy) SetMaxQuarantined(n int) {
	p.cfg.MaxQuarantined = n
}

// Reset drops all per-peer state and streaks — used on leadership
// changes, when the node's view of its followers starts over. The
// transfer cooldown is kept so churn stays bounded across resets.
func (p *Policy) Reset() {
	p.peers = make(map[string]*peerTrack)
	p.selfSlowStreak = 0
	p.quarCount = 0
}
