package failslow

import (
	"fmt"
	"sync"
	"time"

	"depfast/internal/env"
	"depfast/internal/obs"
)

// Scale returns in with every fault knob multiplied by f: factors,
// stall probabilities (clamped to 1), stall durations, reclaim pauses,
// and the network delay. It is the intensity dial of schedule-driven
// injection — the same fault vocabulary at x0.5, x1, x2...
func Scale(in Intensity, f float64) Intensity {
	if f == 1 || f <= 0 {
		return in
	}
	scaleFactor := func(v float64) float64 {
		// A service-time factor of 1 is "healthy"; scale the stretch
		// beyond 1, not the whole multiplier, so x0.5 of a 20x fault is
		// 10.5x rather than a meaningless 10x-of-everything.
		if v <= 1 {
			return v
		}
		return 1 + (v-1)*f
	}
	prob := func(p float64) float64 {
		p *= f
		if p > 1 {
			p = 1
		}
		return p
	}
	in.CPUSlowFactor = scaleFactor(in.CPUSlowFactor)
	in.CPUContentionFactor = scaleFactor(in.CPUContentionFactor)
	in.CPUStallProb = prob(in.CPUStallProb)
	in.CPUStallDur = time.Duration(float64(in.CPUStallDur) * f)
	in.DiskSlowFactor = scaleFactor(in.DiskSlowFactor)
	in.DiskStallProb = prob(in.DiskStallProb)
	in.DiskStallDur = time.Duration(float64(in.DiskStallDur) * f)
	in.MemPausePerMB = time.Duration(float64(in.MemPausePerMB) * f)
	in.MemStallP = prob(in.MemStallP)
	in.MemStallDur = time.Duration(float64(in.MemStallDur) * f)
	in.NetDelay = time.Duration(float64(in.NetDelay) * f)
	return in
}

// Script is the schedule-driven injector: it applies exactly the
// faults a driver tells it to, synchronously, when told — stochastic
// schedules are drawn by the driver from a seed — and is the
// deterministic backend a fault-schedule explorer replays the same
// scenario through run after run. It tracks what is active per node
// (including asymmetric one-way network delays, which survive a
// node-fault re-injection on the same target) so ClearAll always heals
// the whole deployment, and mirrors every action onto the flight
// recorder.
type Script struct {
	rec *obs.Recorder
	in  Intensity

	mu     sync.Mutex
	faults map[*env.Env]Fault
	asym   map[*env.Env]map[string]time.Duration
}

// NewScript returns an injector with base intensity in; rec may be nil.
func NewScript(rec *obs.Recorder, in Intensity) *Script {
	return &Script{
		rec:    rec,
		in:     in,
		faults: make(map[*env.Env]Fault),
		asym:   make(map[*env.Env]map[string]time.Duration),
	}
}

// Inject applies fault f to e at scale times the base intensity,
// replacing any node-level fault already active there. Asymmetric
// delays previously injected on e are re-established (env.Apply clears
// every knob first).
func (s *Script) Inject(e *env.Env, f Fault, scale float64) {
	s.mu.Lock()
	s.faults[e] = f
	asym := s.asym[e]
	s.mu.Unlock()

	ApplyObserved(s.rec, e, f, Scale(s.in, scale))
	for peer, d := range asym {
		e.SetNetDelayTo(peer, d)
	}
}

// InjectAsym adds a one-way network delay from e toward peer of scale
// times the base intensity's NetDelay.
func (s *Script) InjectAsym(e *env.Env, peer string, scale float64) {
	d := time.Duration(float64(s.in.NetDelay) * scale)
	s.mu.Lock()
	if s.asym[e] == nil {
		s.asym[e] = make(map[string]time.Duration)
	}
	s.asym[e][peer] = d
	s.mu.Unlock()

	e.SetNetDelayTo(peer, d)
	s.rec.Emit(obs.Event{Type: obs.FaultInjected, Node: e.Node(), Peer: peer,
		Detail: fmt.Sprintf("Asymmetric Network Slowness ->%s", peer)})
}

// Clear heals every fault on e — the node-level fault and any one-way
// delays — and records the clearance.
func (s *Script) Clear(e *env.Env) {
	s.mu.Lock()
	_, hadFault := s.faults[e]
	_, hadAsym := s.asym[e]
	delete(s.faults, e)
	delete(s.asym, e)
	s.mu.Unlock()

	if !hadFault && !hadAsym {
		return
	}
	ClearObserved(s.rec, e)
}

// ClearAll heals every target the script ever faulted.
func (s *Script) ClearAll() {
	s.mu.Lock()
	targets := make(map[*env.Env]bool, len(s.faults)+len(s.asym))
	for e := range s.faults {
		targets[e] = true
	}
	for e := range s.asym {
		targets[e] = true
	}
	s.faults = make(map[*env.Env]Fault)
	s.asym = make(map[*env.Env]map[string]time.Duration)
	s.mu.Unlock()

	for e := range targets {
		ClearObserved(s.rec, e)
	}
}

// Active returns how many nodes currently carry an injected fault or
// one-way delay.
func (s *Script) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.faults)
	for e := range s.asym {
		if _, dup := s.faults[e]; !dup {
			n++
		}
	}
	return n
}
