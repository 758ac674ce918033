package raft

import (
	"sort"
	"time"

	"depfast/internal/core"
	"depfast/internal/mitigate"
	"depfast/internal/obs"
)

// The mitigation sentinel closes the paper's §5 loop from detection
// to response. It is one long-lived coroutine per server that each
// tick (a) probes the node's own CPU and disk for fail-slow stretch,
// (b) folds the peer detector's verdicts through the mitigate.Policy
// hysteresis, and (c) applies whatever the policy decided:
//
//   - DemoteSelf: the leader judged *itself* fail-slow — from its own
//     resource probes or from a majority of followers voting
//     LeaderSlow in AppendEntries replies — and hands leadership to
//     the most caught-up unsuspected follower via TimeoutNow.
//   - Quarantine: a suspected follower stops being charged to
//     latency-critical quorum waits (propose/readIndex skip it), its
//     queued backlog is discarded, and it is caught up by snapshot
//     whenever one covers its gap — clocked by its own replies like
//     any peer, so it is never sent faster than it answers.
//   - Release: a quarantined follower showed RehabRTTs consecutive
//     healthy round-trips (heartbeats keep flowing to quarantined
//     peers precisely so this probe channel exists) and rejoins
//     quorum accounting; its detector state is forgotten so it
//     re-earns trust through a MinSamples probation.
//
// All mutation happens under the runtime baton.

// sentinelLoop drives sentinelTick at the policy's interval.
func (s *Server) sentinelLoop(co *core.Coroutine) {
	interval := s.policy.Config().Interval
	for !s.stopped {
		if err := co.Sleep(interval); err != nil {
			return
		}
		if s.stopped {
			return
		}
		s.sentinelTick()
	}
}

// sentinelTick runs one observe→decide→act round; baton context only.
func (s *Server) sentinelTick() {
	// Self-observation: query what a fixed unit of CPU work and a
	// fixed-size disk write would cost right now versus the healthy
	// baseline captured at construction. These are pure queries — the
	// probe itself costs the runtime nothing.
	s.selfCPU.Observe(s.e.ComputeCost(time.Millisecond), s.nominalCPU)
	s.selfDisk.Observe(s.e.DiskWriteCost(4096), s.nominalDisk)

	if s.role != Leader {
		// Quarantine is leader-side state; a demoted or deposed node
		// must not carry it (or its follower verdicts) into a future
		// term.
		s.clearQuarantine()
		s.policy.Reset()
		s.selfSlowPub = false // self-verdicts are leader-episode state
		return
	}

	var verdicts []mitigate.PeerVerdict
	for _, st := range s.detector.Stats() {
		v := mitigate.PeerVerdict{
			Peer:               st.Peer,
			Suspect:            st.Suspect,
			ConsecutiveHealthy: st.Healthy,
		}
		// A fresh self-report from the peer overrides RTT inference:
		// rejections and empty heartbeats never touch a slow disk, so
		// round-trips can look healthy while the node knows it is not.
		// Zeroing the healthy streak also blocks rehabilitation while
		// the peer still testifies against itself.
		if s.peerSelfSlowFresh(st.Peer) {
			v.Suspect = true
			v.ConsecutiveHealthy = 0
		}
		verdicts = append(verdicts, v)
	}
	selfSlow := s.selfCPU.Slow() || s.selfDisk.Slow() || s.slowVoteMajority()
	if selfSlow != s.selfSlowPub {
		// Self-verdict transition: the peer detector never indicts the
		// leader (followers rarely call it), so this is the detection
		// event for leader-side faults. Peer==Node marks it as a
		// self-observation.
		s.selfSlowPub = selfSlow
		typ := obs.VerdictCleared
		if selfSlow {
			typ = obs.VerdictSuspect
		}
		s.rec.Emit(obs.Event{Type: typ, Node: s.cfg.ID, Peer: s.cfg.ID,
			Detail: s.selfSlowReason()})
	}

	d := s.policy.Tick(time.Now(), verdicts, selfSlow)
	for _, p := range d.Quarantine {
		s.enterQuarantine(p)
	}
	for _, p := range d.Release {
		s.releaseQuarantine(p)
	}
	for _, p := range d.Replace {
		s.beginReplacement(p)
	}
	if d.DemoteSelf {
		s.beginTransfer()
	}
}

// selfSlowReason names which self-observation signal is (or last was)
// tripping, for the flight-recorder verdict detail.
func (s *Server) selfSlowReason() string {
	switch {
	case s.selfCPU.Slow():
		return "self-cpu"
	case s.selfDisk.Slow():
		return "self-disk"
	case s.slowVoteMajority():
		return "slow-votes"
	}
	return ""
}

// slowVoteMajority reports whether at least half of the followers
// have recently voted LeaderSlow in their AppendEntries replies.
// Stale votes age out so one transient complaint cannot linger.
func (s *Server) slowVoteMajority() bool {
	if len(s.slowVotes) == 0 {
		return false
	}
	window := 4 * s.policy.Config().Interval
	now := time.Now()
	fresh := 0
	for p, at := range s.slowVotes {
		if now.Sub(at) <= window {
			fresh++
		} else {
			delete(s.slowVotes, p)
		}
	}
	return fresh*2 >= len(s.mem.voters)-1
}

// selfSlowAdvert reports this node's own fail-slow verdict from its
// resource probes, for piggybacking on AppendEntries replies. False
// whenever the sentinel (and so the probes) is off.
func (s *Server) selfSlowAdvert() bool {
	return s.selfCPU != nil && (s.selfCPU.Slow() || s.selfDisk.Slow())
}

// notePeerSelfSlow folds a follower's piggybacked self-verdict into
// leader state, emitting a detection event on each transition. Votes
// are timestamped so a peer that goes silent ages out of suspicion
// instead of being condemned on its last word.
func (s *Server) notePeerSelfSlow(p string, slow bool) {
	if !s.isMember(p) {
		return // a late reply from a removed peer must not re-indict it
	}
	if !slow {
		if _, was := s.peerSelfSlow[p]; was {
			delete(s.peerSelfSlow, p)
			s.rec.Emit(obs.Event{Type: obs.VerdictCleared, Node: s.cfg.ID, Peer: p,
				Detail: "self-report"})
		}
		return
	}
	if _, was := s.peerSelfSlow[p]; !was {
		s.rec.Emit(obs.Event{Type: obs.VerdictSuspect, Node: s.cfg.ID, Peer: p,
			Detail: "self-report"})
	}
	s.peerSelfSlow[p] = time.Now()
}

// peerSelfSlowFresh reports whether p's self-verdict is recent enough
// to act on (same freshness window as slow-leader votes).
func (s *Server) peerSelfSlowFresh(p string) bool {
	at, ok := s.peerSelfSlow[p]
	return ok && time.Since(at) <= 4*s.policy.Config().Interval
}

// enterQuarantine excludes p from quorum accounting and sheds its
// backlog, which drops it to probing; its sender catches it up, via
// snapshot when one covers the gap.
func (s *Server) enterQuarantine(p string) {
	if s.quarantined[p] || !s.isVoter(p) {
		return
	}
	s.quarantined[p] = true
	shed := 0
	if ob := s.outboxes[p]; ob != nil {
		if n := ob.QueueLen(); n > 0 {
			shed = n
			s.Mitigation.BacklogDiscarded.Add(int64(n))
		}
		ob.CancelAll()
	}
	s.Mitigation.QuarantinesEntered.Inc()
	s.rec.Emit(obs.Event{Type: obs.QuarantineEnter, Node: s.cfg.ID, Peer: p,
		Fields: map[string]float64{"backlog_shed": float64(shed)}})
	s.publishQuarantine()
}

// releaseQuarantine rehabilitates p back into quorum accounting. Its
// detector state is forgotten so suspicion must be re-earned across a
// fresh MinSamples probation rather than resuming from a stale EWMA.
func (s *Server) releaseQuarantine(p string) {
	if !s.quarantined[p] {
		return
	}
	delete(s.quarantined, p)
	s.detector.Forget(p)
	s.Mitigation.QuarantinesExited.Inc()
	s.rec.Emit(obs.Event{Type: obs.QuarantineExit, Node: s.cfg.ID, Peer: p, Detail: "rehabilitated"})
	s.publishQuarantine()
}

// clearQuarantine drops all quarantine state without counting
// rehabilitations — used on role change, where the state is simply
// void rather than resolved.
func (s *Server) clearQuarantine() {
	if len(s.quarantined) == 0 && len(s.slowVotes) == 0 && len(s.peerSelfSlow) == 0 {
		return
	}
	s.quarantined = make(map[string]bool)
	s.slowVotes = make(map[string]time.Time)
	s.peerSelfSlow = make(map[string]time.Time)
	s.publishQuarantine()
}

// publishQuarantine refreshes the cross-goroutine quarantine list.
func (s *Server) publishQuarantine() {
	list := make([]string, 0, len(s.quarantined))
	for p := range s.quarantined {
		list = append(list, p)
	}
	sort.Strings(list)
	s.mu.Lock()
	s.quarPub = list
	s.mu.Unlock()
}

// transferDrainTimeout bounds a leadership handoff end to end: the
// freeze-and-drain phase plus the hold while the target's election
// runs. Past it the (still slow) leader resumes serving and the
// policy's cooldown schedules a retry.
const transferDrainTimeout = 500 * time.Millisecond

// beginTransfer starts a drained leadership handoff — the §5 move
// that turns a fail-slow leader into a fail-slow follower the
// protocol already tolerates. New proposals are frozen (clients are
// bounced to the target) and TimeoutNow is sent only once the target
// has replicated the leader's entire log: a target missing the
// leader's uncommitted tail would lose the up-to-date vote check to
// the very node trying to abdicate, and the slow leader would simply
// re-elect itself (Raft thesis §3.10). Baton context only.
func (s *Server) beginTransfer() {
	if s.transferPending || s.role != Leader {
		return
	}
	target := s.transferTarget(s.suspectSet())
	if target == "" {
		return
	}
	s.transferPending = true
	s.transferTo = target
	s.transferExpire = time.Now().Add(transferDrainTimeout)
	// TimeoutNow elections bypass voter stickiness, so the lease's
	// safety argument is void from here on: block it for the whole
	// term, not just while transferPending (the expiry path can clear
	// the flag while the TimeoutNow is still electing the target).
	s.leaseBlockedTerm = s.term
	s.rec.Emit(obs.Event{Type: obs.HandoffStarted, Node: s.cfg.ID, Peer: target,
		Fields: map[string]float64{"term": float64(s.term)}})
	s.rt.Spawn("transfer-drain", s.driveTransfer)
}

// driveTransfer waits for the transfer target to catch up to the
// frozen log, fires TimeoutNow, then holds the proposal freeze until
// this node is deposed (the handoff worked) or the window expires.
func (s *Server) driveTransfer(co *core.Coroutine) {
	sent := false
	for {
		if s.stopped || s.role != Leader || time.Now().After(s.transferExpire) {
			s.transferPending = false
			if !s.stopped {
				if sent && s.role != Leader {
					s.rec.Emit(obs.Event{Type: obs.HandoffCompleted, Node: s.cfg.ID, Peer: s.transferTo})
				} else {
					s.rec.Emit(obs.Event{Type: obs.HandoffCompleted, Node: s.cfg.ID,
						Peer: s.transferTo, Detail: "expired"})
				}
			}
			return
		}
		// The frozen log includes what still queues behind the commit gate.
		if pr := s.prs[s.transferTo]; !sent && len(s.pending) == 0 && pr != nil && pr.match >= s.wal.LastIndex() {
			sent = true
			s.Mitigation.Transfers.Inc()
			s.rec.Emit(obs.Event{Type: obs.HandoffDrained, Node: s.cfg.ID, Peer: s.transferTo,
				Fields: map[string]float64{"last_index": float64(s.wal.LastIndex())}})
			ev := s.ep.Call(s.transferTo, &TimeoutNow{Term: s.term, Leader: s.cfg.ID})
			core.OnEvent(ev, func() {
				// Best effort: the ensuing election is the real outcome.
			})
			// Start the self-view fresh so the post-transfer role (or a
			// retry after the cooldown) judges current conditions, not
			// the fault that triggered this handoff.
			if s.selfCPU != nil {
				s.selfCPU.Reset()
				s.selfDisk.Reset()
			}
			s.slowVotes = make(map[string]time.Time)
		}
		if err := co.Sleep(2 * time.Millisecond); err != nil {
			s.transferPending = false
			return
		}
	}
}
