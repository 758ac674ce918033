package raft

import (
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/obs"
	"depfast/internal/xtrace"
)

// electionTicker is the long-lived coroutine that watches for leader
// silence and campaigns. With the slow-leader detector enabled it also
// campaigns when heartbeats still arrive but their cadence shows the
// leader is fail-slow (§5: demote a fail-slow leader to a fail-slow
// follower, which DepFastRaft tolerates).
func (s *Server) electionTicker(co *core.Coroutine) {
	for timeout := s.firstElectionTimeout(); !s.stopped; timeout = s.electionTimeout() {
		if err := co.Sleep(timeout); err != nil {
			return
		}
		if s.stopped {
			return
		}
		if s.role == Leader {
			continue
		}
		// Learners and idle spares never campaign: a node only starts
		// elections while it is a voter of its effective config.
		if !s.isVoter(s.cfg.ID) {
			continue
		}
		silent := time.Since(s.lastHeartbeat) >= timeout
		slow := s.cfg.SlowLeaderDetector && s.leaderSeemsSlow()
		if silent || slow {
			s.campaign(co)
		}
	}
}

// heartbeatAlpha is the weight of a new sample in the slow-leader
// detector's heartbeat gap and delay EWMAs.
const heartbeatAlpha = 1.0 / 8

// leaderSeemsSlow reports whether the leader looks fail-slow from
// this follower: either the heartbeat cadence is stretched (gap EWMA)
// or heartbeats arrive steadily but long after they were sent
// (propagation-delay EWMA — a pipelined slow NIC keeps the cadence).
func (s *Server) leaderSeemsSlow() bool {
	if s.cfg.HeartbeatInterval == 0 {
		return false
	}
	limit := float64(s.cfg.HeartbeatInterval) * s.cfg.SlowLeaderThreshold
	return s.hbGap.Value() > limit || s.hbDelay.Value() > limit
}

// observeHeartbeatDelay folds a measured heartbeat propagation delay
// into the detector EWMA.
func (s *Server) observeHeartbeatDelay(d time.Duration) {
	s.hbDelay.Add(float64(max(d, 0)), heartbeatAlpha)
}

// observeHeartbeat folds a heartbeat arrival into the detector EWMA.
// A leader change resets both cadence EWMAs: stale readings from a
// fail-slow predecessor must not indict its healthy successor (one
// carried-over slow verdict is enough to sway a slow-vote majority
// and demote the new leader right back).
func (s *Server) observeHeartbeat() {
	now := time.Now()
	if s.leaderHint != s.hbLeader {
		s.hbLeader = s.leaderHint
		s.hbGap.Reset()
		s.hbDelay.Reset()
		s.lastHeartbeat = now
		return
	}
	s.hbGap.Add(float64(now.Sub(s.lastHeartbeat)), heartbeatAlpha)
	s.lastHeartbeat = now
}

// campaign runs one election round in DepFast style: a single
// QuorumEvent over all vote RPCs, no per-peer waits. A PreVote probe
// round must succeed before any term is bumped, so a follower that
// briefly lost contact (e.g. the moment a fail-slow fault lands on its
// NIC) cannot depose a healthy leader with a spurious term bump.
func (s *Server) campaign(co *core.Coroutine) {
	if !s.preVote(co) {
		return
	}
	s.term++
	s.role = Candidate
	s.votedFor = s.cfg.ID
	s.Elections.Inc()
	term := s.term
	s.publish()
	s.persistState()

	// Persist term+vote before soliciting (simulated metadata fsync).
	// A fail-slow disk must not park the candidate forever: on timeout
	// the campaign is abandoned and the server steps back to follower,
	// leaving the election to a peer with a healthy disk.
	persist := s.disk.WriteAsync(16, nil)
	switch co.WaitFor(persist, diskWaitTimeout) {
	case core.WaitStopped:
		return
	case core.WaitTimeout:
		if s.term == term && s.role == Candidate {
			s.role = Follower
			s.publish()
		}
		return
	}
	if s.term != term || s.role != Candidate {
		return // superseded while persisting
	}

	lastIdx := s.wal.LastIndex()
	lastTerm := s.termOf(lastIdx)
	q := core.NewQuorumEvent(len(s.mem.voters), s.majority())
	q.AddAck() // own vote
	for _, p := range s.otherVoters() {
		ev := s.ep.Call(p, &RequestVote{
			Term:         term,
			Candidate:    s.cfg.ID,
			LastLogIndex: lastIdx,
			LastLogTerm:  lastTerm,
		})
		q.AddJudged(ev, func(v interface{}, err error) bool {
			if err != nil {
				return false
			}
			reply, ok := v.(*RequestVoteReply)
			if !ok {
				return false
			}
			if reply.Term > s.term {
				s.stepDown(reply.Term, "")
				return false
			}
			return reply.Granted
		})
	}
	out := co.WaitQuorum(q, s.electionTimeout())
	if out != core.QuorumOK || s.role != Candidate || s.term != term {
		if s.role == Candidate && s.term == term {
			s.role = Follower
			s.publish()
		}
		return
	}
	s.becomeLeader(co, term)
}

// becomeLeader initializes leader state and spawns the leader
// coroutines for this term.
func (s *Server) becomeLeader(co *core.Coroutine, term uint64) {
	s.role = Leader
	s.leaderHint = s.cfg.ID
	last := s.wal.LastIndex()
	s.prs = make(map[string]*progress)
	for _, p := range s.others() {
		// Raft's optimistic start: every peer is taken to be in step, so
		// the no-op barrier's fan-out is its first probe.
		s.track(p, &progress{next: last + 1, state: replicating})
	}
	// Lease state starts cold: acks are earned from this term's own
	// traffic, and lease reads additionally wait for the no-op barrier
	// (the first entry of this term) to commit.
	s.leaseAcks = make(map[string]time.Time)
	s.termStart = last + 1
	// Quarantine verdicts from a previous term are void; the sentinel
	// re-earns them from fresh observations.
	s.clearQuarantine()
	if s.policy != nil {
		s.policy.Reset()
	}
	s.rec.Emit(obs.Event{Type: obs.LeaderElected, Node: s.cfg.ID,
		Fields: map[string]float64{"term": float64(term), "last_index": float64(last)}})
	s.publish()

	s.rt.Spawn("heartbeat", func(hc *core.Coroutine) { s.heartbeatLoop(hc, term) })
	// Commit a no-op barrier so entries from prior terms become
	// committable (Raft §5.4.2).
	s.rt.Spawn("noop-barrier", func(nc *core.Coroutine) {
		_, _, _ = s.commit(nc, nil, nil, xtrace.Context{})
	})
}

// preVote probes whether an election could succeed, without touching
// any term or vote state anywhere. True means proceed to a real
// campaign.
func (s *Server) preVote(co *core.Coroutine) bool {
	term := s.term
	lastIdx := s.wal.LastIndex()
	q := core.NewQuorumEvent(len(s.mem.voters), s.majority())
	q.AddAck() // would vote for self
	for _, p := range s.otherVoters() {
		ev := s.ep.Call(p, &RequestVote{
			Term:         term + 1,
			Candidate:    s.cfg.ID,
			LastLogIndex: lastIdx,
			LastLogTerm:  s.termOf(lastIdx),
			PreVote:      true,
		})
		q.AddJudged(ev, func(v interface{}, err error) bool {
			if err != nil {
				return false
			}
			reply, ok := v.(*RequestVoteReply)
			return ok && reply.Granted
		})
	}
	out := co.WaitQuorum(q, s.electionTimeout())
	return out == core.QuorumOK && s.role != Leader && s.term == term
}

// handleRequestVote services a vote solicitation.
func (s *Server) handleRequestVote(co *core.Coroutine, from string, req codec.Message) codec.Message {
	m := req.(*RequestVote)
	s.e.Compute(followerComputePerOp)
	if m.Term < s.term {
		return &RequestVoteReply{Term: s.term, Granted: false}
	}
	// A candidate outside our effective voter set is denied before any
	// term adoption: a removed server that never learned of its removal
	// keeps campaigning, and without this check its ever-growing terms
	// would disrupt the group it no longer belongs to. (An empty voter
	// set — an unbootstrapped spare — abstains from this judgment.)
	if len(s.mem.voters) > 0 && !s.isVoter(m.Candidate) {
		return &RequestVoteReply{Term: s.term, Granted: false}
	}
	// Leader stickiness: a node that heard from a live leader within
	// the minimum election timeout refuses to participate, preventing
	// a flapping node from disrupting a healthy group. The protection
	// is withdrawn when this voter itself observes the leader as
	// fail-slow — that is exactly the election the §5 mitigation wants.
	if !m.Transfer && m.Candidate != s.cfg.ID &&
		time.Since(s.lastHeartbeat) < s.cfg.ElectionTimeoutMin &&
		s.leaderHint != "" && s.leaderHint != m.Candidate &&
		!(s.cfg.SlowLeaderDetector && s.leaderSeemsSlow()) {
		return &RequestVoteReply{Term: s.term, Granted: false}
	}
	upToDate := m.LastLogTerm > s.termOf(s.wal.LastIndex()) ||
		(m.LastLogTerm == s.termOf(s.wal.LastIndex()) && m.LastLogIndex >= s.wal.LastIndex())
	if m.PreVote {
		return &RequestVoteReply{Term: s.term, Granted: upToDate}
	}
	if m.Term > s.term {
		s.stepDown(m.Term, "")
	}
	granted := (s.votedFor == "" || s.votedFor == m.Candidate) && upToDate
	if granted {
		s.votedFor = m.Candidate
		s.lastHeartbeat = time.Now() // granting a vote resets the timer
		s.persistState()
		persist := s.disk.WriteAsync(16, nil)
		// The vote is only granted once it is durable; if the local disk
		// is too slow to persist it in time, deny rather than block the
		// candidate's whole election on our fail-slow hardware.
		if co.WaitFor(persist, diskWaitTimeout) != core.WaitReady {
			return &RequestVoteReply{Term: s.term, Granted: false}
		}
	}
	s.publish()
	return &RequestVoteReply{Term: s.term, Granted: granted}
}
