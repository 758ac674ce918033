package raft

import (
	"depfast/internal/codec"
	"depfast/internal/core"
)

// TagTimeoutNow asks a follower to campaign immediately (leadership
// transfer, Raft thesis §3.10). The paper's §5 mitigation — demote a
// fail-slow leader into a fail-slow follower — can use this for a
// graceful handover instead of waiting for detector-driven election
// timeouts.
const (
	TagTimeoutNow      = 207
	TagTimeoutNowReply = 208
)

// TimeoutNow instructs the receiver to start an election at once.
type TimeoutNow struct {
	Term   uint64
	Leader string
}

// TypeTag implements codec.Message.
func (m *TimeoutNow) TypeTag() uint32 { return TagTimeoutNow }

// MarshalTo implements codec.Message.
func (m *TimeoutNow) MarshalTo(e *codec.Encoder) {
	e.Uint64(m.Term)
	e.String(m.Leader)
}

// UnmarshalFrom implements codec.Message.
func (m *TimeoutNow) UnmarshalFrom(d *codec.Decoder) {
	m.Term = d.Uint64()
	m.Leader = d.String()
}

// TimeoutNowReply acknowledges the instruction.
type TimeoutNowReply struct {
	Term     uint64
	Accepted bool
}

// TypeTag implements codec.Message.
func (m *TimeoutNowReply) TypeTag() uint32 { return TagTimeoutNowReply }

// MarshalTo implements codec.Message.
func (m *TimeoutNowReply) MarshalTo(e *codec.Encoder) {
	e.Uint64(m.Term)
	e.Bool(m.Accepted)
}

// UnmarshalFrom implements codec.Message.
func (m *TimeoutNowReply) UnmarshalFrom(d *codec.Decoder) {
	m.Term = d.Uint64()
	m.Accepted = d.Bool()
}

func init() {
	codec.Register(TagTimeoutNow, func() codec.Message { return new(TimeoutNow) })
	codec.Register(TagTimeoutNowReply, func() codec.Message { return new(TimeoutNowReply) })
}

// RequestTransfer asks the leader to hand leadership to its most
// caught-up follower that is not suspected fail-slow. Safe to call
// from any goroutine; a no-op on non-leaders. The handoff drains the
// target to the leader's last index before TimeoutNow fires; the
// outcome is observable via Status on the peers.
func (s *Server) RequestTransfer() {
	s.rt.Post(func() {
		s.beginTransfer()
	})
}

// suspectSet returns the peers a transfer should avoid: everything
// the detector currently suspects plus everything in quarantine.
// Baton context only.
func (s *Server) suspectSet() map[string]bool {
	out := make(map[string]bool)
	if s.detector != nil {
		for _, p := range s.detector.Suspects() {
			out[p] = true
		}
	}
	for p := range s.quarantined {
		out[p] = true
	}
	return out
}

// transferTarget picks the follower with the highest match index
// outside exclude. When every follower is excluded it falls back to
// the best overall — a fail-slow follower can still be a better
// leader than a fail-slow self. Baton context only.
func (s *Server) transferTarget(exclude map[string]bool) string {
	var target, fallback string
	var best, fbBest uint64
	for _, p := range s.otherVoters() {
		m := s.prs[p].match
		if fallback == "" || m > fbBest {
			fallback, fbBest = p, m
		}
		if exclude[p] {
			continue
		}
		if target == "" || m > best {
			target, best = p, m
		}
	}
	if target == "" {
		return fallback
	}
	return target
}

// handleTimeoutNow makes the follower campaign immediately, skipping
// PreVote; its RequestVotes carry the transfer flag so voters bypass
// leader stickiness.
func (s *Server) handleTimeoutNow(co *core.Coroutine, from string, req codec.Message) codec.Message {
	m := req.(*TimeoutNow)
	if m.Term < s.term || s.role == Leader || !s.isVoter(s.cfg.ID) {
		return &TimeoutNowReply{Term: s.term, Accepted: false}
	}
	if m.Term > s.term {
		s.stepDown(m.Term, m.Leader)
	}
	s.rt.Spawn("transfer-campaign", func(cc *core.Coroutine) {
		s.campaignTransfer(cc)
	})
	return &TimeoutNowReply{Term: s.term, Accepted: true}
}

// campaignTransfer is campaign() without PreVote and with the
// transfer flag set on vote requests.
func (s *Server) campaignTransfer(co *core.Coroutine) {
	s.term++
	s.role = Candidate
	s.votedFor = s.cfg.ID
	s.Elections.Inc()
	term := s.term
	s.publish()
	s.persistState()

	// Same bounded persist as campaign(): a fail-slow disk aborts the
	// transfer campaign instead of parking it indefinitely.
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
		return
	}
	lastIdx := s.wal.LastIndex()
	q := core.NewQuorumEvent(len(s.mem.voters), s.majority())
	q.AddAck()
	for _, p := range s.otherVoters() {
		ev := s.ep.Call(p, &RequestVote{
			Term:         term,
			Candidate:    s.cfg.ID,
			LastLogIndex: lastIdx,
			LastLogTerm:  s.termOf(lastIdx),
			Transfer:     true,
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
