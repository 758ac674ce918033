// Leader leases and follower reads — the read-side half of the
// request-path speculation layer (internal/hedge).
//
// A lease rides the traffic the leader already sends: every
// successful AppendEntries reply (heartbeat, proposal, repair) from a
// voter records the *send* time of the acked message. When a majority
// of voters acked something sent within the lease window, no rival
// can have been elected meanwhile — a voter that just acked refuses
// (non-transfer) votes for ElectionTimeoutMin after hearing from its
// leader (the stickiness rule in handleRequestVote), and the lease
// window is clamped strictly below that. A lease-holding leader
// therefore serves linearizable reads from its local commit index
// without the ReadIndex heartbeat quorum; on expiry it falls back to
// the classic quorum round.
//
// Two deliberate exclusions keep the lease sound: a leadership
// transfer blocks the lease for the rest of the term (TimeoutNow
// elections bypass stickiness, so the window argument dies the moment
// a transfer starts), and lease reads additionally require the
// leader's own-term no-op barrier to have committed, so the local
// commit index is never behind an earlier leader's committed tail.
// One residual caveat is documented in DESIGN.md: SlowLeaderDetector
// lets a voter withdraw stickiness early when it judges the leader
// fail-slow, which shrinks the lease's safety margin; deployments
// combining both accept that the detector's EWMA inertia (many
// heartbeat intervals) still covers the sub-200ms lease window.
//
// Follower reads let a replica serve a linearizable Get locally: it
// asks the leader for a confirmed read index (one small RPC the
// leader answers instantly under its lease), fast-forwards its own
// commit index when it already holds the entry at that index — by the
// Log Matching property, holding (index, term) implies the whole
// prefix is identical — waits until applied, and reads its local
// state machine. That is what gives read hedges an independent path
// around a gray leader→client link.
package raft

import (
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/kv"
	"depfast/internal/xtrace"
)

// Lease / follower-read message tags (Raft range 200–299).
const (
	TagReadIndexQuery = 214
	TagReadIndexReply = 215
)

// ReadIndexQuery asks the leader for a confirmed read index on behalf
// of a follower serving a local read.
type ReadIndexQuery struct {
	From string
}

// TypeTag implements codec.Message.
func (m *ReadIndexQuery) TypeTag() uint32 { return TagReadIndexQuery }

// MarshalTo implements codec.Message.
func (m *ReadIndexQuery) MarshalTo(e *codec.Encoder) { e.String(m.From) }

// UnmarshalFrom implements codec.Message.
func (m *ReadIndexQuery) UnmarshalFrom(d *codec.Decoder) { m.From = d.String() }

// ReadIndexReply carries a confirmed read index. IndexTerm is the
// term of the entry at Index, letting the follower verify it holds
// that exact entry before fast-forwarding its own commit index.
type ReadIndexReply struct {
	Term      uint64
	Index     uint64
	IndexTerm uint64
	OK        bool
	// Leased marks the index as served off the leader's lease (no
	// quorum round) — observability only.
	Leased     bool
	LeaderHint string
}

// TypeTag implements codec.Message.
func (m *ReadIndexReply) TypeTag() uint32 { return TagReadIndexReply }

// MarshalTo implements codec.Message.
func (m *ReadIndexReply) MarshalTo(e *codec.Encoder) {
	e.Uint64(m.Term)
	e.Uint64(m.Index)
	e.Uint64(m.IndexTerm)
	e.Bool(m.OK)
	e.Bool(m.Leased)
	e.String(m.LeaderHint)
}

// UnmarshalFrom implements codec.Message.
func (m *ReadIndexReply) UnmarshalFrom(d *codec.Decoder) {
	m.Term = d.Uint64()
	m.Index = d.Uint64()
	m.IndexTerm = d.Uint64()
	m.OK = d.Bool()
	m.Leased = d.Bool()
	m.LeaderHint = d.String()
}

func init() {
	codec.Register(TagReadIndexQuery, func() codec.Message { return new(ReadIndexQuery) })
	codec.Register(TagReadIndexReply, func() codec.Message { return new(ReadIndexReply) })
}

// leaseDuration is the lease window: 4/5 of ElectionTimeoutMin. The
// margin is the safety argument — a voter refuses rival votes for a
// full ElectionTimeoutMin after an ack it sent us, so counting it
// toward a strictly shorter window always undershoots.
func (s *Server) leaseDuration() time.Duration {
	return s.cfg.ElectionTimeoutMin * 4 / 5
}

// noteLeaseAck records a successful AppendEntries ack from voter p
// for a message sent at sentAt during term. Called from the append
// judge on every acked append — heartbeats, proposals, reads, repair
// — so the lease renews on whatever traffic already flows. Baton
// context only.
func (s *Server) noteLeaseAck(p string, sentAt time.Time, term uint64) {
	if !s.cfg.LeaderLease || s.role != Leader || s.term != term {
		return
	}
	if prev, ok := s.leaseAcks[p]; !ok || sentAt.After(prev) {
		s.leaseAcks[p] = sentAt
	}
}

// leaseValid reports whether this leader currently holds a read
// lease: a majority of voters (self counts as now) acked a message
// sent within the lease window, no transfer has run this term, and
// the own-term barrier is committed. Baton context only.
func (s *Server) leaseValid() bool {
	if !s.cfg.LeaderLease || s.role != Leader {
		return false
	}
	if s.transferPending || s.term == s.leaseBlockedTerm {
		return false
	}
	if s.commitIndex < s.termStart {
		return false
	}
	cutoff := time.Now().Add(-s.leaseDuration())
	live := 0
	for _, p := range s.mem.voters {
		if p == s.cfg.ID {
			live++ // self is always current
			continue
		}
		if ack, ok := s.leaseAcks[p]; ok && ack.After(cutoff) {
			live++
		}
	}
	return live >= s.majority()
}

// confirmReadIndex returns a linearizable read index for the current
// leadership: the local commit index under a valid lease, else after
// a heartbeat quorum confirming leadership. A non-nil fail message is
// the error response to bounce to the client. Baton context only.
func (s *Server) confirmReadIndex(co *core.Coroutine) (readIdx uint64, leased bool, fail *kv.ClientResponse) {
	s.ReadIndexOps.Inc()
	term := s.term
	readIdx = s.commitIndex
	if s.leaseValid() {
		s.LeaseReads.Inc()
		return readIdx, true, nil
	}
	if s.cfg.LeaderLease {
		s.LeaseFallbacks.Inc()
	}
	targets := s.broadcastTargets()
	q := core.NewQuorumEvent(1+len(targets), s.majority())
	q.AddAck() // self
	for _, p := range targets {
		q.AddJudged(s.heartbeat(p, term), s.appendJudge(p, nil, 0, term))
	}
	if out := co.WaitQuorum(q, commitTimeout); out != core.QuorumOK {
		return 0, false, &kv.ClientResponse{OK: false, Err: "readindex: lost quorum"}
	}
	if s.role != Leader || s.term != term {
		return 0, false, &kv.ClientResponse{OK: false, NotLeader: true,
			LeaderHint: s.leaderHint, Err: ErrDeposed.Error()}
	}
	return readIdx, false, nil
}

// handleReadIndexQuery answers a follower's read-index request on the
// leader. Under a valid lease this is a pure local computation; the
// fallback runs the same heartbeat quorum a direct ReadIndex read
// would, so a follower read is never weaker than a leader read.
func (s *Server) handleReadIndexQuery(co *core.Coroutine, from string, req codec.Message) codec.Message {
	if s.role != Leader || s.transferPending {
		hint := s.leaderHint
		if s.transferPending {
			hint = s.transferTo
		}
		return &ReadIndexReply{Term: s.term, OK: false, LeaderHint: hint}
	}
	idx, leased, fail := s.confirmReadIndex(co)
	if fail != nil {
		return &ReadIndexReply{Term: s.term, OK: false, LeaderHint: s.leaderHint}
	}
	return &ReadIndexReply{Term: s.term, Index: idx, IndexTerm: s.termOf(idx), OK: true, Leased: leased}
}

// followerRead serves a linearizable Get locally on a follower:
// confirm a read index with the leader, catch the local state machine
// up to it, read. Every wait is bounded; any failure bounces the
// client back toward the leader rather than parking it here.
func (s *Server) followerRead(co *core.Coroutine, m *kv.ClientRequest, tc xtrace.Context) codec.Message {
	leader := s.leaderHint
	if leader == "" || leader == s.cfg.ID {
		return &kv.ClientResponse{NotLeader: true, LeaderHint: leader, Err: ErrNotLeader.Error()}
	}
	s.e.Compute(followerComputePerOp)
	t0 := s.stamp(tc)
	ev := s.ep.Call(leader, &ReadIndexQuery{From: s.cfg.ID})
	if co.WaitFor(ev, commitTimeout) != core.WaitReady || ev.Err() != nil {
		return &kv.ClientResponse{NotLeader: true, LeaderHint: s.leaderHint,
			Err: "followerread: leader unreachable"}
	}
	rep, ok := ev.Value().(*ReadIndexReply)
	if !ok || !rep.OK {
		hint := s.leaderHint
		if ok && rep.LeaderHint != "" {
			hint = rep.LeaderHint
		}
		return &kv.ClientResponse{NotLeader: true, LeaderHint: hint,
			Err: "followerread: no read index"}
	}
	if rep.Term > s.term {
		s.stepDown(rep.Term, leader)
	}
	confirm := xtrace.Span{Name: "followerread.confirm", Node: leader, Start: t0, End: s.stamp(tc)}
	// Fast-forward: if we already hold the entry at the read index with
	// the leader's term for it, Log Matching says our prefix equals the
	// leader's committed prefix, so it is safe to commit and apply now
	// instead of waiting for the next heartbeat's LeaderCommit.
	if rep.Index > s.commitIndex && rep.Index <= s.wal.LastIndex() &&
		s.termOf(rep.Index) == rep.IndexTerm {
		s.commitIndex = rep.Index
		s.applyUpTo()
	}
	return s.readAt(co, m, rep.Index, "followerread", tc, confirm)
}
