package raft

import (
	"errors"
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/kv"
	"depfast/internal/storage"
	"depfast/internal/xtrace"
)

// Proposal errors surfaced to clients.
var (
	ErrNotLeader     = errors.New("raft: not leader")
	ErrCommitTimeout = errors.New("raft: commit quorum timeout")
	ErrDeposed       = errors.New("raft: leadership lost during commit")
	ErrStopping      = errors.New("raft: server stopping")
)

// tracedJudge wraps an append judge to record the replication span
// toward p: the round-trip is (p, net) with the follower's reported
// fsync time carved out as a (p, disk) child, so a slow follower disk
// and a slow link are distinguishable in the blame table.
func (s *Server) tracedJudge(inner func(interface{}, error) bool, tc xtrace.Context, quorumID uint64, p string) func(interface{}, error) bool {
	sendAt := time.Now()
	return func(v interface{}, err error) bool {
		ok := inner(v, err)
		if err != nil {
			return ok
		}
		reply, isReply := v.(*AppendEntriesReply)
		if !isReply || !reply.Success {
			return ok
		}
		ackAt := time.Now()
		rid := s.trc.NewSpanID()
		s.trc.Record(tc, xtrace.Span{ID: rid, Parent: quorumID, Name: "replicate",
			Node: p, Res: xtrace.Net, Start: sendAt, End: ackAt})
		if fs := time.Duration(reply.FsyncUs) * time.Microsecond; fs > 0 {
			fsStart := ackAt.Add(-fs)
			if fsStart.Before(sendAt) {
				fsStart = sendAt
			}
			s.trc.Record(tc, xtrace.Span{Parent: rid, Name: "wal.fsync",
				Node: p, Res: xtrace.Disk, Start: fsStart, End: ackAt})
		}
		return ok
	}
}

// broadcastTargets returns the voters charged to latency-critical
// quorum waits: every other voter except quarantined peers (learners
// are never quorum targets). If excluding quarantined voters would
// leave self plus the remainder short of a majority (possible only if
// quarantine outpaced the policy's cap, e.g. across a
// reconfiguration), quarantined peers are re-admitted until the
// quorum is satisfiable again. Baton context only.
func (s *Server) broadcastTargets() []string {
	others := s.otherVoters()
	if len(s.quarantined) == 0 {
		return others
	}
	targets := make([]string, 0, len(others))
	var held []string
	for _, p := range others {
		if s.quarantined[p] {
			held = append(held, p)
		} else {
			targets = append(targets, p)
		}
	}
	for len(targets)+1 < s.majority() && len(held) > 0 {
		targets = append(targets, held[0])
		held = held[1:]
	}
	return targets
}

// appendJudge classifies one follower's AppendEntries outcome and
// folds its progress into leader bookkeeping. Judges run under the
// baton when the reply event fires. The construction time is the
// (conservative) send timestamp fed to the leader lease: judges are
// built immediately before their message is dispatched, so an acked
// reply proves the voter was reachable after sentAt.
func (s *Server) appendJudge(p string, idx, term uint64) func(interface{}, error) bool {
	sentAt := time.Now()
	return func(v interface{}, err error) bool {
		if err != nil {
			return false // timeout / discard / overflow: no ack
		}
		reply, ok := v.(*AppendEntriesReply)
		if !ok {
			return false
		}
		if s.cfg.Mitigation && reply.From != "" {
			// Fold the follower's slow-leader vote into the sentinel's
			// self-observation inputs.
			if reply.LeaderSlow {
				s.slowVotes[reply.From] = time.Now()
			} else {
				delete(s.slowVotes, reply.From)
			}
			s.notePeerSelfSlow(reply.From, reply.SelfSlow)
		}
		if reply.Term > s.term {
			s.stepDown(reply.Term, "")
			return false
		}
		if s.role != Leader || s.term != term {
			return false
		}
		if reply.Success {
			s.noteProgress(p, reply.LastIndex)
			s.noteLeaseAck(p, sentAt, term)
			return reply.LastIndex >= idx
		}
		// Log mismatch: back nextIndex up to the follower's hint.
		if n := reply.LastIndex + 1; n < s.nextIndex[p] {
			s.nextIndex[p] = n
		} else if s.nextIndex[p] > 1 {
			s.nextIndex[p]--
		}
		return false
	}
}

// noteProgress advances matchIndex/nextIndex for p.
func (s *Server) noteProgress(p string, lastIndex uint64) {
	if lastIndex > s.matchIndex[p] {
		s.matchIndex[p] = lastIndex
	}
	if lastIndex+1 > s.nextIndex[p] {
		s.nextIndex[p] = lastIndex + 1
	}
}

// handleClientRequest services one client command on the leader.
func (s *Server) handleClientRequest(co *core.Coroutine, from string, req codec.Message) codec.Message {
	m := req.(*kv.ClientRequest)
	if s.role != Leader {
		// A hedged read may ask this replica to serve locally instead of
		// bouncing: confirm a read index with the leader, then read here.
		if m.FollowerRead && s.cfg.ReadIndex && s.role == Follower && m.Cmd.Op == kv.OpGet {
			var ftc xtrace.Context
			if s.trc != nil && m.TraceID != 0 {
				ftc = xtrace.Context{TraceID: m.TraceID, Span: m.TraceSpan, Sampled: m.TraceSampled}
			}
			return s.followerRead(co, m, ftc)
		}
		return &kv.ClientResponse{NotLeader: true, LeaderHint: s.leaderHint, Err: ErrNotLeader.Error()}
	}
	if s.transferPending {
		// Handoff in flight: the log is frozen so the transfer target
		// can catch up. Bounce the client straight to the heir.
		return &kv.ClientResponse{NotLeader: true, LeaderHint: s.transferTo, Err: ErrNotLeader.Error()}
	}
	s.e.Compute(s.cfg.LeaderComputePerOp)
	// Adopt the wire-propagated causal context: server-side pipeline
	// spans parent under the client's RPC-attempt span.
	var tc xtrace.Context
	if s.trc != nil && m.TraceID != 0 {
		tc = xtrace.Context{TraceID: m.TraceID, Span: m.TraceSpan, Sampled: m.TraceSampled}
	}

	if s.cfg.ReadIndex && m.Cmd.Op == kv.OpGet {
		return s.readIndex(co, m, tc)
	}
	_, res, err := s.commit(co, codec.Marshal(m), nil, tc)
	if err != nil {
		return &kv.ClientResponse{OK: false, NotLeader: errors.Is(err, ErrNotLeader) || errors.Is(err, ErrDeposed),
			LeaderHint: s.leaderHint, Err: err.Error()}
	}
	return &kv.ClientResponse{OK: true, Found: res.Found, Value: res.Value, Pairs: res.Pairs}
}

// readIndex serves a linearizable read without a log entry: confirm
// leadership (instantly under a valid lease, else with a heartbeat
// quorum), wait for the state machine to reach the read index, then
// read locally. The leadership check is — again — a QuorumEvent, so a
// slow follower cannot delay reads.
func (s *Server) readIndex(co *core.Coroutine, m *kv.ClientRequest, tc xtrace.Context) codec.Message {
	traced := s.trc != nil && tc.Active()
	t0 := time.Now()
	readIdx, leased, fail := s.confirmReadIndex(co)
	if fail != nil {
		return fail
	}
	quorumAt := time.Now()
	if s.lastApplied < readIdx {
		sig := core.NewSignalEvent()
		s.appliedWaiters = append(s.appliedWaiters, appliedWaiter{idx: readIdx, sig: sig})
		if co.WaitFor(sig, s.cfg.CommitTimeout) != core.WaitReady {
			return &kv.ClientResponse{OK: false, Err: "readindex: apply lag"}
		}
	}
	res := s.sm.Store().Apply(m.Cmd)
	if traced {
		end := time.Now()
		rootID := s.trc.NewSpanID()
		confirm := "readindex.quorum"
		if leased {
			confirm = "readindex.lease"
		}
		s.trc.Record(tc, xtrace.Span{Parent: rootID, Name: confirm,
			Node: s.cfg.ID, Res: xtrace.Net, Start: t0, End: quorumAt})
		if end.Sub(quorumAt) > 500*time.Microsecond {
			s.trc.Record(tc, xtrace.Span{Parent: rootID, Name: "readindex.apply-wait",
				Node: s.cfg.ID, Res: xtrace.Queue, Start: quorumAt, End: end})
		}
		s.trc.Record(tc, xtrace.Span{ID: rootID, Parent: tc.Span, Name: "readindex",
			Node: s.cfg.ID, Res: xtrace.CPU, Start: t0, End: end})
	}
	return &kv.ClientResponse{OK: true, Found: res.Found, Value: res.Value, Pairs: res.Pairs}
}

// handleAppendEntries services replication and heartbeats on a
// follower.
func (s *Server) handleAppendEntries(co *core.Coroutine, from string, req codec.Message) codec.Message {
	m := req.(*AppendEntries)
	s.e.Compute(s.cfg.FollowerComputePerOp)
	if m.Term < s.term {
		return &AppendEntriesReply{Term: s.term, Success: false, LastIndex: s.wal.LastIndex(), From: s.cfg.ID}
	}
	if m.Term > s.term || s.role != Follower {
		s.stepDown(m.Term, m.Leader)
	}
	s.leaderHint = m.Leader
	s.observeHeartbeat()
	if m.SentAtNs > 0 {
		s.observeHeartbeatDelay(time.Duration(time.Now().UnixNano() - m.SentAtNs))
	}
	// Piggyback this follower's slow-leader verdict on every reply so
	// the leader's sentinel hears what the cluster sees — and its own
	// fail-slow self-verdict, so the leader hears what this node sees
	// about itself.
	leaderSlow := s.leaderSeemsSlow()
	selfSlow := s.selfSlowAdvert()

	// Entries already covered by our snapshot are dropped up front.
	if !s.trimSnapshotCovered(m) {
		return &AppendEntriesReply{Term: s.term, Success: true, LastIndex: s.wal.LastIndex(), From: s.cfg.ID, LeaderSlow: leaderSlow, SelfSlow: selfSlow}
	}

	// Consistency check on the previous entry.
	if m.PrevLogIndex > 0 {
		if m.PrevLogIndex > s.wal.LastIndex() || s.termOf(m.PrevLogIndex) != m.PrevLogTerm {
			hint := s.wal.LastIndex()
			if m.PrevLogIndex-1 < hint {
				hint = m.PrevLogIndex - 1
			}
			return &AppendEntriesReply{Term: s.term, Success: false, LastIndex: hint, From: s.cfg.ID, LeaderSlow: leaderSlow, SelfSlow: selfSlow}
		}
	}

	// Skip entries already present with matching terms; truncate on
	// conflict; append the remainder durably before acking.
	var fsyncUs int64
	toAppend := m.Entries
	for len(toAppend) > 0 {
		e0 := toAppend[0]
		existing, ok := s.wal.Entry(e0.Index)
		if !ok {
			break
		}
		if existing.Term != e0.Term {
			s.wal.TruncateFrom(e0.Index)
			s.cache.TruncateFrom(e0.Index)
			s.rollbackConfTo(e0.Index)
			break
		}
		toAppend = toAppend[1:]
	}
	if len(toAppend) > 0 {
		if toAppend[0].Index <= s.wal.LastIndex() {
			s.wal.TruncateFrom(toAppend[0].Index)
			s.cache.TruncateFrom(toAppend[0].Index)
			s.persistTruncate(toAppend[0].Index)
			s.rollbackConfTo(toAppend[0].Index)
		}
		fsync, err := s.wal.Append(toAppend)
		if err != nil {
			return &AppendEntriesReply{Term: s.term, Success: false, LastIndex: s.wal.LastIndex(), From: s.cfg.ID, LeaderSlow: leaderSlow, SelfSlow: selfSlow}
		}
		for _, e := range toAppend {
			s.cache.Put(e)
		}
		s.persistAppend(toAppend)
		// Membership entries take effect on append (Raft thesis §4.1) —
		// on followers exactly as on the leader that proposed them.
		for _, e := range toAppend {
			if cc := decodeConfChange(e.Data); cc != nil {
				s.adoptConfEntry(cc, e.Index)
			}
		}
		// Bounded fsync wait: a fail-slow disk turns into an explicit
		// failed append, and the leader retries or routes around us,
		// instead of this handler coroutine hanging on local I/O. The
		// measured wait rides the reply so the leader can attribute a
		// slow replication span to this follower's disk vs the link.
		fsStart := time.Now()
		if co.WaitFor(fsync, s.cfg.DiskWaitTimeout) != core.WaitReady {
			return &AppendEntriesReply{Term: s.term, Success: false, LastIndex: s.wal.LastIndex(), From: s.cfg.ID, LeaderSlow: leaderSlow, SelfSlow: selfSlow}
		}
		fsyncUs = time.Since(fsStart).Microseconds()
	}

	if m.LeaderCommit > s.commitIndex {
		limit := s.wal.LastIndex()
		if m.LeaderCommit < limit {
			limit = m.LeaderCommit
		}
		s.commitIndex = limit
		s.applyUpTo()
	}
	return &AppendEntriesReply{Term: s.term, Success: true, LastIndex: s.wal.LastIndex(), From: s.cfg.ID, LeaderSlow: leaderSlow, SelfSlow: selfSlow, FsyncUs: fsyncUs}
}

// heartbeatLoop broadcasts empty AppendEntries while leader of term.
// Replies are folded in via event hooks — no waits at all, so a slow
// follower cannot delay the next beat.
func (s *Server) heartbeatLoop(co *core.Coroutine, term uint64) {
	for s.role == Leader && s.term == term && !s.stopped {
		for _, p := range s.others() {
			p := p
			prev := s.nextIndex[p] - 1
			ae := &AppendEntries{
				Term:         term,
				Leader:       s.cfg.ID,
				PrevLogIndex: prev,
				PrevLogTerm:  s.termOf(prev),
				LeaderCommit: s.commitIndex,
				SentAtNs:     time.Now().UnixNano(),
			}
			ev := s.ep.Call(p, ae)
			judge := s.appendJudge(p, 0, term)
			core.OnEvent(ev, func() { judge(ev.Value(), ev.Err()) })
		}
		if err := co.Sleep(s.cfg.HeartbeatInterval); err != nil {
			return
		}
	}
}

// repairLoop catches a lagging follower up: whenever the follower is
// behind and nothing is queued toward it, read the missing range
// (entry cache first, WAL otherwise — asynchronously, never blocking
// the runtime) and ship one batch. Reply processing is hook-based;
// the loop never waits on the follower, so a fail-slow follower only
// slows its own repair. Quarantined followers are repaired at
// PaceFactor × RepairInterval and via snapshot whenever one covers
// their gap, so rehabilitation traffic cannot re-congest them.
func (s *Server) repairLoop(co *core.Coroutine, p string, term uint64) {
	inflight := false
	for s.role == Leader && s.term == term && !s.stopped {
		// A peer removed from the configuration has no outbox and needs
		// no catch-up; its repair coroutine simply ends.
		if !s.isMember(p) {
			return
		}
		interval := s.cfg.RepairInterval
		if s.quarantined[p] {
			interval *= time.Duration(s.pace)
		}
		if !inflight && s.matchIndex[p] < s.wal.LastIndex() &&
			s.outboxes[p].QueueLen() == 0 && s.outboxes[p].Inflight() == 0 {
			lo := s.nextIndex[p]
			// Ship the snapshot instead of entries when the follower's
			// missing prefix was compacted away — or when the follower
			// is quarantined and a snapshot covers its gap (one bulk
			// transfer beats a stream of batches into a slow node).
			if s.snapIndex > 0 && s.matchIndex[p] < s.snapIndex &&
				(lo < s.wal.FirstIndex() || s.quarantined[p]) {
				inflight = true
				s.sendSnapshot(p, term, func() { inflight = false })
				if err := co.Sleep(interval); err != nil {
					return
				}
				continue
			}
			if lo < s.wal.FirstIndex() {
				lo = s.wal.FirstIndex()
			}
			hi := s.wal.LastIndex()
			if hi >= lo {
				if max := lo + uint64(s.cfg.RepairBatch) - 1; hi > max {
					hi = max
				}
				entries, fromCache := s.gatherEntries(lo, hi)
				if !fromCache {
					// Fetch from the WAL without blocking the runtime. A
					// fail-slow disk costs us one repair round, not the
					// whole repair loop: on timeout skip this pass and
					// retry next interval.
					ev := s.wal.ReadAsync(lo, hi)
					switch co.WaitFor(ev, s.cfg.DiskWaitTimeout) {
					case core.WaitStopped:
						return
					case core.WaitTimeout:
						if err := co.Sleep(interval); err != nil {
							return
						}
						continue
					}
					if s.role != Leader || s.term != term || !s.isMember(p) {
						return
					}
					entries, _ = ev.Value().([]storage.Entry)
				}
				if len(entries) > 0 {
					s.RepairSends.Inc()
					ae := &AppendEntries{
						Term:         term,
						Leader:       s.cfg.ID,
						PrevLogIndex: lo - 1,
						PrevLogTerm:  s.termOf(lo - 1),
						Entries:      entries,
						LeaderCommit: s.commitIndex,
					}
					ev := core.NewResultEvent("rpc", p)
					judge := s.appendJudge(p, hi, term)
					inflight = true
					core.OnEvent(ev, func() {
						judge(ev.Value(), ev.Err())
						inflight = false
					})
					s.outboxes[p].Send(ae, ev, int64(hi))
					if s.mem.isLearner(p) {
						// Anchor the learner stream on this batch: the next
						// proposal whose prev is hi chains onto it without
						// waiting for the ack, handing the tip over from
						// repair to streaming with no quiet-window race.
						s.learnerStream[p] = hi
					}
				}
			}
		}
		if err := co.Sleep(interval); err != nil {
			return
		}
	}
}

// gatherEntries returns [lo,hi] from the entry cache if fully
// resident; otherwise reports a cache miss so the caller reads the
// WAL.
func (s *Server) gatherEntries(lo, hi uint64) ([]storage.Entry, bool) {
	out := make([]storage.Entry, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		e, ok := s.cache.Get(i)
		if !ok {
			return nil, false
		}
		out = append(out, e)
	}
	return out, true
}
