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

// appendJudge classifies one AppendEntries outcome toward p and folds
// it into leader state: the follower's piggybacked verdicts, a higher
// term, the lease and, for a message carrying entries through last,
// pr — nil for a heartbeat, which never moves progress. Any outcome
// wakes p's sender unless p is in step at the tip. Judges run under
// the baton when the reply event fires; they are built immediately
// before their message is dispatched, so an acked reply proves the
// voter was reachable after sentAt (the lease's conservative send
// time).
func (s *Server) appendJudge(p string, pr *progress, last, term uint64) func(interface{}, error) bool {
	sentAt := time.Now()
	return func(v interface{}, err error) bool {
		reply, _ := v.(*AppendEntriesReply)
		if err != nil {
			reply = nil // timeout, discard, overflow or refusal: no reply
		}
		if reply != nil {
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
		}
		cur := s.prs[p]
		if s.role != Leader || s.term != term || cur == nil || pr != nil && pr != cur {
			return false
		}
		ok := reply != nil && reply.Success
		if pr != nil {
			ok = pr.onAppend(reply, last)
		}
		if ok {
			s.noteLeaseAck(p, sentAt, term)
		}
		if cur.state != replicating || cur.next <= s.wal.LastIndex() {
			cur.wake() // a peer in step at the tip has nothing to be sent
		}
		return ok
	}
}

// handleClientRequest services one client command on the leader.
func (s *Server) handleClientRequest(co *core.Coroutine, from string, req codec.Message) codec.Message {
	m := req.(*kv.ClientRequest)
	// Adopt the wire-propagated causal context: server-side pipeline
	// spans parent under the client's RPC-attempt span.
	var tc xtrace.Context
	if s.trc != nil && m.TraceID != 0 {
		tc = xtrace.Context{TraceID: m.TraceID, Span: m.TraceSpan, Sampled: m.TraceSampled}
	}
	if s.role != Leader {
		// A hedged read may ask this replica to serve locally instead of
		// bouncing: confirm a read index with the leader, then read here.
		if m.FollowerRead && s.cfg.ReadIndex && s.role == Follower && m.Cmd.Op == kv.OpGet {
			return s.followerRead(co, m, tc)
		}
		return &kv.ClientResponse{NotLeader: true, LeaderHint: s.leaderHint, Err: ErrNotLeader.Error()}
	}
	if s.transferPending {
		// Handoff in flight: the log is frozen so the transfer target
		// can catch up. Bounce the client straight to the heir.
		return &kv.ClientResponse{NotLeader: true, LeaderHint: s.transferTo, Err: ErrNotLeader.Error()}
	}
	s.e.Compute(leaderComputePerOp)
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
	t0 := s.stamp(tc)
	readIdx, leased, fail := s.confirmReadIndex(co)
	if fail != nil {
		return fail
	}
	confirm := xtrace.Span{Name: "readindex.quorum", Node: s.cfg.ID, Start: t0, End: s.stamp(tc)}
	if leased {
		confirm.Name = "readindex.lease"
	}
	return s.readAt(co, m, readIdx, "readindex", tc, confirm)
}

// stamp reads the clock for a traced request only.
func (s *Server) stamp(tc xtrace.Context) (t time.Time) {
	if s.trc != nil && tc.Active() {
		t = time.Now()
	}
	return t
}

// readAt ends a read whose index is confirmed: wait until the state
// machine has applied idx, then read locally. A traced read (confirm
// stamped) records op's root span over the confirm span and, past
// traceNoise, the apply wait.
func (s *Server) readAt(co *core.Coroutine, m *kv.ClientRequest, idx uint64, op string, tc xtrace.Context, confirm xtrace.Span) codec.Message {
	if s.lastApplied < idx {
		sig := core.NewSignalEvent()
		s.appliedWaiters = append(s.appliedWaiters, appliedWaiter{idx: idx, sig: sig})
		if co.WaitFor(sig, commitTimeout) != core.WaitReady {
			return &kv.ClientResponse{OK: false, Err: op + ": apply lag"}
		}
	}
	res := s.sm.Store().Apply(m.Cmd)
	if !confirm.Start.IsZero() {
		end := time.Now()
		confirm.Parent, confirm.Res = s.trc.NewSpanID(), xtrace.Net
		s.trc.Record(tc, confirm)
		if end.Sub(confirm.End) > traceNoise {
			s.trc.Record(tc, xtrace.Span{Parent: confirm.Parent, Name: op + ".apply-wait",
				Node: s.cfg.ID, Res: xtrace.Queue, Start: confirm.End, End: end})
		}
		s.trc.Record(tc, xtrace.Span{ID: confirm.Parent, Parent: tc.Span, Name: op,
			Node: s.cfg.ID, Res: xtrace.CPU, Start: confirm.Start, End: end})
	}
	return &kv.ClientResponse{OK: true, Found: res.Found, Value: res.Value, Pairs: res.Pairs}
}

// handleAppendEntries services replication and heartbeats on a
// follower.
func (s *Server) handleAppendEntries(co *core.Coroutine, from string, req codec.Message) codec.Message {
	m := req.(*AppendEntries)
	s.e.Compute(followerComputePerOp)
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

	// A success vouches for the log through vouched and no further: what
	// this follower holds past it may differ from the leader's log
	// (Raft Fig. 2). Trimming entries covered by our snapshot keeps it.
	vouched := m.PrevLogIndex + uint64(len(m.Entries))
	if !s.trimSnapshotCovered(m) {
		return &AppendEntriesReply{Term: s.term, Success: true, LastIndex: vouched, From: s.cfg.ID, LeaderSlow: leaderSlow, SelfSlow: selfSlow}
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
		if co.WaitFor(fsync, diskWaitTimeout) != core.WaitReady {
			return &AppendEntriesReply{Term: s.term, Success: false, LastIndex: s.wal.LastIndex(), From: s.cfg.ID, LeaderSlow: leaderSlow, SelfSlow: selfSlow}
		}
		fsyncUs = time.Since(fsStart).Microseconds()
	}

	if limit := min(m.LeaderCommit, vouched); limit > s.commitIndex {
		s.commitIndex = limit
		s.applyUpTo()
	}
	return &AppendEntriesReply{Term: s.term, Success: true, LastIndex: vouched, From: s.cfg.ID, LeaderSlow: leaderSlow, SelfSlow: selfSlow, FsyncUs: fsyncUs}
}

// heartbeatLoop broadcasts empty AppendEntries while leader of term.
// Replies are folded in via event hooks — no waits at all, so a slow
// follower cannot delay the next beat.
func (s *Server) heartbeatLoop(co *core.Coroutine, term uint64) {
	for s.role == Leader && s.term == term && !s.stopped {
		for _, p := range s.others() {
			ev := s.heartbeat(p, term)
			judge := s.appendJudge(p, nil, 0, term)
			core.OnEvent(ev, func() { judge(ev.Value(), ev.Err()) })
		}
		if err := co.Sleep(s.cfg.HeartbeatInterval); err != nil {
			return
		}
	}
}

// heartbeat sends p an empty AppendEntries anchored at its match index,
// which it is known to hold: the follower may commit up to there, and a
// replicating peer's pipeline is never questioned by one.
func (s *Server) heartbeat(p string, term uint64) *core.ResultEvent {
	match := s.prs[p].match
	return s.ep.Call(p, &AppendEntries{
		Term:         term,
		Leader:       s.cfg.ID,
		PrevLogIndex: match,
		PrevLogTerm:  s.termOf(match),
		LeaderCommit: s.commitIndex,
		SentAtNs:     time.Now().UnixNano(),
	})
}

// Replication progress. Every other member, voter or learner, has one
// progress on the leader (the etcd-raft Progress shape): match is the
// highest index known to be on it, next the first index to send it, and
// state says how to reach it. The fan-out (batch.go flush) feeds a
// replicating peer whose next is the batch's first index; everything
// else — the gap behind a probe or a lagging replicate, and snapshots —
// is shipped by the peer's one sender coroutine, clocked by the peer's
// own replies and bounded by its outbox window. No timer paces it: a
// slow peer is sent as fast as it answers.
type progress struct {
	next, match uint64
	state       peerState
	kick        *core.SignalEvent // what the parked sender waits on
}

// peerState is how the leader reaches one peer.
type peerState uint8

const (
	// replicating: the peer takes the fan-out, and catch-up pipelines up
	// to its outbox window.
	replicating peerState = iota
	// probing: where the peer's log ends is unknown; one message at a
	// time, its reply places next.
	probing
	// snapshotting: the snapshot is the only message in flight.
	snapshotting
)

// wake unparks the peer's sender so it looks at the state again.
func (pr *progress) wake() {
	if pr.kick != nil {
		pr.kick.Set()
	}
}

// probe drops the peer to probing at next.
func (pr *progress) probe(next uint64) { pr.state, pr.next = probing, next }

// onAppend folds the outcome of an AppendEntries that carried entries
// through last — reply is nil when none came back — and reports whether
// the peer acked last.
func (pr *progress) onAppend(reply *AppendEntriesReply, last uint64) bool {
	switch {
	case reply == nil:
		// Discarded, overflowed, timed out or refused: what the peer
		// holds past match is unknown.
		pr.probe(pr.match + 1)
	case reply.Success:
		pr.match = max(pr.match, reply.LastIndex)
		pr.next = max(pr.next, pr.match+1)
		if pr.state == probing {
			pr.state = replicating
		}
		return reply.LastIndex >= last
	case reply.LastIndex >= pr.match:
		// A log mismatch: the hint is the follower's last index below the
		// rejected one. (A hint under match answers a message a later
		// success overtook, and changes nothing.)
		pr.probe(max(pr.match+1, min(reply.LastIndex+1, pr.next)))
	}
	return false
}

// track starts leader-side progress for p and its sender coroutine,
// which lives exactly as long as this progress does.
func (s *Server) track(p string, pr *progress) {
	s.prs[p] = pr
	term := s.term
	s.rt.Spawn("replicate-"+p, func(co *core.Coroutine) { s.sendLoop(co, p, pr, term) })
}

// sendLoop is p's sender: it ships what p may be sent, then parks on a
// fresh kick until an outcome toward p (a heartbeat's included), a
// flush that left p out, or a leadership or membership change wakes
// it. A send that fails before reaching the wire also parks it, so a
// peer that cannot be reached is retried at the heartbeat's pace.
func (s *Server) sendLoop(co *core.Coroutine, p string, pr *progress, term uint64) {
	for s.role == Leader && s.term == term && s.prs[p] == pr && !s.stopped {
		if s.sendNext(co, p, pr, term) {
			continue
		}
		pr.kick = core.NewSignalEvent()
		if co.Wait(pr.kick) != nil {
			return
		}
	}
}

// sendNext sends p's next catch-up message if its state and outbox
// window admit one: the snapshot when p's gap is compacted away (or p
// is quarantined and a snapshot covers the gap), else entries from
// next, up to RepairBatch of them — none for a probe at the tip. It
// reports whether to look again at once: a message went on the wire, or
// the state moved while the entries were read from the WAL.
func (s *Server) sendNext(co *core.Coroutine, p string, pr *progress, term uint64) bool {
	snap := s.snapIndex > 0 && pr.match < s.snapIndex &&
		(pr.next < s.wal.FirstIndex() || s.quarantined[p])
	window := 1 // a probe and a snapshot travel alone
	if pr.state == replicating && !snap {
		window = s.cfg.OutboxWindow
	}
	ob := s.outboxes[p]
	if pr.state == snapshotting || ob.QueueLen()+ob.Inflight() >= window ||
		!snap && pr.state == replicating && pr.next > s.wal.LastIndex() {
		return false
	}
	ev := core.NewResultEvent("rpc", p)
	if snap {
		s.sendSnapshot(p, pr, term, ev)
		return !ev.Ready()
	}
	lo, state := pr.next, pr.state
	hi := min(s.wal.LastIndex(), lo+uint64(s.cfg.RepairBatch)-1)
	prevTerm := s.termOf(lo - 1)
	entries, cached := s.gatherEntries(lo, hi)
	if !cached {
		// Read the WAL without blocking the runtime: a fail-slow disk
		// costs this peer a retry and nobody else a wait.
		read := s.wal.ReadAsync(lo, hi)
		switch co.WaitFor(read, diskWaitTimeout) {
		case core.WaitStopped:
			return false // the park that follows returns at once
		case core.WaitTimeout:
			return true
		}
		if s.role != Leader || s.term != term || s.prs[p] != pr || pr.next != lo || pr.state != state {
			return true
		}
		entries, _ = read.Value().([]storage.Entry)
	}
	pr.next = hi + 1
	s.RepairSends.Inc()
	judge := s.appendJudge(p, pr, hi, term)
	core.OnEvent(ev, func() { judge(ev.Value(), ev.Err()) })
	s.outboxes[p].Send(&AppendEntries{
		Term:         term,
		Leader:       s.cfg.ID,
		PrevLogIndex: lo - 1,
		PrevLogTerm:  prevTerm,
		Entries:      entries,
		LeaderCommit: s.commitIndex,
	}, ev, int64(hi))
	return !ev.Ready()
}

// gatherEntries returns [lo,hi] from the entry cache if fully
// resident (an empty range always is); otherwise reports a cache miss
// so the caller reads the WAL.
func (s *Server) gatherEntries(lo, hi uint64) ([]storage.Entry, bool) {
	if hi < lo {
		return nil, true
	}
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
