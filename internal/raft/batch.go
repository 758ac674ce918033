package raft

import (
	"slices"
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/kv"
	"depfast/internal/obs"
	"depfast/internal/storage"
	"depfast/internal/xtrace"
)

// The commit path: the only way an entry enters the leader's log.
//
// A proposer joins the open batch. A batch is flushed — one WAL append
// (one fsync), one AppendEntries shared by every peer in step, one
// QuorumEvent with the leader's own fsync judged in — at once while
// fewer than OutboxWindow batches await their quorum, otherwise the
// moment one of them completes, taking everything that queued
// meanwhile. An idle leader thus commits batches of one with no added
// wait, and a saturated one never queues in a healthy follower's
// outbox. The gate counts quorums, never per-peer acks: a fail-slow
// minority cannot close it, its outbox still fills and is still
// discarded after each quorum, and a peer that is behind is a non-ack
// its own sender catches up (replication.go).
//
// Every member is its own request coroutine waiting once on the batch's
// shared QuorumEvent. The first to wake commits, discards and flushes
// the next batch; each then takes its own result by index. No committer
// coroutine sits between a request and its quorum: on a busy leader
// every extra hand-off costs a full pass of the ready queue.

// proposal is one entry on its way into the log.
type proposal struct {
	data []byte
	cc   *ConfChange // a membership entry: takes effect on append
	idx  uint64      // assigned at flush

	enq        time.Time // when the proposer arrived
	ready, run time.Time // its coroutine's run-queue wait before that

	// tc is the request's causal trace context; span ids are allocated
	// up front so children recorded as they complete (fsync hook,
	// replication judges) can link to parents materialized at the end.
	// joined is when a traced proposer was past the write stall and in
	// its batch.
	tc               xtrace.Context
	rootID, quorumID uint64
	joined           time.Time
}

// commitBatch is a group of proposals sharing one append, one fan-out
// and one quorum.
type commitBatch struct {
	term    uint64
	members []*proposal
	q       *core.QuorumEvent
	err     error // set when the batch failed before reaching the wire

	flushed   bool // appended and fanned out: holds a gate slot
	released  bool // gate slot given back
	committed bool // first waker advanced the commit index

	flushAt, appendDone, fanned, quorumAt time.Time
}

func (b *commitBatch) last() uint64 { return b.members[len(b.members)-1].idx }

// traceNoise is the shortest wait worth a span of its own.
const traceNoise = 500 * time.Microsecond

// commit appends one entry — a client command, the election no-op
// (nil data) or, when cc is set, a membership change — and returns its
// index and applied result once a quorum holds it durably.
func (s *Server) commit(co *core.Coroutine, data []byte, cc *ConfChange, tc xtrace.Context) (uint64, kv.Result, error) {
	if s.role != Leader {
		return 0, kv.Result{}, ErrNotLeader
	}
	term := s.term
	m := &proposal{data: data, cc: cc, enq: time.Now(), ready: co.ReadyAt(), run: co.RunAt()}
	// The write stall is taken BEFORE the entry joins a batch: stalling
	// between append and fan-out would let concurrent commits put index
	// n+1 on the wire ahead of n, and a follower that sees the gap
	// rejects — a stall burst would surface as spurious leadership-lost
	// errors instead of latency. Admission-side backpressure keeps
	// append→fan-out free of yields, so wire order is log order.
	s.admitDirtyWAL(co)
	if s.role != Leader || s.term != term || s.stopped {
		return 0, kv.Result{}, ErrDeposed
	}
	if cc != nil {
		if err := s.validateConfChange(cc); err != nil {
			return 0, kv.Result{}, err
		}
		m.data = codec.Marshal(cc)
	}
	s.Proposals.Inc()
	if s.trc != nil && tc.Active() {
		m.tc, m.rootID, m.quorumID = tc, s.trc.NewSpanID(), s.trc.NewSpanID()
		m.joined = time.Now()
	}
	b := s.join(m)
	s.flushPending()

	var err error
	switch co.WaitQuorum(b.q, commitTimeout) {
	case core.QuorumOK:
		if s.role != Leader || s.term != term {
			err = ErrDeposed
		}
	case core.QuorumStopped:
		err = ErrStopping
	case core.QuorumRejected:
		if err = b.err; err == nil {
			err = ErrDeposed
		}
	default:
		err = ErrCommitTimeout
	}
	if !b.flushed {
		s.leave(b, m)
		return 0, kv.Result{}, err
	}
	s.settle(b, err == nil, co)
	if err != nil {
		return 0, kv.Result{}, err
	}
	res, _ := s.takeResult(m.idx)
	if s.commitHist != nil {
		s.commitHist.Record(time.Since(m.enq))
	}
	if m.tc.Active() {
		s.traceCommit(b, m)
	}
	return m.idx, res, nil
}

// join adds m to the open batch, opening one if none has room. The
// quorum is created here so a member parks exactly once; its shape is
// declared at flush, when the targets are known.
func (s *Server) join(m *proposal) *commitBatch {
	if n := len(s.pending); n > 0 && len(s.pending[n-1].members) < s.cfg.RepairBatch {
		b := s.pending[n-1]
		b.members = append(b.members, m)
		return b
	}
	b := &commitBatch{term: s.term, members: []*proposal{m},
		q: core.NewQuorumEvent(len(s.mem.voters), s.majority())}
	s.pending = append(s.pending, b)
	return b
}

// leave withdraws m from a batch that never reached the log (its wait
// timed out or the server is stopping while the gate was closed).
func (s *Server) leave(b *commitBatch, m *proposal) {
	b.members = slices.DeleteFunc(b.members, func(x *proposal) bool { return x == m })
	if len(b.members) == 0 {
		s.pending = slices.DeleteFunc(s.pending, func(x *commitBatch) bool { return x == b })
	}
}

// flushPending flushes queued batches, oldest first, while the gate is
// open. A batch only ever queues behind a closed gate, so flushing in
// queue order keeps wire order equal to log order.
func (s *Server) flushPending() {
	for len(s.pending) > 0 && s.awaiting < s.cfg.OutboxWindow {
		b := s.pending[0]
		s.pending = slices.Delete(s.pending, 0, 1)
		s.flush(b)
	}
}

// failPending fails every batch still queued behind the gate.
func (s *Server) failPending(err error) {
	for _, b := range s.pending {
		s.failBatch(b, err)
	}
	s.pending = nil
}

// failBatch resolves an unflushed batch with err: its members wake from
// their quorum wait with a reject.
func (s *Server) failBatch(b *commitBatch, err error) {
	b.err = err
	for !b.q.RejectReady() {
		b.q.AddReject()
	}
}

// flush appends b and fans it out, with no yield in between.
func (s *Server) flush(b *commitBatch) {
	if s.role != Leader || s.term != b.term || s.stopped {
		s.failBatch(b, ErrDeposed)
		return
	}
	b.flushAt = time.Now()
	first := s.wal.LastIndex() + 1
	entries := make([]storage.Entry, len(b.members))
	var traced []*proposal
	for i, m := range b.members {
		m.idx = first + uint64(i)
		entries[i] = storage.Entry{Index: m.idx, Term: b.term, Data: m.data}
		if m.tc.Active() {
			traced = append(traced, m)
		}
	}
	fsync, err := s.wal.Append(entries)
	if err != nil {
		s.failBatch(b, err)
		return
	}
	b.flushed = true
	s.awaiting++
	for _, e := range entries {
		s.cache.Put(e)
	}
	s.persistAppend(entries)
	// Effective on append: the new config governs this batch's quorum.
	for _, m := range b.members {
		if m.cc != nil {
			s.adoptConfEntry(m.cc, m.idx)
		}
	}
	s.enrollDirtyFsync(fsync)
	if s.rec != nil || len(traced) > 0 {
		// The local fsync is judged into the quorum like any follower
		// ack, so it can still be in flight when the quorum is met;
		// capture its completion via hook rather than a wait.
		core.OnEvent(fsync, func() {
			b.appendDone = time.Now()
			for _, m := range traced {
				s.trc.Record(m.tc, xtrace.Span{Parent: m.quorumID, Name: "wal.fsync",
					Node: s.cfg.ID, Res: xtrace.Disk, Start: b.flushAt, End: b.appendDone})
			}
		})
	}

	targets := s.broadcastTargets()
	b.q.Reshape(1+len(targets), s.majority())
	b.q.AddJudged(fsync, nil) // the leader's own durable append is one ack
	last := b.last()
	// Encoded once; every peer in step shares it.
	payload := codec.Marshal(&AppendEntries{
		Term:         b.term,
		Leader:       s.cfg.ID,
		PrevLogIndex: first - 1,
		PrevLogTerm:  s.termOf(first - 1),
		Entries:      entries,
		LeaderCommit: s.commitIndex,
	})
	for _, p := range s.others() {
		counted := slices.Contains(targets, p)
		pr := s.prs[p]
		if pr.state != replicating || pr.next != first {
			// Behind: its sender owns the gap, and it cannot ack this
			// batch before closing it — a non-ack, with nothing sent.
			if counted {
				b.q.AddReject()
			}
			pr.wake()
			continue
		}
		pr.next = last + 1
		ev := core.NewResultEvent("rpc", p)
		judge := s.appendJudge(p, pr, last, b.term)
		if counted {
			for _, m := range traced {
				judge = s.tracedJudge(judge, m.tc, m.quorumID, p)
			}
			b.q.AddJudged(ev, judge)
		} else {
			// Learners and quarantined voters take the stream; no quorum
			// waits on them.
			core.OnEvent(ev, func() { judge(ev.Value(), ev.Err()) })
		}
		s.outboxes[p].SendPayload(payload, ev, int64(last))
	}
	b.fanned = time.Now()
}

// settle runs on every member that wakes from a flushed batch's quorum
// wait; only the first does the work. On a met quorum that is the
// commit: discard what is still queued for straggling voters (which
// drops them to probing, and their senders catch them up; learners
// keep their queue), advance the commit index and apply. Whatever the
// outcome, the batch's gate slot goes back once and the next queued
// batch is flushed. co is the member that just woke.
func (s *Server) settle(b *commitBatch, ok bool, co *core.Coroutine) {
	if ok && !b.committed {
		b.committed = true
		last := b.last()
		if s.cfg.QuorumDiscard {
			for _, p := range s.otherVoters() {
				if s.prs[p].match < last {
					s.outboxes[p].CancelBelow(int64(last))
				}
			}
		}
		b.quorumAt = time.Now()
		s.advanceCommit(last)
		s.emitCommitSpan(b, co.RunAt().Sub(co.ReadyAt()))
	}
	if !b.released {
		b.released = true
		s.awaiting--
		s.flushPending()
	}
}

// emitCommitSpan publishes one commit-pipeline span per batch onto the
// flight recorder: the stages of propose→append→replicate→quorum→apply,
// all measured from the oldest member's propose time, so write-stall
// and gate wait stay inside total_us. A zero appendDone means the local
// fsync was still in flight when the quorum was met (a follower
// majority carried the commit), and the append stage is omitted rather
// than guessed. The leader's run queue gets two fields of its own:
// runq_us, what the oldest member's request waited for its first turn
// (before the propose time), and wake_us, how long after the quorum
// fired the first member was running again (inside quorum_us).
func (s *Server) emitCommitSpan(b *commitBatch, wake time.Duration) {
	if s.rec == nil {
		return
	}
	start, applyAt := b.members[0].enq, time.Now()
	f := map[string]float64{
		"index":        float64(b.last()),
		"count":        float64(len(b.members)),
		"replicate_us": float64(b.fanned.Sub(start).Microseconds()),
		"quorum_us":    float64(b.quorumAt.Sub(start).Microseconds()),
		"apply_us":     float64(applyAt.Sub(b.quorumAt).Microseconds()),
		"total_us":     float64(applyAt.Sub(start).Microseconds()),
		"runq_us":      float64(b.members[0].run.Sub(b.members[0].ready).Microseconds()),
		"wake_us":      float64(wake.Microseconds()),
	}
	if !b.appendDone.IsZero() {
		f["append_us"] = float64(b.appendDone.Sub(start).Microseconds())
	}
	s.rec.Emit(obs.Event{Type: obs.CommitSpan, Node: s.cfg.ID, Fields: f})
}

// traceCommit records m's own view of its batch: every traced request
// must be able to explain its own latency. The write stall is charged
// to this node's disk — the exact mechanism that puts a fail-slow
// leader disk onto request critical paths — and the gate wait to the
// queue.
func (s *Server) traceCommit(b *commitBatch, m *proposal) {
	now := time.Now()
	if m.run.Sub(m.ready) >= traceNoise {
		s.trc.Record(m.tc, xtrace.Span{Parent: m.tc.Span, Name: "runq",
			Node: s.cfg.ID, Res: xtrace.CPU, Start: m.ready, End: m.run})
	}
	if m.joined.Sub(m.enq) >= traceNoise {
		s.trc.Record(m.tc, xtrace.Span{Parent: m.quorumID, Name: "wal.stall",
			Node: s.cfg.ID, Res: xtrace.Disk, Start: m.enq, End: m.joined})
	}
	if b.flushAt.Sub(m.joined) >= traceNoise {
		s.trc.Record(m.tc, xtrace.Span{Parent: m.quorumID, Name: "batch.queue",
			Node: s.cfg.ID, Res: xtrace.Queue, Start: m.joined, End: b.flushAt})
	}
	s.trc.Record(m.tc, xtrace.Span{ID: m.quorumID, Parent: m.rootID, Name: "quorum",
		Node: s.cfg.ID, Res: xtrace.Queue, Start: m.enq, End: b.quorumAt})
	s.trc.Record(m.tc, xtrace.Span{Parent: m.rootID, Name: "apply",
		Node: s.cfg.ID, Res: xtrace.CPU, Start: b.quorumAt, End: now})
	s.trc.Record(m.tc, xtrace.Span{ID: m.rootID, Parent: m.tc.Span, Name: "commit",
		Node: s.cfg.ID, Res: xtrace.CPU, Start: m.enq, End: now})
}

// admitDirtyWAL is the write stall that keeps a fail-slow disk's dirty
// backlog explicit and bounded: before a proposer may join a batch it
// waits (bounded) for a free dirty-append slot. Quorums carried by
// healthy followers would otherwise let the leader run arbitrarily far
// ahead of its own durability, hiding the fault instead of surfacing it
// to the detectors and the clients of this one shard.
func (s *Server) admitDirtyWAL(co *core.Coroutine) {
	for s.cfg.MaxDirtyAppends > 0 && len(s.dirtyFsyncs) >= s.cfg.MaxDirtyAppends {
		oldest := s.dirtyFsyncs[0]
		s.dirtyFsyncs = s.dirtyFsyncs[1:]
		if !oldest.Ready() {
			s.WALStalls.Inc()
		}
		if co.WaitFor(oldest, diskWaitTimeout) == core.WaitStopped {
			return
		}
	}
}

// enrollDirtyFsync registers a fresh append's flush event with the
// dirty-WAL backlog admitDirtyWAL bounds.
func (s *Server) enrollDirtyFsync(fsync *core.ResultEvent) {
	if s.cfg.MaxDirtyAppends > 0 {
		s.dirtyFsyncs = append(s.dirtyFsyncs, fsync)
	}
}
