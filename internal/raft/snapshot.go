package raft

import (
	"depfast/internal/codec"
	"depfast/internal/core"
)

// Snapshot message tags.
const (
	TagInstallSnapshot      = 205
	TagInstallSnapshotReply = 206
)

// InstallSnapshot ships the full state machine to a follower whose
// missing log prefix has been compacted away.
type InstallSnapshot struct {
	Term              uint64
	Leader            string
	LastIncludedIndex uint64
	LastIncludedTerm  uint64
	Data              []byte
}

// TypeTag implements codec.Message.
func (m *InstallSnapshot) TypeTag() uint32 { return TagInstallSnapshot }

// MarshalTo implements codec.Message.
func (m *InstallSnapshot) MarshalTo(e *codec.Encoder) {
	e.Uint64(m.Term)
	e.String(m.Leader)
	e.Uint64(m.LastIncludedIndex)
	e.Uint64(m.LastIncludedTerm)
	e.BytesField(m.Data)
}

// UnmarshalFrom implements codec.Message.
func (m *InstallSnapshot) UnmarshalFrom(d *codec.Decoder) {
	m.Term = d.Uint64()
	m.Leader = d.String()
	m.LastIncludedIndex = d.Uint64()
	m.LastIncludedTerm = d.Uint64()
	m.Data = d.BytesField()
}

// InstallSnapshotReply acknowledges a snapshot install.
type InstallSnapshotReply struct {
	Term      uint64
	Success   bool
	LastIndex uint64
	From      string
}

// TypeTag implements codec.Message.
func (m *InstallSnapshotReply) TypeTag() uint32 { return TagInstallSnapshotReply }

// MarshalTo implements codec.Message.
func (m *InstallSnapshotReply) MarshalTo(e *codec.Encoder) {
	e.Uint64(m.Term)
	e.Bool(m.Success)
	e.Uint64(m.LastIndex)
	e.String(m.From)
}

// UnmarshalFrom implements codec.Message.
func (m *InstallSnapshotReply) UnmarshalFrom(d *codec.Decoder) {
	m.Term = d.Uint64()
	m.Success = d.Bool()
	m.LastIndex = d.Uint64()
	m.From = d.String()
}

func init() {
	codec.Register(TagInstallSnapshot, func() codec.Message { return new(InstallSnapshot) })
	codec.Register(TagInstallSnapshotReply, func() codec.Message { return new(InstallSnapshotReply) })
}

// maybeSnapshot compacts the log once enough entries have been
// applied: the state machine (including session dedup state) is
// serialized, the covered prefix is dropped, and the snapshot's write
// cost is charged asynchronously — compaction must not block the
// request path.
func (s *Server) maybeSnapshot() {
	if s.cfg.SnapshotThreshold <= 0 {
		return
	}
	retained := s.lastApplied + 1 - s.wal.FirstIndex()
	if retained < uint64(s.cfg.SnapshotThreshold) {
		return
	}
	s.takeSnapshot()
}

// forceSnapshot compacts regardless of threshold; used before
// bootstrapping a joiner so the InstallSnapshot it receives carries
// the latest applied state (and its membership config).
func (s *Server) forceSnapshot() {
	if s.lastApplied <= s.snapIndex {
		return
	}
	s.takeSnapshot()
}

// takeSnapshot captures state machine + the config as of lastApplied
// into the snapshot envelope, so a restart or a bootstrapping learner
// recovers membership along with data.
func (s *Server) takeSnapshot() {
	s.snapTermVal = s.termOf(s.lastApplied) // capture before compaction
	s.snapIndex = s.lastApplied
	s.snapData = encodeSnapshotEnvelope(s.memApplied, s.sm.Snapshot())
	s.snapMem = s.memApplied.clone()
	// Conf records at or below the snapshot can never be truncated away.
	keep := s.confLog[:0]
	for _, cr := range s.confLog {
		if cr.index > s.snapIndex {
			keep = append(keep, cr)
		}
	}
	s.confLog = keep
	s.wal.CompactTo(s.lastApplied + 1)
	s.Snapshots.Inc()
	s.persistSnapshot(s.snapIndex, s.snapTermVal, s.snapData)
	// Durability cost of writing the snapshot, off the request path.
	_ = s.disk.WriteAsync(len(s.snapData), nil)
}

// sendSnapshot ships the current snapshot to p as ev, the only message
// in flight while pr is snapshotting. The reply is folded in through an
// event hook, never waited on: an ack moves match to the snapshot, and
// either way p goes back to probing past what it is known to hold.
func (s *Server) sendSnapshot(p string, pr *progress, term uint64, ev *core.ResultEvent) {
	snapIdx := s.snapIndex
	pr.state = snapshotting
	core.OnEvent(ev, func() {
		reply, _ := ev.Value().(*InstallSnapshotReply)
		if ev.Err() != nil {
			reply = nil
		}
		if reply != nil && reply.Term > s.term {
			s.stepDown(reply.Term, "")
			return
		}
		if s.role != Leader || s.term != term || s.prs[p] != pr {
			return
		}
		if reply != nil && reply.Success {
			pr.match = max(pr.match, snapIdx)
		}
		pr.probe(pr.match + 1)
		pr.wake()
	})
	s.RepairSends.Inc()
	s.outboxes[p].Send(&InstallSnapshot{
		Term:              term,
		Leader:            s.cfg.ID,
		LastIncludedIndex: snapIdx,
		LastIncludedTerm:  s.snapTermVal,
		Data:              s.snapData,
	}, ev, int64(snapIdx))
}

// handleInstallSnapshot installs a leader snapshot on a follower.
func (s *Server) handleInstallSnapshot(co *core.Coroutine, from string, req codec.Message) codec.Message {
	m := req.(*InstallSnapshot)
	s.e.Compute(followerComputePerOp)
	if m.Term < s.term {
		return &InstallSnapshotReply{Term: s.term, Success: false, LastIndex: s.wal.LastIndex(), From: s.cfg.ID}
	}
	if m.Term > s.term || s.role != Follower {
		s.stepDown(m.Term, m.Leader)
	}
	s.leaderHint = m.Leader
	s.observeHeartbeat()

	if m.LastIncludedIndex <= s.lastApplied || s.termOf(m.LastIncludedIndex) == m.LastIncludedTerm {
		// Stale: we already have everything it covers. Holding its last
		// entry means holding the same prefix, and whatever follows stays
		// (Raft Fig. 13): a late snapshot must not cut below what the
		// leader has since counted as matched.
		return &InstallSnapshotReply{Term: s.term, Success: true, LastIndex: s.wal.LastIndex(), From: s.cfg.ID}
	}
	mem, smData, hasMem := decodeSnapshotEnvelope(m.Data)
	if err := s.sm.Restore(smData); err != nil {
		return &InstallSnapshotReply{Term: s.term, Success: false, LastIndex: s.wal.LastIndex(), From: s.cfg.ID}
	}
	s.wal.ResetTo(m.LastIncludedIndex + 1)
	s.cache.TruncateFrom(1)
	s.snapIndex = m.LastIncludedIndex
	s.snapTermVal = m.LastIncludedTerm
	s.commitIndex = m.LastIncludedIndex
	s.lastApplied = m.LastIncludedIndex
	s.snapData = m.Data
	if hasMem {
		// The snapshot carries the config as of its last included index;
		// adopting it is how a bare spare learns the group it joined.
		s.mem = mem.clone()
		s.snapMem = mem.clone()
		s.memApplied = mem.clone()
		s.confLog = nil
		s.syncPeerPlumbing()
		s.retuneQuarCap()
	}
	s.persistSnapshot(m.LastIncludedIndex, m.LastIncludedTerm, m.Data)
	s.persistTruncate(m.LastIncludedIndex + 1)
	s.publish()

	// Persist the installed snapshot before acknowledging, with a
	// bound: a fail-slow disk yields an explicit failed install the
	// leader can retry, not a handler parked on local I/O.
	fsync := s.disk.WriteAsync(len(m.Data), nil)
	if co.WaitFor(fsync, diskWaitTimeout) != core.WaitReady {
		return &InstallSnapshotReply{Term: s.term, Success: false, LastIndex: s.wal.LastIndex(), From: s.cfg.ID}
	}
	return &InstallSnapshotReply{Term: s.term, Success: true, LastIndex: s.wal.LastIndex(), From: s.cfg.ID}
}

// trimSnapshotCovered adapts an AppendEntries whose prefix is already
// covered by this follower's snapshot. Returns the adjusted message
// and false if the whole message is stale.
func (s *Server) trimSnapshotCovered(m *AppendEntries) bool {
	if m.PrevLogIndex >= s.snapIndex {
		return true
	}
	skip := s.snapIndex - m.PrevLogIndex
	if uint64(len(m.Entries)) <= skip {
		return false // everything covered; stale
	}
	m.Entries = m.Entries[skip:]
	m.PrevLogIndex = s.snapIndex
	m.PrevLogTerm = s.snapTermVal
	return true
}

// SnapshotInfo reports (snapshotIndex, retainedEntries); for tests and
// instrumentation.
func (s *Server) SnapshotInfo() (uint64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapIndexPub, s.walLenPub
}
