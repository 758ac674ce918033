// Dynamic membership: single-server add/remove carried as ConfChange
// log entries (Raft thesis §4.1). A configuration takes effect the
// moment its entry is *appended* — quorums for that entry and
// everything after are counted over the new voter set — and is rolled
// back if the entry is truncated by a conflicting leader. New servers
// join as non-voting learners: they receive the log exactly as voters
// do (one replication progress each: snapshot bootstrap, catch-up,
// then the fan-out), but they are charged to no quorum and start no
// elections, so a slow or lagging joiner cannot stall the group.
// Promotion to voter is a second ConfChange, gated on the learner
// replicating within one batch of the commit index. Safety rails:
// one in-flight change at a time, and a leader never removes itself
// (transfer leadership first).
package raft

import (
	"errors"
	"sort"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/obs"
	"depfast/internal/xtrace"
)

// Membership message tags (Raft range 200–299).
const (
	TagConfChange        = 209
	TagMemberChange      = 210
	TagMemberChangeReply = 211
	TagMembershipQuery   = 212
	TagMembershipInfo    = 213
)

// ConfChange kinds.
const (
	// ConfAddLearner adds a non-voting learner.
	ConfAddLearner = 1
	// ConfPromote promotes a caught-up learner to voter.
	ConfPromote = 2
	// ConfRemove removes a member (voter or learner).
	ConfRemove = 3
)

// Membership-change errors surfaced to callers.
var (
	ErrConfPending   = errors.New("raft: a membership change is already in flight")
	ErrRemoveSelf    = errors.New("raft: leader cannot remove itself; transfer leadership first")
	ErrNotMember     = errors.New("raft: node is not a member")
	ErrAlreadyMember = errors.New("raft: node is already a member")
	ErrLearnerBehind = errors.New("raft: learner has not caught up")
	ErrBadConfChange = errors.New("raft: malformed membership change")
)

// ConfChange is the log-entry payload of one membership change.
type ConfChange struct {
	Kind uint64
	Node string
}

// TypeTag implements codec.Message.
func (m *ConfChange) TypeTag() uint32 { return TagConfChange }

// MarshalTo implements codec.Message.
func (m *ConfChange) MarshalTo(e *codec.Encoder) {
	e.Uint64(m.Kind)
	e.String(m.Node)
}

// UnmarshalFrom implements codec.Message.
func (m *ConfChange) UnmarshalFrom(d *codec.Decoder) {
	m.Kind = d.Uint64()
	m.Node = d.String()
}

// MemberChange asks the leader to run one membership change.
type MemberChange struct {
	Kind uint64
	Node string
}

// TypeTag implements codec.Message.
func (m *MemberChange) TypeTag() uint32 { return TagMemberChange }

// MarshalTo implements codec.Message.
func (m *MemberChange) MarshalTo(e *codec.Encoder) {
	e.Uint64(m.Kind)
	e.String(m.Node)
}

// UnmarshalFrom implements codec.Message.
func (m *MemberChange) UnmarshalFrom(d *codec.Decoder) {
	m.Kind = d.Uint64()
	m.Node = d.String()
}

// MemberChangeReply reports the change's outcome.
type MemberChangeReply struct {
	OK         bool
	NotLeader  bool
	LeaderHint string
	Err        string
	// Index is the committed ConfChange entry's log index (0 when the
	// change was an idempotent no-op).
	Index uint64
}

// TypeTag implements codec.Message.
func (m *MemberChangeReply) TypeTag() uint32 { return TagMemberChangeReply }

// MarshalTo implements codec.Message.
func (m *MemberChangeReply) MarshalTo(e *codec.Encoder) {
	e.Bool(m.OK)
	e.Bool(m.NotLeader)
	e.String(m.LeaderHint)
	e.String(m.Err)
	e.Uint64(m.Index)
}

// UnmarshalFrom implements codec.Message.
func (m *MemberChangeReply) UnmarshalFrom(d *codec.Decoder) {
	m.OK = d.Bool()
	m.NotLeader = d.Bool()
	m.LeaderHint = d.String()
	m.Err = d.String()
	m.Index = d.Uint64()
}

// MembershipQuery asks any server for its current configuration —
// the cheap probe long-lived clients use to stop dialing removed
// servers.
type MembershipQuery struct{}

// TypeTag implements codec.Message.
func (m *MembershipQuery) TypeTag() uint32 { return TagMembershipQuery }

// MarshalTo implements codec.Message.
func (m *MembershipQuery) MarshalTo(e *codec.Encoder) {}

// UnmarshalFrom implements codec.Message.
func (m *MembershipQuery) UnmarshalFrom(d *codec.Decoder) {}

// MembershipInfo answers a MembershipQuery.
type MembershipInfo struct {
	Voters     []string
	Learners   []string
	LeaderHint string
	// Suspects lists members the answering node's fail-slow detector
	// currently suspects, so clients can steer failover rotation and
	// hedge targets away from known-slow replicas.
	Suspects []string
}

// TypeTag implements codec.Message.
func (m *MembershipInfo) TypeTag() uint32 { return TagMembershipInfo }

// MarshalTo implements codec.Message.
func (m *MembershipInfo) MarshalTo(e *codec.Encoder) {
	encodeStrings(e, m.Voters)
	encodeStrings(e, m.Learners)
	e.String(m.LeaderHint)
	encodeStrings(e, m.Suspects)
}

// UnmarshalFrom implements codec.Message.
func (m *MembershipInfo) UnmarshalFrom(d *codec.Decoder) {
	m.Voters = decodeStrings(d)
	m.Learners = decodeStrings(d)
	m.LeaderHint = d.String()
	m.Suspects = decodeStrings(d)
}

func init() {
	codec.Register(TagConfChange, func() codec.Message { return new(ConfChange) })
	codec.Register(TagMemberChange, func() codec.Message { return new(MemberChange) })
	codec.Register(TagMemberChangeReply, func() codec.Message { return new(MemberChangeReply) })
	codec.Register(TagMembershipQuery, func() codec.Message { return new(MembershipQuery) })
	codec.Register(TagMembershipInfo, func() codec.Message { return new(MembershipInfo) })
}

// encodeStrings appends a length-prefixed string list.
func encodeStrings(e *codec.Encoder, ss []string) {
	e.Int(len(ss))
	for _, s := range ss {
		e.String(s)
	}
}

// decodeStrings reads a length-prefixed string list.
func decodeStrings(d *codec.Decoder) []string {
	n := d.Int()
	if n < 0 || n > 1<<20 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String())
	}
	return out
}

// decodeConfChange returns the ConfChange carried by an entry payload,
// or nil for any other payload. The tag peek keeps the common case (a
// kv command) to one varint read.
func decodeConfChange(data []byte) *ConfChange {
	if len(data) == 0 {
		return nil
	}
	d := codec.NewDecoder(data)
	if d.Uint64() != TagConfChange || d.Err() != nil {
		return nil
	}
	msg, err := codec.Unmarshal(data)
	if err != nil {
		return nil
	}
	cc, _ := msg.(*ConfChange)
	return cc
}

// memConfig is one membership configuration: the voter set quorums are
// counted over, plus non-voting learners.
type memConfig struct {
	voters   []string
	learners []string
}

func memConfigFromPeers(peers []string) memConfig {
	v := append([]string(nil), peers...)
	sort.Strings(v)
	return memConfig{voters: v}
}

func (c memConfig) clone() memConfig {
	return memConfig{
		voters:   append([]string(nil), c.voters...),
		learners: append([]string(nil), c.learners...),
	}
}

func (c memConfig) isVoter(node string) bool {
	for _, v := range c.voters {
		if v == node {
			return true
		}
	}
	return false
}

func (c memConfig) isLearner(node string) bool {
	for _, l := range c.learners {
		if l == node {
			return true
		}
	}
	return false
}

func (c memConfig) isMember(node string) bool {
	return c.isVoter(node) || c.isLearner(node)
}

// apply returns the configuration after cc. Changes that do not apply
// (adding an existing member, promoting a non-learner, removing a
// non-member) return the config unchanged, so replaying a conf log is
// idempotent.
func (c memConfig) apply(cc *ConfChange) memConfig {
	out := c.clone()
	switch cc.Kind {
	case ConfAddLearner:
		if !out.isMember(cc.Node) {
			out.learners = append(out.learners, cc.Node)
			sort.Strings(out.learners)
		}
	case ConfPromote:
		if out.isLearner(cc.Node) {
			out.learners = removeString(out.learners, cc.Node)
			out.voters = append(out.voters, cc.Node)
			sort.Strings(out.voters)
		}
	case ConfRemove:
		out.voters = removeString(out.voters, cc.Node)
		out.learners = removeString(out.learners, cc.Node)
	}
	return out
}

func removeString(ss []string, s string) []string {
	out := ss[:0]
	for _, x := range ss {
		if x != s {
			out = append(out, x)
		}
	}
	return out
}

// confRecord remembers one appended-but-not-yet-compacted ConfChange,
// so a truncation can roll the effective config back to the last
// surviving one.
type confRecord struct {
	index uint64
	cfg   memConfig
}

// --- snapshot envelope -------------------------------------------------

// snapMagic marks a snapshot that carries a membership envelope. The
// value exceeds codec.MaxStringLen, so it can never collide with the
// leading length varint of a bare state-machine snapshot — decoding
// falls back to treating such data as state machine only (pre-envelope
// snapshots on disk keep working).
const snapMagic = 0x6d656d62 // "memb"

// encodeSnapshotEnvelope wraps a state-machine snapshot with the
// membership as of the snapshot index.
func encodeSnapshotEnvelope(mem memConfig, sm []byte) []byte {
	e := codec.NewEncoder(len(sm) + 64)
	e.Uint64(snapMagic)
	encodeStrings(e, mem.voters)
	encodeStrings(e, mem.learners)
	e.BytesField(sm)
	return e.Bytes()
}

// decodeSnapshotEnvelope splits a snapshot into membership and
// state-machine bytes. hasMem is false for bare (pre-envelope)
// snapshots, whose data is returned unchanged.
func decodeSnapshotEnvelope(data []byte) (mem memConfig, sm []byte, hasMem bool) {
	d := codec.NewDecoder(data)
	if d.Uint64() != snapMagic || d.Err() != nil {
		return memConfig{}, data, false
	}
	voters := decodeStrings(d)
	learners := decodeStrings(d)
	smData := d.BytesField()
	if d.Err() != nil {
		return memConfig{}, data, false
	}
	return memConfig{voters: voters, learners: learners}, smData, true
}

// --- server-side membership state (baton context only) -----------------

// isVoter reports whether node votes under the effective config.
func (s *Server) isVoter(node string) bool { return s.mem.isVoter(node) }

// isMember reports whether node is a voter or learner.
func (s *Server) isMember(node string) bool { return s.mem.isMember(node) }

// otherVoters returns the effective voters except self — the set
// quorums are counted over.
func (s *Server) otherVoters() []string {
	out := make([]string, 0, len(s.mem.voters))
	for _, p := range s.mem.voters {
		if p != s.cfg.ID {
			out = append(out, p)
		}
	}
	return out
}

// Members reports the published (voters, learners) sets; safe from any
// goroutine.
func (s *Server) Members() ([]string, []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.votersPub...), append([]string(nil), s.learnersPub...)
}

// confChangePending reports whether a ConfChange entry is appended but
// not yet committed, or queued behind the commit gate — the
// one-in-flight safety rail.
func (s *Server) confChangePending() bool {
	for _, b := range s.pending {
		for _, m := range b.members {
			if m.cc != nil {
				return true
			}
		}
	}
	return len(s.confLog) > 0 && s.confLog[len(s.confLog)-1].index > s.commitIndex
}

// validateConfChange vets cc against the effective config before it is
// appended.
func (s *Server) validateConfChange(cc *ConfChange) error {
	if cc.Node == "" {
		return ErrBadConfChange
	}
	if s.confChangePending() {
		return ErrConfPending
	}
	switch cc.Kind {
	case ConfAddLearner:
		if s.isMember(cc.Node) {
			return ErrAlreadyMember
		}
	case ConfPromote:
		if s.isVoter(cc.Node) {
			return ErrAlreadyMember
		}
		if !s.mem.isLearner(cc.Node) {
			return ErrNotMember
		}
		if !s.caughtUp(cc.Node) {
			return ErrLearnerBehind
		}
	case ConfRemove:
		if cc.Node == s.cfg.ID {
			return ErrRemoveSelf
		}
		if !s.isMember(cc.Node) {
			return ErrNotMember
		}
	default:
		return ErrBadConfChange
	}
	return nil
}

// adoptConfEntry makes a freshly appended ConfChange at idx effective:
// the config switches immediately (quorums for this entry already use
// it), the record is kept for rollback, and peer plumbing (outboxes,
// progress and its sender) is synchronized. Runs on leaders (in
// flush) and followers (in handleAppendEntries) alike.
func (s *Server) adoptConfEntry(cc *ConfChange, idx uint64) {
	prev := s.mem
	s.mem = s.mem.apply(cc)
	s.confLog = append(s.confLog, confRecord{index: idx, cfg: s.mem.clone()})
	s.syncPeerPlumbing()
	s.retuneQuarCap()
	if s.role == Leader {
		switch cc.Kind {
		case ConfAddLearner:
			s.rec.Emit(obs.Event{Type: obs.MemberAdded, Node: s.cfg.ID, Peer: cc.Node,
				Detail: "learner", Fields: map[string]float64{"index": float64(idx)}})
		case ConfPromote:
			s.rec.Emit(obs.Event{Type: obs.MemberAdded, Node: s.cfg.ID, Peer: cc.Node,
				Detail: "voter", Fields: map[string]float64{"index": float64(idx)}})
		case ConfRemove:
			detail := "voter"
			if prev.isLearner(cc.Node) {
				detail = "learner"
			}
			s.rec.Emit(obs.Event{Type: obs.MemberRemoved, Node: s.cfg.ID, Peer: cc.Node,
				Detail: detail, Fields: map[string]float64{"index": float64(idx)}})
		}
	}
	s.publish()
}

// rollbackConfTo undoes conf entries at or above idx (the follower is
// truncating a conflicting suffix); the effective config reverts to
// the last surviving record, or the snapshot's config.
func (s *Server) rollbackConfTo(idx uint64) {
	changed := false
	for len(s.confLog) > 0 && s.confLog[len(s.confLog)-1].index >= idx {
		s.confLog = s.confLog[:len(s.confLog)-1]
		changed = true
	}
	if !changed {
		return
	}
	if len(s.confLog) > 0 {
		s.mem = s.confLog[len(s.confLog)-1].cfg.clone()
	} else {
		s.mem = s.snapMem.clone()
	}
	s.syncPeerPlumbing()
	s.publish()
}

// syncPeerPlumbing reconciles per-peer state with the effective
// config: members get an outbox (and, on a leader, a progress with its
// sender); ex-members get their backlog cancelled and their state
// dropped so no coroutine keeps addressing them.
func (s *Server) syncPeerPlumbing() {
	members := make(map[string]bool)
	for _, p := range s.mem.voters {
		members[p] = true
	}
	for _, p := range s.mem.learners {
		members[p] = true
	}
	delete(members, s.cfg.ID)

	for p := range members {
		if s.outboxes[p] == nil {
			s.outboxes[p] = s.newOutbox(p)
		}
		if s.role == Leader && s.prs[p] == nil {
			// A joiner may hold nothing: probe from the log's start.
			s.track(p, &progress{next: 1, state: probing})
		}
	}
	quarChanged := false
	for p, ob := range s.outboxes {
		if members[p] {
			continue
		}
		if pr := s.prs[p]; pr != nil {
			delete(s.prs, p)
			pr.wake() // its sender ends
		}
		ob.CancelAll()
		delete(s.outboxes, p)
		delete(s.slowVotes, p)
		delete(s.peerSelfSlow, p)
		if s.quarantined[p] {
			delete(s.quarantined, p)
			quarChanged = true
		}
	}
	if quarChanged {
		s.publishQuarantine()
	}
	s.publishMembers()
}

// retuneQuarCap recomputes the quorum-safe quarantine cap after the
// voter set resizes, when the cap was auto-derived at construction.
func (s *Server) retuneQuarCap() {
	if s.autoQuarCap && s.policy != nil && len(s.mem.voters) > 0 {
		s.policy.SetMaxQuarantined(len(s.mem.voters) - (len(s.mem.voters)/2 + 1))
	}
}

// publishMembers refreshes the cross-goroutine membership snapshot.
func (s *Server) publishMembers() {
	voters := append([]string(nil), s.mem.voters...)
	learners := append([]string(nil), s.mem.learners...)
	s.mu.Lock()
	s.votersPub = voters
	s.learnersPub = learners
	s.mu.Unlock()
}

// applyConfChange runs when a ConfChange entry commits and is applied:
// the applied-config watermark advances (snapshots taken at or past
// this index carry the new config), and a removed member's residue —
// detector track, policy track, endpoint reachability — is dropped so
// nothing keeps probing or dialing it.
func (s *Server) applyConfChange(cc *ConfChange) {
	s.memApplied = s.memApplied.apply(cc)
	switch cc.Kind {
	case ConfRemove:
		if cc.Node != s.cfg.ID {
			s.removed[cc.Node] = true
			if s.detector != nil {
				s.detector.Forget(cc.Node)
			}
			if s.policy != nil {
				s.policy.Forget(cc.Node)
			}
			s.ep.SetUnreachable(cc.Node, true)
		}
	case ConfAddLearner:
		delete(s.removed, cc.Node)
		s.ep.SetUnreachable(cc.Node, false)
	}
}

// proposeConf commits one ConfChange through the shared commit path
// (which validates it at the moment it joins a batch) and returns the
// entry index.
func (s *Server) proposeConf(co *core.Coroutine, cc *ConfChange) (uint64, error) {
	idx, _, err := s.commit(co, nil, cc, xtrace.Context{})
	return idx, err
}

// handleMemberChange services an administrative membership change on
// the leader. Already-satisfied changes answer OK without a log entry,
// so retried administration is idempotent.
func (s *Server) handleMemberChange(co *core.Coroutine, from string, req codec.Message) codec.Message {
	m := req.(*MemberChange)
	if s.role != Leader {
		return &MemberChangeReply{NotLeader: true, LeaderHint: s.leaderHint, Err: ErrNotLeader.Error()}
	}
	if s.transferPending {
		return &MemberChangeReply{NotLeader: true, LeaderHint: s.transferTo, Err: ErrNotLeader.Error()}
	}
	switch m.Kind {
	case ConfAddLearner:
		if s.isMember(m.Node) {
			return &MemberChangeReply{OK: true}
		}
	case ConfPromote:
		if s.isVoter(m.Node) {
			return &MemberChangeReply{OK: true}
		}
	case ConfRemove:
		if !s.isMember(m.Node) {
			return &MemberChangeReply{OK: true}
		}
	}
	idx, err := s.proposeConf(co, &ConfChange{Kind: m.Kind, Node: m.Node})
	if err != nil {
		return &MemberChangeReply{
			NotLeader:  errors.Is(err, ErrNotLeader) || errors.Is(err, ErrDeposed),
			LeaderHint: s.leaderHint,
			Err:        err.Error(),
		}
	}
	return &MemberChangeReply{OK: true, Index: idx}
}

// handleMembershipQuery reports the effective configuration from any
// role; clients use it to relearn the member set after a replacement.
func (s *Server) handleMembershipQuery(co *core.Coroutine, from string, req codec.Message) codec.Message {
	info := &MembershipInfo{
		Voters:     append([]string(nil), s.mem.voters...),
		Learners:   append([]string(nil), s.mem.learners...),
		LeaderHint: s.leaderHint,
	}
	if s.detector != nil {
		info.Suspects = s.detector.Suspects()
	}
	return info
}

// caughtUp reports whether learner p may be promoted: it takes the
// fan-out and is within one batch of the commit index. Under saturating
// load a healthy learner trails the tip by the batches in flight, so
// "at the tip" would never hold at any one instant.
func (s *Server) caughtUp(p string) bool {
	pr := s.prs[p]
	return pr != nil && pr.state == replicating && pr.match+uint64(s.cfg.RepairBatch) >= s.commitIndex
}
