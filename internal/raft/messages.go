// Package raft implements DepFastRaft: a Raft-based replicated
// key-value store written in the DepFast style — every cross-node wait
// is a QuorumEvent, so a minority of fail-slow followers cannot
// straggle the leader (§3.4 of the paper).
package raft

import (
	"depfast/internal/codec"
	"depfast/internal/storage"
)

// Message tags for the Raft protocol (range 200–299).
const (
	TagRequestVote        = 201
	TagRequestVoteReply   = 202
	TagAppendEntries      = 203
	TagAppendEntriesReply = 204
)

// encodeEntries appends a length-prefixed entry list.
func encodeEntries(e *codec.Encoder, entries []storage.Entry) {
	e.Int(len(entries))
	for _, en := range entries {
		e.Uint64(en.Index)
		e.Uint64(en.Term)
		e.BytesField(en.Data)
	}
}

// decodeEntries reads a length-prefixed entry list; data views the frame.
func decodeEntries(d *codec.Decoder) []storage.Entry {
	n := d.Int()
	if n < 0 || n > 1<<20 {
		return nil
	}
	out := make([]storage.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, storage.Entry{
			Index: d.Uint64(),
			Term:  d.Uint64(),
			Data:  d.View(),
		})
	}
	return out
}

// RequestVote solicits a vote for Candidate in Term.
type RequestVote struct {
	Term         uint64
	Candidate    string
	LastLogIndex uint64
	LastLogTerm  uint64
	// PreVote marks a non-disruptive probe that does not bump terms.
	PreVote bool
	// Transfer marks a leadership-transfer election; voters skip the
	// leader-stickiness check for it.
	Transfer bool
}

// TypeTag implements codec.Message.
func (m *RequestVote) TypeTag() uint32 { return TagRequestVote }

// MarshalTo implements codec.Message.
func (m *RequestVote) MarshalTo(e *codec.Encoder) {
	e.Uint64(m.Term)
	e.String(m.Candidate)
	e.Uint64(m.LastLogIndex)
	e.Uint64(m.LastLogTerm)
	e.Bool(m.PreVote)
	e.Bool(m.Transfer)
}

// UnmarshalFrom implements codec.Message.
func (m *RequestVote) UnmarshalFrom(d *codec.Decoder) {
	m.Term = d.Uint64()
	m.Candidate = d.String()
	m.LastLogIndex = d.Uint64()
	m.LastLogTerm = d.Uint64()
	m.PreVote = d.Bool()
	m.Transfer = d.Bool()
}

// RequestVoteReply answers a vote solicitation.
type RequestVoteReply struct {
	Term    uint64
	Granted bool
}

// TypeTag implements codec.Message.
func (m *RequestVoteReply) TypeTag() uint32 { return TagRequestVoteReply }

// MarshalTo implements codec.Message.
func (m *RequestVoteReply) MarshalTo(e *codec.Encoder) {
	e.Uint64(m.Term)
	e.Bool(m.Granted)
}

// UnmarshalFrom implements codec.Message.
func (m *RequestVoteReply) UnmarshalFrom(d *codec.Decoder) {
	m.Term = d.Uint64()
	m.Granted = d.Bool()
}

// AppendEntries replicates log entries (empty Entries = heartbeat).
type AppendEntries struct {
	Term         uint64
	Leader       string
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []storage.Entry
	LeaderCommit uint64
	// SentAtNs timestamps the send (heartbeats), letting followers
	// measure propagation delay for slow-leader detection. Zero when
	// unset. Within one simulation process clocks are shared; across
	// real machines this inherits clock-skew caveats.
	SentAtNs int64
}

// TypeTag implements codec.Message.
func (m *AppendEntries) TypeTag() uint32 { return TagAppendEntries }

// MarshalTo implements codec.Message.
func (m *AppendEntries) MarshalTo(e *codec.Encoder) {
	e.Uint64(m.Term)
	e.String(m.Leader)
	e.Uint64(m.PrevLogIndex)
	e.Uint64(m.PrevLogTerm)
	encodeEntries(e, m.Entries)
	e.Uint64(m.LeaderCommit)
	e.Int64(m.SentAtNs)
}

// UnmarshalFrom implements codec.Message.
func (m *AppendEntries) UnmarshalFrom(d *codec.Decoder) {
	m.Term = d.Uint64()
	m.Leader = d.String()
	m.PrevLogIndex = d.Uint64()
	m.PrevLogTerm = d.Uint64()
	m.Entries = decodeEntries(d)
	m.LeaderCommit = d.Uint64()
	m.SentAtNs = d.Int64()
}

// AppendEntriesReply acknowledges (or rejects) an AppendEntries.
type AppendEntriesReply struct {
	Term    uint64
	Success bool
	// LastIndex is the follower's log end on success, or its hint for
	// where the leader should back up to on mismatch.
	LastIndex uint64
	From      string
	// LeaderSlow carries the follower's slow-leader verdict back to the
	// leader: this follower's heartbeat cadence/delay EWMAs say the
	// leader looks fail-slow. The mitigation sentinel counts these
	// votes as a self-observation signal — the cluster telling the
	// leader what it may not see about itself.
	LeaderSlow bool
	// SelfSlow is the inverse channel: this follower's own resource
	// probes (CPU/disk stretch) say *it* is fail-slow. A degraded node
	// often knows before its peers can infer it from round-trips —
	// rejections and empty heartbeats never touch the slow resource —
	// so the verdict rides every reply and the leader's sentinel folds
	// it into quarantine/replacement decisions.
	SelfSlow bool
	// FsyncUs is how long this follower's WAL fsync took for the
	// appended entries, in microseconds. The leader uses it to split a
	// replication span's blame between the follower's disk and the
	// network when attributing a slow request's critical path.
	FsyncUs int64
}

// TypeTag implements codec.Message.
func (m *AppendEntriesReply) TypeTag() uint32 { return TagAppendEntriesReply }

// MarshalTo implements codec.Message.
func (m *AppendEntriesReply) MarshalTo(e *codec.Encoder) {
	e.Uint64(m.Term)
	e.Bool(m.Success)
	e.Uint64(m.LastIndex)
	e.String(m.From)
	e.Bool(m.LeaderSlow)
	e.Bool(m.SelfSlow)
	e.Int64(m.FsyncUs)
}

// UnmarshalFrom implements codec.Message.
func (m *AppendEntriesReply) UnmarshalFrom(d *codec.Decoder) {
	m.Term = d.Uint64()
	m.Success = d.Bool()
	m.LastIndex = d.Uint64()
	m.From = d.String()
	m.LeaderSlow = d.Bool()
	m.SelfSlow = d.Bool()
	m.FsyncUs = d.Int64()
}

func init() {
	codec.Register(TagRequestVote, func() codec.Message { return new(RequestVote) })
	codec.Register(TagRequestVoteReply, func() codec.Message { return new(RequestVoteReply) })
	codec.Register(TagAppendEntries, func() codec.Message { return new(AppendEntries) })
	codec.Register(TagAppendEntriesReply, func() codec.Message { return new(AppendEntriesReply) })
}
