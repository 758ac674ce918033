// Package kv provides the replicated key-value store pieces shared by
// DepFastRaft and the baseline RSMs: the deterministic state machine,
// the serializable command format, and the client request/response
// wire messages with session-based exactly-once semantics.
package kv

import (
	"sort"

	"depfast/internal/codec"
)

// OpKind is a state-machine operation.
type OpKind int

const (
	// OpPut sets a key.
	OpPut OpKind = iota
	// OpGet reads a key.
	OpGet
	// OpDelete removes a key.
	OpDelete
	// OpScan reads up to ScanLen keys starting at Key.
	OpScan
	// OpCAS atomically replaces Key's value with Value when the
	// current value equals Expect (absent counts as empty Expect).
	OpCAS
)

// String names the operation.
func (o OpKind) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpCAS:
		return "cas"
	}
	return "unknown"
}

// Command is one deterministic state-machine operation. Commands are
// embedded in replicated log entries.
type Command struct {
	Op      OpKind
	Key     string
	Value   []byte
	ScanLen int
	// Expect is the precondition value for OpCAS.
	Expect []byte
}

// Encode serializes the command for a log entry.
func (c Command) Encode() []byte {
	e := codec.NewEncoder(c.size())
	c.appendTo(e)
	return e.Bytes()
}

// size is len(c.Encode()).
func (c Command) size() int {
	return codec.SizeInt64(int64(c.Op)) + codec.SizeBytes(len(c.Key)) + codec.SizeBytes(len(c.Value)) +
		codec.SizeInt64(int64(c.ScanLen)) + codec.SizeBytes(len(c.Expect))
}

func (c Command) appendTo(e *codec.Encoder) {
	e.Int(int(c.Op))
	e.String(c.Key)
	e.BytesField(c.Value)
	e.Int(c.ScanLen)
	e.BytesField(c.Expect)
}

// DecodeCommand parses a command from entry data. Value and Expect are
// views of data (see the codec package's frame-ownership rule).
func DecodeCommand(data []byte) (Command, error) {
	d := codec.NewDecoder(data)
	c := Command{
		Op:  OpKind(d.Int()),
		Key: d.String(),
	}
	c.Value = d.View()
	c.ScanLen = d.Int()
	c.Expect = d.View()
	return c, d.Err()
}

// Pair is one key-value pair in a scan result.
type Pair struct {
	Key   string
	Value []byte
}

// Result is the outcome of applying a command.
type Result struct {
	Found bool
	Value []byte
	Pairs []Pair
}

// Store is the in-memory state machine. It is not internally
// synchronized: the owning runtime applies commands serially.
type Store struct {
	m map[string][]byte
	// sortedKeys caches the key order for scans; invalidated by writes.
	sortedKeys []string
	dirty      bool
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{m: make(map[string][]byte)}
}

// Len returns the number of keys.
func (s *Store) Len() int { return len(s.m) }

// Apply executes cmd deterministically and returns its result.
func (s *Store) Apply(cmd Command) Result {
	switch cmd.Op {
	case OpPut:
		v := make([]byte, len(cmd.Value))
		copy(v, cmd.Value)
		if _, exists := s.m[cmd.Key]; !exists {
			s.dirty = true
		}
		s.m[cmd.Key] = v
		return Result{Found: true}
	case OpGet:
		v, ok := s.m[cmd.Key]
		return Result{Found: ok, Value: v}
	case OpDelete:
		_, ok := s.m[cmd.Key]
		if ok {
			delete(s.m, cmd.Key)
			s.dirty = true
		}
		return Result{Found: ok}
	case OpScan:
		return s.scan(cmd.Key, cmd.ScanLen)
	case OpCAS:
		cur := s.m[cmd.Key]
		if !bytesEqual(cur, cmd.Expect) {
			return Result{Found: false, Value: cur}
		}
		v := make([]byte, len(cmd.Value))
		copy(v, cmd.Value)
		if _, exists := s.m[cmd.Key]; !exists {
			s.dirty = true
		}
		s.m[cmd.Key] = v
		return Result{Found: true}
	}
	return Result{}
}

// bytesEqual treats nil and empty as equal, so a CAS with an empty
// Expect succeeds on an absent key.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scan returns up to n pairs with keys >= start, in key order.
func (s *Store) scan(start string, n int) Result {
	if n <= 0 {
		n = 1
	}
	if s.dirty || s.sortedKeys == nil {
		s.sortedKeys = s.sortedKeys[:0]
		for k := range s.m {
			s.sortedKeys = append(s.sortedKeys, k)
		}
		sort.Strings(s.sortedKeys)
		s.dirty = false
	}
	i := sort.SearchStrings(s.sortedKeys, start)
	var pairs []Pair
	for ; i < len(s.sortedKeys) && len(pairs) < n; i++ {
		k := s.sortedKeys[i]
		pairs = append(pairs, Pair{Key: k, Value: s.m[k]})
	}
	return Result{Found: len(pairs) > 0, Pairs: pairs}
}

// MergePairs k-way merges sorted scan-result fragments (as returned by
// OpScan on independent stores) into one key-ordered slice of at most
// limit pairs (limit <= 0 means unlimited). Duplicate keys across
// fragments keep the first fragment's value; fragments are assumed
// internally sorted and are not modified. A sharded router uses this
// to assemble a cross-shard scan from per-shard results.
func MergePairs(limit int, lists ...[]Pair) []Pair {
	idx := make([]int, len(lists))
	var out []Pair
	for limit <= 0 || len(out) < limit {
		best := -1
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if best < 0 || l[idx[i]].Key < lists[best][idx[best]].Key {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p := lists[best][idx[best]]
		idx[best]++
		if n := len(out); n > 0 && out[n-1].Key == p.Key {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Message tags for the client protocol (range 100–199).
const (
	TagClientRequest  = 101
	TagClientResponse = 102
)

// ClientRequest carries one command from a client session. ClientID
// and Seq implement exactly-once application: a server remembers the
// last applied Seq per client and returns the cached result on
// duplicates. TraceID/TraceSpan/TraceSampled propagate the xtrace
// causal context across the wire: the server parents its commit
// pipeline spans under TraceSpan (the client's RPC-attempt span) so
// the client's trace tree spans processes. Zero TraceID = untraced.
type ClientRequest struct {
	ClientID uint64
	Seq      uint64
	Cmd      Command

	TraceID      uint64
	TraceSpan    uint64
	TraceSampled bool

	// FollowerRead asks a non-leader replica to serve this Get locally
	// (after confirming a read index with the leader) instead of
	// bouncing NotLeader — the hedged-read path. Leaders ignore it.
	FollowerRead bool
}

// TypeTag implements codec.Message.
func (m *ClientRequest) TypeTag() uint32 { return TagClientRequest }

// MarshalTo implements codec.Message.
func (m *ClientRequest) MarshalTo(e *codec.Encoder) {
	e.Uint64(m.ClientID)
	e.Uint64(m.Seq)
	// The command's bytes exactly as BytesField(Cmd.Encode()), written in
	// place.
	e.Uint64(uint64(m.Cmd.size()))
	m.Cmd.appendTo(e)
	e.Uint64(m.TraceID)
	e.Uint64(m.TraceSpan)
	e.Bool(m.TraceSampled)
	e.Bool(m.FollowerRead)
}

// Size implements codec.Sizer.
func (m *ClientRequest) Size() int {
	return codec.SizeUint64(m.ClientID) + codec.SizeUint64(m.Seq) + codec.SizeBytes(m.Cmd.size()) +
		codec.SizeUint64(m.TraceID) + codec.SizeUint64(m.TraceSpan) + 2
}

// UnmarshalFrom implements codec.Message.
func (m *ClientRequest) UnmarshalFrom(d *codec.Decoder) {
	m.ClientID = d.Uint64()
	m.Seq = d.Uint64()
	cmd, err := DecodeCommand(d.View())
	if err == nil {
		m.Cmd = cmd
	}
	m.TraceID = d.Uint64()
	m.TraceSpan = d.Uint64()
	m.TraceSampled = d.Bool()
	m.FollowerRead = d.Bool()
}

// ClientResponse answers a ClientRequest.
type ClientResponse struct {
	OK         bool
	NotLeader  bool
	LeaderHint string
	Found      bool
	Value      []byte
	Pairs      []Pair
	Err        string
}

// TypeTag implements codec.Message.
func (m *ClientResponse) TypeTag() uint32 { return TagClientResponse }

// MarshalTo implements codec.Message.
func (m *ClientResponse) MarshalTo(e *codec.Encoder) {
	e.Bool(m.OK)
	e.Bool(m.NotLeader)
	e.String(m.LeaderHint)
	e.Bool(m.Found)
	e.BytesField(m.Value)
	e.Int(len(m.Pairs))
	for _, p := range m.Pairs {
		e.String(p.Key)
		e.BytesField(p.Value)
	}
	e.String(m.Err)
}

// Size implements codec.Sizer.
func (m *ClientResponse) Size() int {
	n := 3 + codec.SizeBytes(len(m.LeaderHint)) + codec.SizeBytes(len(m.Value)) +
		codec.SizeInt64(int64(len(m.Pairs))) + codec.SizeBytes(len(m.Err))
	for _, p := range m.Pairs {
		n += codec.SizeBytes(len(p.Key)) + codec.SizeBytes(len(p.Value))
	}
	return n
}

// UnmarshalFrom implements codec.Message.
func (m *ClientResponse) UnmarshalFrom(d *codec.Decoder) {
	m.OK = d.Bool()
	m.NotLeader = d.Bool()
	m.LeaderHint = d.String()
	m.Found = d.Bool()
	m.Value = d.View()
	n := d.Int()
	if n < 0 || n > 1<<20 {
		return
	}
	m.Pairs = make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		m.Pairs = append(m.Pairs, Pair{Key: d.String(), Value: d.View()})
	}
	m.Err = d.String()
}

func init() {
	codec.Register(TagClientRequest, func() codec.Message { return new(ClientRequest) })
	codec.Register(TagClientResponse, func() codec.Message { return new(ClientResponse) })
}

// Sessions implements exactly-once command application over a Store:
// duplicate (ClientID, Seq) pairs return the cached result without
// re-applying.
type Sessions struct {
	store   *Store
	lastSeq map[uint64]uint64
	lastRes map[uint64]Result
}

// NewSessions wraps store with session tracking.
func NewSessions(store *Store) *Sessions {
	return &Sessions{
		store:   store,
		lastSeq: make(map[uint64]uint64),
		lastRes: make(map[uint64]Result),
	}
}

// Store returns the wrapped store.
func (s *Sessions) Store() *Store { return s.store }

// Apply applies the request exactly once. Reordered stale requests
// (Seq lower than the last applied) return the latest cached result —
// clients issue one request at a time, so this only happens on
// retries.
func (s *Sessions) Apply(clientID, seq uint64, cmd Command) Result {
	if last, ok := s.lastSeq[clientID]; ok && seq <= last {
		return s.lastRes[clientID]
	}
	res := s.store.Apply(cmd)
	s.lastSeq[clientID] = seq
	s.lastRes[clientID] = res
	return res
}
