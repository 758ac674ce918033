package raft

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/detect"
	"depfast/internal/env"
	"depfast/internal/kv"
	"depfast/internal/metrics"
	"depfast/internal/mitigate"
	"depfast/internal/obs"
	"depfast/internal/rpc"
	"depfast/internal/storage"
	"depfast/internal/transport"
	"depfast/internal/xtrace"
)

// Role is a Raft server role.
type Role int

const (
	// Follower accepts entries from a leader.
	Follower Role = iota
	// Candidate is campaigning for leadership.
	Candidate
	// Leader replicates client commands.
	Leader
)

// String names the role.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return "unknown"
}

// Config parameterizes a DepFastRaft server.
type Config struct {
	// ID is this server's node name; Peers lists all members
	// including self.
	ID    string
	Peers []string

	// Election timing. A follower campaigns after hearing nothing for
	// a random duration in [ElectionTimeoutMin, ElectionTimeoutMax];
	// leaders heartbeat every HeartbeatInterval.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	HeartbeatInterval  time.Duration

	// EntryCacheSize bounds the in-memory entry cache; followers
	// lagging past it are served from the WAL.
	EntryCacheSize int

	// OutboxWindow is each peer connection's in-flight message limit,
	// and the number of batches the commit gate lets await a quorum.
	// QuorumDiscard is the DepFast configuration: the framework drops a
	// straggler's queued backlog once a quorum holds.
	OutboxWindow  int
	QuorumDiscard bool

	// RepairBatch bounds the entries of one batch and of one catch-up
	// message.
	RepairBatch int

	// ReadIndex serves linearizable reads via a leadership-check
	// quorum instead of replicating a log entry.
	ReadIndex bool

	// LeaderLease lets a leader serve ReadIndex reads without the
	// heartbeat quorum while a majority of voters acked traffic sent
	// within the lease window (see lease.go for the safety argument).
	// Requires ReadIndex; expiry falls back to the classic quorum.
	LeaderLease bool

	// MaxDirtyAppends bounds how many un-fsynced leader appends may be
	// outstanding before the commit path takes a bounded wait on the
	// oldest flush — the RocksDB-style write stall from the paper's
	// TiDB case study. Without it a leader whose quorums are carried
	// by healthy followers runs unboundedly ahead of its own fail-slow
	// disk, and the fault never surfaces anywhere. Zero or negative
	// disables the stall.
	MaxDirtyAppends int

	// SnapshotThreshold compacts the log (taking a state-machine
	// snapshot) once this many applied entries are retained; 0
	// disables compaction.
	SnapshotThreshold int

	// Persister, when set, makes the server's Raft state actually
	// durable (term, vote, log, snapshots) through real file I/O, and
	// RecoverServer restores from it after a restart. Nil keeps
	// durability simulated (costs only), which is what experiments
	// use.
	Persister storage.Persister

	// PeerDetector attaches a fail-slow peer detector fed by every
	// RPC round-trip (paper §5: failure detectors from trace points);
	// query it with Server.Detector().
	PeerDetector bool

	// SlowLeaderDetector makes followers monitor heartbeat cadence and
	// campaign proactively when the leader is fail-slow (§5 of the
	// paper: turn a fail-slow leader into a fail-slow follower).
	SlowLeaderDetector  bool
	SlowLeaderThreshold float64 // campaign when EWMA gap exceeds threshold × heartbeat interval

	// Mitigation runs the fail-slow mitigation sentinel: a per-server
	// coroutine that closes the detection→response loop. A leader that
	// observes its own CPU/disk stalls (or a majority of followers
	// voting it slow) hands leadership off; suspected followers are
	// quarantined out of latency-critical quorum waits, their backlog
	// discarded (a snapshot closes their gap when one covers it), then
	// rehabilitated after a run of healthy round-trips. Implies PeerDetector.
	Mitigation bool

	// AutoReplace makes the sentinel's mitigation terminal: a follower
	// the policy condemns (repeated failed rehabilitations, or
	// cumulative slow time past Mitigate.SlowBudget) is permanently
	// removed from the configuration and a node from Spares is joined
	// as a learner, caught up, and promoted — restoring the replication
	// factor while the group keeps serving. Implies Mitigation.
	AutoReplace bool
	// Spares lists standby node names eligible to replace a removed
	// member. They must be registered on the transport and running
	// (typically with an empty Peers list) before a replacement fires.
	Spares []string
	// Mitigate tunes the sentinel (quarantine/probation thresholds);
	// zero fields take mitigate.DefaultConfig. MaxQuarantined left
	// zero defaults to the quorum-safe cap len(Peers) − majority.
	Mitigate mitigate.Config

	// Recorder, when set, publishes this server's observability events
	// onto the shared flight recorder: detector verdict transitions,
	// sentinel actions (handoff/quarantine/rehabilitation), leader
	// elections, and per-entry commit-pipeline spans. Nil disables all
	// emission at zero cost.
	Recorder *obs.Recorder

	// Tracer, when set, records causal per-request span trees: every
	// client request carrying a trace context gets its commit pipeline
	// (fsync, write stall, per-peer replication, quorum, apply)
	// decomposed into (node, resource) spans on this collector. When
	// the peer detector is also enabled, the collector's critical-path
	// blame shares corroborate or veto detector verdicts. Nil disables
	// tracing at zero cost.
	Tracer *xtrace.Collector

	// Metrics, when set, is the live metrics plane this server joins:
	// its counters are attached under their raft.* names and each
	// committed entry's end-to-end latency lands in the
	// "raft.commit.latency" windowed histogram — the registry a node
	// process scrapes over HTTP. Nil disables registration at zero
	// cost.
	Metrics *metrics.Registry

	// Seed randomizes election timeouts deterministically per server.
	Seed int64
}

// DefaultConfig returns laptop-scale timing for id among peers.
func DefaultConfig(id string, peers []string) Config {
	return Config{
		ID:                  id,
		Peers:               peers,
		ElectionTimeoutMin:  150 * time.Millisecond,
		ElectionTimeoutMax:  300 * time.Millisecond,
		HeartbeatInterval:   30 * time.Millisecond,
		EntryCacheSize:      4096,
		OutboxWindow:        16,
		QuorumDiscard:       true,
		RepairBatch:         64,
		SnapshotThreshold:   16384,
		MaxDirtyAppends:     64,
		SlowLeaderThreshold: 8,
		Seed:                seedFor(id),
	}
}

// Fixed timing and sizing that no deployment varies.
const (
	// commitTimeout bounds how long a proposal waits for its quorum, and
	// every RPC this server makes.
	commitTimeout = 2 * time.Second
	// diskWaitTimeout bounds any single coroutine wait on local disk I/O
	// (vote/term persists, log fsyncs, WAL reads). A fail-slow disk then
	// surfaces as an explicit timeout the caller handles — abort the
	// campaign, deny the vote, reject the append — instead of an
	// indefinitely parked coroutine.
	diskWaitTimeout = 2 * time.Second
	// leaderComputePerOp and followerComputePerOp are the nominal CPU
	// costs charged per request — what the CPU fault stretches.
	leaderComputePerOp   = 30 * time.Microsecond
	followerComputePerOp = 15 * time.Microsecond
	// outboxCapacity bounds the queued, unsent backlog toward one peer.
	outboxCapacity = 4096
	// diskHelpers sizes the I/O helper pool.
	diskHelpers = 16
)

// seedFor derives the default election-timeout seed from the full node
// ID (FNV-1a), not just its length: peers are conventionally named
// s1/s2/s3, and length-derived seeds gave every process the *same*
// "random" timeout sequence — separate-process deployments (real TCP,
// no scheduler jitter to break ties) split the vote in perfect
// lockstep forever. Same ID still means same sequence, so seeded
// explorer runs stay reproducible.
func seedFor(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64())
}

// Server is one DepFastRaft node: a DepFast runtime hosting the Raft
// logic, an RPC endpoint, simulated disk + WAL + entry cache, and the
// KV state machine.
type Server struct {
	cfg Config
	rt  *core.Runtime
	ep  *rpc.Endpoint
	e   *env.Env

	disk  *storage.Disk
	wal   *storage.WAL
	cache *storage.EntryCache
	sm    *kv.Sessions

	// Raft state — touched only under the runtime baton.
	term        uint64
	votedFor    string
	role        Role
	leaderHint  string
	commitIndex uint64
	lastApplied uint64

	lastHeartbeat time.Time
	hbLeader      string      // whose cadence the EWMAs describe
	hbGap         detect.EWMA // slow-leader detector: cadence, ns
	hbDelay       detect.EWMA // slow-leader detector: propagation delay, ns

	// Leadership handoff in flight: proposals freeze and clients are
	// bounced to transferTo until the handoff lands or expires.
	transferPending bool
	transferTo      string
	transferExpire  time.Time

	// prs is, on a leader, the replication progress of every other
	// member (see replication.go); outboxes are the peer connections.
	prs      map[string]*progress
	outboxes map[string]*rpc.Outbox

	// Dynamic membership (effective-on-append; see membership.go).
	mem         memConfig       // effective config: governs quorums now
	memApplied  memConfig       // config as of lastApplied (snapshots)
	snapMem     memConfig       // config as of snapIndex (rollback floor)
	confLog     []confRecord    // appended conf entries above snapIndex
	removed     map[string]bool // permanently removed members
	replacing   string          // follower with a replacement in flight
	autoQuarCap bool            // MaxQuarantined tracks the voter count

	// Snapshot state: the log below snapIndex is compacted away.
	snapIndex   uint64
	snapTermVal uint64
	snapData    []byte

	results  map[uint64]kv.Result // applied results awaiting their proposer
	detector *detect.Detector     // nil unless cfg.PeerDetector

	// The commit gate (see batch.go): pending are the batches queued
	// behind it, oldest first; awaiting counts flushed batches whose
	// quorum is still outstanding, bounded by cfg.OutboxWindow.
	pending  []*commitBatch
	awaiting int

	// dirtyFsyncs are the in-flight WAL flush events of leader appends,
	// oldest first; the commit path stalls (bounded) once it exceeds
	// cfg.MaxDirtyAppends.
	dirtyFsyncs []*core.ResultEvent

	// Mitigation state — baton context only, except where noted.
	policy       *mitigate.Policy     // nil unless cfg.Mitigation
	quarantined  map[string]bool      // peers excluded from quorum waits
	selfCPU      *detect.Self         // own-CPU stretch monitor
	selfDisk     *detect.Self         // own-disk stretch monitor
	nominalCPU   time.Duration        // healthy cost of the CPU probe
	nominalDisk  time.Duration        // healthy cost of the disk probe
	slowVotes    map[string]time.Time // followers recently voting LeaderSlow
	peerSelfSlow map[string]time.Time // followers recently advertising their own fail-slow
	selfSlowPub  bool                 // last published self-verdict (flight recorder)

	// rec is the flight recorder (nil-safe; see cfg.Recorder).
	rec *obs.Recorder
	// trc is the causal trace collector (nil-safe; see cfg.Tracer).
	trc *xtrace.Collector
	// commitHist, when metrics are registered, receives each committed
	// entry's end-to-end latency.
	commitHist *metrics.Windowed

	// appliedWaiters wake ReadIndex reads when lastApplied advances.
	appliedWaiters []appliedWaiter

	// Leader-lease state (baton context only; see lease.go). leaseAcks
	// records, per voter, the send time of the newest successfully
	// acked AppendEntries this term; leaseBlockedTerm poisons the lease
	// for a term that started a leadership transfer; termStart is the
	// own-term no-op barrier's index, gating lease reads on its commit.
	leaseAcks        map[string]time.Time
	leaseBlockedTerm uint64
	termStart        uint64

	stopped bool

	// Metrics.
	Proposals    *metrics.Counter
	Commits      *metrics.Counter
	Elections    *metrics.Counter
	RepairSends  *metrics.Counter
	ReadIndexOps *metrics.Counter
	// LeaseReads counts reads served off the lease (no quorum round);
	// LeaseFallbacks counts reads that found the lease invalid and ran
	// the classic ReadIndex quorum instead.
	LeaseReads     *metrics.Counter
	LeaseFallbacks *metrics.Counter
	Snapshots      *metrics.Counter
	WALStalls      *metrics.Counter
	Mitigation     *metrics.Mitigation

	// mu guards cross-goroutine introspection (tests, harness).
	mu sync.Mutex
	// introspection snapshots, updated under baton.
	snapTerm     uint64
	snapRole     Role
	snapLeader   string
	snapCommit   uint64
	snapApplied  uint64
	snapIndexPub uint64
	walLenPub    int
	quarPub      []string // published quarantine list
	votersPub    []string // published effective voters
	learnersPub  []string // published effective learners

	rng *rand.Rand
}

type appliedWaiter struct {
	idx uint64
	sig *core.SignalEvent
}

// NewServer creates a server on tr. The caller must register the
// returned server's TransportHandler with the transport under cfg.ID,
// then call Start.
func NewServer(cfg Config, e *env.Env, tr transport.Transport, opts ...core.Option) *Server {
	if cfg.AutoReplace {
		// Replacement is driven by the sentinel's escalated verdicts.
		cfg.Mitigation = true
	}
	if cfg.Mitigation {
		// The sentinel's quarantine/rehabilitation verdicts come from
		// the peer detector; mitigation cannot run without it.
		cfg.PeerDetector = true
	}
	rt := core.NewRuntime(cfg.ID, opts...)
	s := &Server{
		cfg:            cfg,
		rt:             rt,
		e:              e,
		role:           Follower,
		outboxes:       make(map[string]*rpc.Outbox),
		results:        make(map[uint64]kv.Result),
		sm:             kv.NewSessions(kv.NewStore()),
		Proposals:      metrics.NewCounter("raft.proposals"),
		Commits:        metrics.NewCounter("raft.commits"),
		Elections:      metrics.NewCounter("raft.elections"),
		RepairSends:    metrics.NewCounter("raft.repair_sends"),
		Snapshots:      metrics.NewCounter("raft.snapshots"),
		ReadIndexOps:   metrics.NewCounter("raft.readindex"),
		LeaseReads:     metrics.NewCounter("raft.lease_reads"),
		LeaseFallbacks: metrics.NewCounter("raft.lease_fallbacks"),
		WALStalls:      metrics.NewCounter("raft.wal_stalls"),
		Mitigation:     metrics.NewMitigation(),
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		lastHeartbeat:  time.Now(),
		quarantined:    make(map[string]bool),
		slowVotes:      make(map[string]time.Time),
		peerSelfSlow:   make(map[string]time.Time),
		removed:        make(map[string]bool),
		leaseAcks:      make(map[string]time.Time),
		rec:            cfg.Recorder,
		trc:            cfg.Tracer,
	}
	if reg := cfg.Metrics; reg != nil {
		for _, c := range []*metrics.Counter{
			s.Proposals, s.Commits, s.Elections, s.RepairSends,
			s.Snapshots, s.ReadIndexOps, s.LeaseReads, s.LeaseFallbacks,
			s.WALStalls,
		} {
			reg.Attach(c)
		}
		s.commitHist = reg.Histogram("raft.commit.latency")
	}
	s.mem = memConfigFromPeers(cfg.Peers)
	s.memApplied = s.mem.clone()
	s.snapMem = s.mem.clone()
	if cfg.Mitigation {
		mcfg := cfg.Mitigate.WithDefaults()
		if mcfg.MaxQuarantined == 0 {
			// Quorum-safe cap: even with every slot used, the healthy
			// remainder plus self still forms a majority. Recomputed on
			// every membership change (see adoptConfEntry).
			mcfg.MaxQuarantined = len(cfg.Peers) - (len(cfg.Peers)/2 + 1)
			s.autoQuarCap = true
		}
		s.policy = mitigate.NewPolicy(mcfg)
		s.selfCPU = detect.NewSelf("cpu")
		s.selfDisk = detect.NewSelf("disk")
		// Nominal probe costs are captured now, before any fault lands,
		// so later probes measure the stretch against a healthy baseline.
		s.nominalCPU = e.ComputeCost(time.Millisecond)
		s.nominalDisk = e.DiskWriteCost(4096)
	}
	//depfast:allow framework-split NewServer is the construction seam: the one place logic wires up its I/O layer
	s.disk = storage.NewDisk(rt, e, diskHelpers)
	//depfast:allow framework-split construction seam
	s.wal = storage.NewWAL(s.disk)
	//depfast:allow framework-split construction seam
	s.cache = storage.NewEntryCache(cfg.EntryCacheSize)
	epOpts := []rpc.Option{rpc.WithCallTimeout(commitTimeout)}
	if cfg.PeerDetector {
		s.detector = detect.New(16) // a peer is judged after 16 round trips
		epOpts = append(epOpts, rpc.WithLatencyObserver(s.detector.Observe))
		if s.trc != nil {
			// Trace-derived critical-path blame corroborates or vetoes
			// RTT-based verdicts: a peer that owns the slow tail's
			// critical paths is suspected sooner; one that never appears
			// on them is held to a stricter threshold.
			s.detector.SetCorroborator(s.trc.BlameShare)
		}
		if s.rec != nil {
			s.detector.SetOnVerdict(func(peer string, suspect bool, ewma time.Duration) {
				typ := obs.VerdictCleared
				if suspect {
					typ = obs.VerdictSuspect
				}
				s.rec.Emit(obs.Event{Type: typ, Node: cfg.ID, Peer: peer,
					Fields: map[string]float64{"ewma_us": float64(ewma.Microseconds())}})
			})
		}
	}
	s.ep = rpc.NewEndpoint(cfg.ID, rt, tr, epOpts...)
	for _, p := range s.others() {
		s.outboxes[p] = s.newOutbox(p)
	}
	s.publishMembers()
	s.ep.Handle(TagRequestVote, s.handleRequestVote)
	s.ep.Handle(TagAppendEntries, s.handleAppendEntries)
	s.ep.Handle(TagInstallSnapshot, s.handleInstallSnapshot)
	s.ep.Handle(TagTimeoutNow, s.handleTimeoutNow)
	s.ep.Handle(TagMemberChange, s.handleMemberChange)
	s.ep.Handle(TagMembershipQuery, s.handleMembershipQuery)
	s.ep.Handle(TagReadIndexQuery, s.handleReadIndexQuery)
	s.ep.Handle(kv.TagClientRequest, s.handleClientRequest)
	return s
}

// newOutbox builds the windowed connection toward peer p.
func (s *Server) newOutbox(p string) *rpc.Outbox {
	return rpc.NewOutbox(s.ep, p, rpc.OutboxConfig{
		Window:   s.cfg.OutboxWindow,
		Capacity: outboxCapacity,
		Env:      s.e,
	})
}

// TransportHandler returns the inbound message handler for this node.
func (s *Server) TransportHandler() transport.Handler { return s.ep.TransportHandler() }

// Runtime exposes the server's runtime (for tests and the harness).
func (s *Server) Runtime() *core.Runtime { return s.rt }

// Env returns the server's resource environment (fault injection target).
func (s *Server) Env() *env.Env { return s.e }

// Start launches the background coroutines.
func (s *Server) Start() {
	s.rt.Spawn("election-ticker", s.electionTicker)
	if s.cfg.Mitigation {
		s.rt.Spawn("sentinel", s.sentinelLoop)
	}
}

// Stop shuts the server down.
func (s *Server) Stop() {
	s.rt.Post(func() { s.stopped = true })
	s.ep.Close()
	s.rt.Stop()
	s.disk.Close()
}

// others returns all effective members (voters and learners) except
// self — the set heartbeats and replication address.
func (s *Server) others() []string {
	out := make([]string, 0, len(s.mem.voters)+len(s.mem.learners))
	for _, p := range s.mem.voters {
		if p != s.cfg.ID {
			out = append(out, p)
		}
	}
	for _, p := range s.mem.learners {
		if p != s.cfg.ID {
			out = append(out, p)
		}
	}
	return out
}

// majority returns the quorum size over the effective voter set.
// Learners never count. An idle spare (no config yet) reports a
// sentinel majority it can never reach alone from a client's view —
// it also never campaigns (see electionTicker).
func (s *Server) majority() int {
	if len(s.mem.voters) == 0 {
		return 1
	}
	return len(s.mem.voters)/2 + 1
}

// --- introspection (safe from any goroutine) ---

// publish refreshes the cross-goroutine snapshot; baton context only.
func (s *Server) publish() {
	s.mu.Lock()
	s.snapTerm = s.term
	s.snapRole = s.role
	s.snapLeader = s.leaderHint
	s.snapCommit = s.commitIndex
	s.snapApplied = s.lastApplied
	s.snapIndexPub = s.snapIndex
	s.walLenPub = s.wal.Len()
	s.mu.Unlock()
}

// Status reports (term, role, leader hint) as last published.
func (s *Server) Status() (uint64, Role, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapTerm, s.snapRole, s.snapLeader
}

// AgreedLeader reports the leader of a deployment once a majority of
// its servers agree on it: some server must believe itself Leader and
// at least a quorum must name it in their hints. Returns ("", false)
// during elections and transfers. Callers poll it from outside the
// runtimes (it only reads published status snapshots).
func AgreedLeader(servers map[string]*Server) (string, bool) {
	agree := map[string]int{}
	var lead string
	for _, s := range servers {
		_, role, hint := s.Status()
		if role == Leader {
			lead = hint
		}
		if hint != "" {
			agree[hint]++
		}
	}
	if lead != "" && agree[lead] >= len(servers)/2+1 {
		return lead, true
	}
	return "", false
}

// CommitInfo reports (commitIndex, lastApplied) as last published.
func (s *Server) CommitInfo() (uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapCommit, s.snapApplied
}

// Store returns the state machine (read-only use from tests after
// quiescing).
func (s *Server) Store() *kv.Store { return s.sm.Store() }

// Outbox returns the outbox toward peer (nil if unknown); for tests
// and ablation instrumentation.
func (s *Server) Outbox(peer string) *rpc.Outbox { return s.outboxes[peer] }

// Detector returns the fail-slow peer detector, or nil when
// cfg.PeerDetector is off.
func (s *Server) Detector() *detect.Detector { return s.detector }

// Quarantined reports the peers this server (as leader) currently
// holds in quarantine, as last published. Safe from any goroutine.
func (s *Server) Quarantined() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.quarPub...)
}

// --- shared state transitions (baton context only) ---

// stepDown adopts a higher term and reverts to follower.
func (s *Server) stepDown(term uint64, leader string) {
	if term > s.term {
		s.term = term
		s.votedFor = ""
		s.persistState()
	}
	s.role = Follower
	s.failPending(ErrDeposed)
	// Progress is leader state: wake every sender so it sees the change
	// and ends.
	for _, pr := range s.prs {
		pr.wake()
	}
	s.prs = nil
	if leader != "" {
		s.leaderHint = leader
	}
	s.publish()
}

// termOf returns the term of log index idx (0 for idx 0). The
// snapshot boundary keeps its term after compaction.
func (s *Server) termOf(idx uint64) uint64 {
	if idx == 0 {
		return 0
	}
	if idx == s.snapIndex {
		return s.snapTermVal
	}
	return s.wal.Term(idx)
}

// advanceCommit raises commitIndex to idx (which must be a
// current-term entry acknowledged by a quorum) and applies.
func (s *Server) advanceCommit(idx uint64) {
	if idx > s.commitIndex {
		s.commitIndex = idx
	}
	s.applyUpTo()
}

// applyUpTo applies entries through commitIndex in order, recording
// results for waiting proposers and waking ReadIndex waiters.
func (s *Server) applyUpTo() {
	limit := s.commitIndex
	if last := s.wal.LastIndex(); limit > last {
		limit = last
	}
	for s.lastApplied < limit {
		s.lastApplied++
		e, ok := s.wal.Entry(s.lastApplied)
		if !ok {
			panic(fmt.Sprintf("raft %s: committed entry %d missing", s.cfg.ID, s.lastApplied))
		}
		if len(e.Data) == 0 {
			continue // no-op barrier entry
		}
		msg, err := codec.Unmarshal(e.Data)
		if err != nil {
			continue // never happens with a well-formed log
		}
		switch req := msg.(type) {
		case *kv.ClientRequest:
			res := s.sm.Apply(req.ClientID, req.Seq, req.Cmd)
			if s.role == Leader {
				s.results[s.lastApplied] = res
			}
			s.Commits.Inc()
		case *ConfChange:
			s.applyConfChange(req)
		}
	}
	// Wake ReadIndex waiters.
	if len(s.appliedWaiters) > 0 {
		kept := s.appliedWaiters[:0]
		for _, w := range s.appliedWaiters {
			if s.lastApplied >= w.idx {
				w.sig.Set()
			} else {
				kept = append(kept, w)
			}
		}
		s.appliedWaiters = kept
	}
	// Bound the orphaned-results map (proposers that timed out).
	if len(s.results) > 65536 {
		for k := range s.results {
			if k+32768 < s.lastApplied {
				delete(s.results, k)
			}
		}
	}
	s.maybeSnapshot()
	s.publish()
}

// takeResult claims the applied result for idx.
func (s *Server) takeResult(idx uint64) (kv.Result, bool) {
	res, ok := s.results[idx]
	if ok {
		delete(s.results, idx)
	}
	return res, ok
}

// electionTimeout draws a randomized timeout; baton context only.
func (s *Server) electionTimeout() time.Duration {
	min, max := s.cfg.ElectionTimeoutMin, s.cfg.ElectionTimeoutMax
	if max <= min {
		return min
	}
	return min + time.Duration(s.rng.Int63n(int64(max-min)))
}

// firstElectionTimeout is the election ticker's first draw. A fresh
// server (term 0 and an empty log, so no snapshot either: it never
// persisted anything) has no leader to wait for, so its draw moves
// down to start one heartbeat interval in: same width, same order of
// candidates, and a live leader still has a heartbeat to be heard
// (DESIGN.md "Bring-up").
func (s *Server) firstElectionTimeout() time.Duration {
	d, hb := s.electionTimeout(), s.cfg.HeartbeatInterval
	if s.term == 0 && s.wal.LastIndex() == 0 && hb > 0 && hb < s.cfg.ElectionTimeoutMin {
		d -= s.cfg.ElectionTimeoutMin - hb
	}
	return d
}
