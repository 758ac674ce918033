package raft

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"depfast/internal/core"
	"depfast/internal/failslow"
	"depfast/internal/kv"
)

func TestBatchedPutGet(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3})
	c.waitLeader()
	cl := c.client(900)
	c.onClient(func(co *core.Coroutine) {
		for i := 0; i < 40; i++ {
			if err := cl.Put(co, fmt.Sprintf("b%d", i), []byte{byte(i)}); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		for i := 0; i < 40; i++ {
			v, found, err := cl.Get(co, fmt.Sprintf("b%d", i))
			if err != nil || !found || !bytes.Equal(v, []byte{byte(i)}) {
				t.Errorf("get %d = %v %v %v", i, v, found, err)
				return
			}
		}
	})
}

func TestBatchedConcurrentClientsShareBatches(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3})
	leader := c.waitLeader()
	const nClients = 12
	const perClient = 15
	done := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		id := uint64(910 + i)
		cl := c.client(id)
		c.clientRT.Spawn("bc", func(co *core.Coroutine) {
			for j := 0; j < perClient; j++ {
				if err := cl.Put(co, fmt.Sprintf("bc%d-%d", id, j), []byte("v")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		})
	}
	for i := 0; i < nClients; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("clients hung")
		}
	}
	// Batching must have grouped commands: strictly fewer AppendEntries
	// rounds than commands. Proposals counts commands; the WAL appends
	// counter counts append calls (one per batch on the leader).
	srv := c.servers[leader]
	if srv.Proposals.Value() < nClients*perClient {
		t.Fatalf("proposals = %d", srv.Proposals.Value())
	}
}

func TestBatchedSurvivesSlowFollower(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3})
	leader := c.waitLeader()
	var follower string
	for _, n := range c.names {
		if n != leader {
			follower = n
			break
		}
	}
	in := failslow.DefaultIntensity()
	in.NetDelay = 100 * time.Millisecond
	failslow.Apply(c.envs[follower], failslow.NetSlow, in)

	cl := c.client(930)
	start := time.Now()
	c.onClient(func(co *core.Coroutine) {
		for i := 0; i < 25; i++ {
			if err := cl.Put(co, fmt.Sprintf("bs%d", i), []byte("v")); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	})
	if el := time.Since(start); el > 4*time.Second {
		t.Fatalf("batched writes took %v with one slow follower", el)
	}
}

func TestBatchedLeaderChangeFailsQueued(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3})
	old := c.waitLeader()
	// Partition the leader and watch a write eventually succeed against
	// the new leader (client retries with the same seq → exactly once).
	for _, n := range c.names {
		if n != old {
			c.net.SetLinkDown(old, n, true)
		}
	}
	c.net.SetLinkDown(old, "client-0", true)
	cl := c.client(940)
	c.onClient(func(co *core.Coroutine) {
		if err := cl.Put(co, "batch-failover", []byte("z")); err != nil {
			t.Errorf("put across failover: %v", err)
			return
		}
		v, found, err := cl.Get(co, "batch-failover")
		if err != nil || !found || string(v) != "z" {
			t.Errorf("get = %q %v %v", v, found, err)
		}
	})
}

// leaderWriters runs n coroutines on the leader's own runtime, each
// putting per keys straight into its request handler — no client retry
// loop that could hide a reject — and returns every response.
func leaderWriters(srv *Server, base uint64, n, per int) []*kv.ClientResponse {
	out := make(chan *kv.ClientResponse, n*per)
	for w := 0; w < n; w++ {
		id := base + uint64(w)
		srv.rt.Spawn("writer", func(co *core.Coroutine) {
			for i := 1; i <= per; i++ {
				resp := srv.handleClientRequest(co, "test", &kv.ClientRequest{ClientID: id, Seq: uint64(i),
					Cmd: kv.Command{Op: kv.OpPut, Key: fmt.Sprintf("w%d-%d", id, i), Value: []byte("v")}})
				out <- resp.(*kv.ClientResponse)
			}
		})
	}
	resps := make([]*kv.ClientResponse, 0, n*per)
	for len(resps) < n*per {
		resps = append(resps, <-out)
	}
	return resps
}

// mustAllOK fails the test on any response that is not a plain success.
func mustAllOK(t *testing.T, resps []*kv.ClientResponse) {
	t.Helper()
	bad := 0
	for _, r := range resps {
		if !r.OK || r.NotLeader {
			if bad++; bad <= 3 {
				t.Errorf("rejected write: %+v", r)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d writes rejected", bad, len(resps))
	}
}

// followersOf returns every node but leader.
func (c *cluster) followersOf(leader string) []string {
	var out []string
	for _, n := range c.names {
		if n != leader {
			out = append(out, n)
		}
	}
	return out
}

// waitInStep blocks until every listed server has applied what the
// leader has committed.
func (c *cluster) waitInStep(leader string, nodes []string) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		want, _ := c.servers[leader].CommitInfo()
		behind := ""
		for _, n := range nodes {
			if _, la := c.servers[n].CommitInfo(); la < want {
				behind = fmt.Sprintf("%s applied %d of %d", n, la, want)
			}
		}
		if behind == "" {
			return
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("followers out of step: %s", behind)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The gate keeps a saturated leader out of its healthy followers'
// outboxes: nothing queues there, so quorum-discard has nothing of
// theirs to shed and both stay within a few batches of the tip while
// the load runs.
func TestCommitPipelineKeepsHealthyFollowersInStep(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3, netBase: time.Millisecond})
	leader := c.waitLeader()
	srv := c.servers[leader]
	followers := c.followersOf(leader)

	done := make(chan []*kv.ClientResponse, 1)
	go func() { done <- leaderWriters(srv, 2000, 64, 40) }()

	maxQueue, maxLag := 0, uint64(0)
	sample := make(chan int, 1)
	var resps []*kv.ClientResponse
	for resps == nil {
		select {
		case resps = <-done:
		case <-time.After(2 * time.Millisecond):
			srv.rt.Post(func() {
				n := 0
				for _, p := range followers {
					if l := srv.outboxes[p].QueueLen(); l > n {
						n = l
					}
				}
				sample <- n
			})
			if n := <-sample; n > maxQueue {
				maxQueue = n
			}
			ci, _ := srv.CommitInfo()
			for _, p := range followers {
				if fc, _ := c.servers[p].CommitInfo(); ci > fc && ci-fc > maxLag {
					maxLag = ci - fc
				}
			}
		}
	}
	mustAllOK(t, resps)
	t.Logf("max outbox queue %d, max lag %d", maxQueue, maxLag)
	// The follower whose ack did not carry a quorum trails by the
	// difference of the two round trips — a few batches, more when the
	// host stalls it — but never by the window it would take for
	// quorum-discard to reach its queue; without the gate the queue is
	// writers minus window deep from the first burst on.
	if limit := srv.cfg.OutboxWindow; maxQueue >= limit {
		t.Errorf("a healthy follower's outbox queued %d messages under load, want < %d", maxQueue, limit)
	}
	if bound := uint64(srv.cfg.OutboxWindow * srv.cfg.RepairBatch); maxLag >= bound {
		t.Errorf("a healthy follower lagged %d entries under load, want < %d", maxLag, bound)
	}
	for _, p := range followers {
		if d := srv.Outbox(p).Discards.Value(); d != 0 {
			t.Errorf("%d messages to healthy follower %s were discarded", d, p)
		}
	}
	if srv.RepairSends.Value() != 0 {
		t.Errorf("repair_sends = %d on a healthy group", srv.RepairSends.Value())
	}
}

// leaderLoad keeps n writers putting straight into the leader's request
// handler, as leaderWriters does, until the returned stop is called;
// stop waits for them and reports how many writes ran and failed.
func leaderLoad(srv *Server, base uint64, n int) (stop func() (writes, failed int)) {
	var halt atomic.Bool
	type tally struct{ writes, failed int }
	out := make(chan tally, n)
	for w := 0; w < n; w++ {
		id := base + uint64(w)
		srv.rt.Spawn("writer", func(co *core.Coroutine) {
			var t tally
			for seq := uint64(1); !halt.Load(); seq++ {
				resp := srv.handleClientRequest(co, "test", &kv.ClientRequest{ClientID: id, Seq: seq,
					Cmd: kv.Command{Op: kv.OpPut, Key: fmt.Sprintf("l%d-%d", id, seq), Value: []byte("v")}})
				if r := resp.(*kv.ClientResponse); !r.OK || r.NotLeader {
					t.failed++
				}
				t.writes++
			}
			out <- t
		})
	}
	return func() (writes, failed int) {
		halt.Store(true)
		for w := 0; w < n; w++ {
			t := <-out
			writes, failed = writes+t.writes, failed+t.failed
		}
		return writes, failed
	}
}

// lagOf is how far follower f's commit index trails the leader's, as
// published (the benchmark's raft.follower_lag_max reads the same).
func (c *cluster) lagOf(leader, f string) uint64 {
	lc, _ := c.servers[leader].CommitInfo()
	fc, _ := c.servers[f].CommitInfo()
	if lc > fc {
		return lc - fc
	}
	return 0
}

// Quorum-discard may shed a slow follower's backlog; it may not leave
// the group at leader+1 once the slowness ends. While 64 writers
// saturate the leader, one follower's disk runs 50x slow for 300 ms —
// long enough for its queue to be discarded — and then recovers with
// the load still running. Its own replies must clock it back: within
// 2 s its lag is under one window of catch-up messages (OutboxWindow ×
// RepairBatch) and stays there, and no write fails.
func TestFollowerCatchesUpUnderLoad(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3, netBase: time.Millisecond})
	leader := c.waitLeader()
	srv := c.servers[leader]
	slow := c.followersOf(leader)[0]
	bound := uint64(srv.cfg.OutboxWindow * srv.cfg.RepairBatch)

	stop := leaderLoad(srv, 2700, 64)
	time.Sleep(300 * time.Millisecond)
	in := failslow.DefaultIntensity()
	in.DiskSlowFactor = 50
	failslow.Apply(c.envs[slow], failslow.DiskSlow, in)
	time.Sleep(300 * time.Millisecond)
	failslow.Clear(c.envs[slow])
	cleared := time.Now()

	// settled is when the lag was last at or over bound: from then on
	// it stayed under.
	var settled time.Duration
	worst := uint64(0)
	for time.Since(cleared) < 3*time.Second {
		lag := c.lagOf(leader, slow)
		worst = max(worst, lag)
		if lag >= bound {
			settled = time.Since(cleared)
		}
		time.Sleep(2 * time.Millisecond)
	}
	writes, failed := stop()
	discards := srv.Outbox(slow).Discards.Value()
	t.Logf("%d writes; %d discarded toward %s; worst lag %d after the fault cleared, under %d for good after %v; %d repair sends",
		writes, discards, slow, worst, bound, settled, srv.RepairSends.Value())
	if discards == 0 {
		t.Errorf("the stall never shed %s's backlog: nothing to catch up", slow)
	}
	if settled > 2*time.Second {
		t.Errorf("%s's lag was still %d or more %v after the fault cleared, want under it within 2s for good", slow, bound, settled)
	}
	if failed != 0 {
		t.Errorf("%d of %d writes failed", failed, writes)
	}
}

// A write-stall burst on a disk-slow leader surfaces as latency, never
// as a reject: the stall is taken before a proposer joins its batch,
// so every append reaches the wire in log order.
func TestCommitWriteStallBurstHasNoRejects(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3, mutate: func(cfg *Config) {
		cfg.MaxDirtyAppends = 2
	}})
	leader := c.waitLeader()
	srv := c.servers[leader]
	failslow.Apply(c.envs[leader], failslow.DiskSlow, failslow.DefaultIntensity())

	mustAllOK(t, leaderWriters(srv, 2100, 32, 10))
	if srv.WALStalls.Value() == 0 {
		t.Error("the burst never hit the write stall")
	}
	if term, role, _ := srv.Status(); role != Leader {
		t.Errorf("leader %s lost leadership (term %d)", leader, term)
	}
	c.waitInStep(leader, c.followersOf(leader))
}

// The gate counts quorums, not per-peer acks: one follower at 50x disk
// fills its own outbox and is discarded, while every write succeeds and
// the commit index runs ahead of that follower's match index by more
// than a batch — commits did not wait for it. Sampled on the leader's
// baton; the wall-clock cost of the fault is logged, not asserted (the
// follower_faults workload's fault.max_tput_drift measures it).
func TestCommitGateIgnoresSlowFollower(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3, netBase: time.Millisecond})
	leader := c.waitLeader()
	srv := c.servers[leader]
	slow := c.followersOf(leader)[0]
	const writers, per = 32, 40

	start := time.Now()
	mustAllOK(t, leaderWriters(srv, 2200, writers, per))
	healthy := time.Since(start)

	in := failslow.DefaultIntensity()
	in.DiskSlowFactor = 50
	failslow.Apply(c.envs[slow], failslow.DiskSlow, in)
	start = time.Now()
	done := make(chan []*kv.ClientResponse, 1)
	go func() { done <- leaderWriters(srv, 2400, writers, per) }()
	var ahead uint64 // most the commit index led the slow follower's match index by
	sample := make(chan uint64, 1)
	var resps []*kv.ClientResponse
	for resps == nil {
		select {
		case resps = <-done:
		case <-time.After(2 * time.Millisecond):
			srv.rt.Post(func() {
				gap := uint64(0)
				if m := srv.prs[slow].match; srv.commitIndex > m {
					gap = srv.commitIndex - m
				}
				sample <- gap
			})
			ahead = max(ahead, <-sample)
		}
	}
	faulted := time.Since(start)
	mustAllOK(t, resps)
	t.Logf("%d writers x %d puts: healthy %v, one follower at 50x disk %v (ratio %.2f); commit led its match index by up to %d",
		writers, per, healthy, faulted, float64(faulted)/float64(healthy), ahead)
	if ahead < writers {
		t.Errorf("commit index led the 50x-disk follower by at most %d entries, want at least one batch (%d)", ahead, writers)
	}
}

// A leader change resolves every member exactly once, whether its batch
// was on the wire or still queued behind the gate, and gives every gate
// slot back.
func TestCommitLeaderChangeFailsQueuedAndInflight(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3, mutate: func(cfg *Config) {
		cfg.OutboxWindow = 4
		cfg.RepairBatch = 4
	}})
	old := c.waitLeader()
	srv := c.servers[old]
	for _, n := range c.followersOf(old) {
		c.net.SetLinkDown(old, n, true)
	}
	// 4 batches of one go out and await a quorum that cannot form; the
	// other 16 writers queue behind the gate in batches of up to 4.
	const writers = 20
	done := make(chan []*kv.ClientResponse, 1)
	go func() { done <- leaderWriters(srv, 2500, writers, 1) }()
	gate := make(chan [2]int, 1)
	gateState := func() [2]int {
		srv.rt.Post(func() {
			queued := 0
			for _, b := range srv.pending {
				queued += len(b.members)
			}
			gate <- [2]int{srv.awaiting, queued}
		})
		return <-gate
	}
	deadline := time.Now().Add(5 * time.Second)
	for gateState() != [2]int{4, writers - 4} {
		if time.Now().After(deadline) {
			t.Fatalf("gate state (awaiting, queued) = %v, want [4 %d]", gateState(), writers-4)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The majority elects a successor; healing the links deposes old.
	delete(c.servers, old)
	next := c.waitLeader()
	c.servers[old] = srv
	for _, n := range c.followersOf(old) {
		c.net.SetLinkDown(old, n, false)
	}
	var resps []*kv.ClientResponse
	select {
	case resps = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("members of a deposed leader's batches never resolved")
	}
	for _, r := range resps {
		if r.OK {
			t.Errorf("a write the old leader could not replicate succeeded: %+v", r)
		}
	}
	if g := gateState(); g != [2]int{0, 0} {
		t.Errorf("gate state (awaiting, queued) after the leader change = %v, want [0 0]", g)
	}
	cl := c.client(2599)
	c.onClient(func(co *core.Coroutine) {
		if err := cl.Put(co, "after-change", []byte("z")); err != nil {
			t.Errorf("put against new leader %s: %v", next, err)
		}
	})
}
