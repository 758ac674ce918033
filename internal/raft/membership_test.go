package raft

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/failslow"
	"depfast/internal/kv"
	"depfast/internal/rpc"
)

// addJoiner builds, registers, and starts a blank node that knows no
// peers — the entry state of a replacement server, which learns the
// configuration from the snapshot the leader bootstraps it with.
func addJoiner(c *cluster, name string) *Server {
	ecfg := env.DefaultConfig()
	ecfg.NetBase = 0
	cfg := DefaultConfig(name, nil)
	cfg.ElectionTimeoutMin = 100 * time.Millisecond
	cfg.ElectionTimeoutMax = 200 * time.Millisecond
	cfg.HeartbeatInterval = 20 * time.Millisecond
	cfg.Seed = int64(len(c.servers)+1) * 7919
	e := env.New(name, ecfg)
	s := NewServer(cfg, e, c.net)
	c.net.Register(name, e, s.TransportHandler())
	c.servers[name] = s
	c.envs[name] = e
	s.Start()
	return s
}

// memberChange issues one administrative change and returns the reply
// (nil on transport failure or timeout).
func memberChange(c *cluster, co *core.Coroutine, target string, kind uint64, node string) *MemberChangeReply {
	ev := c.clientEP.Call(target, &MemberChange{Kind: kind, Node: node})
	if co.WaitFor(ev, 2*time.Second) != core.WaitReady || ev.Err() != nil {
		return nil
	}
	r, _ := ev.Value().(*MemberChangeReply)
	return r
}

// promoteWhenCaughtUp retries ConfPromote until the leader accepts it,
// tolerating ErrLearnerBehind while the learner closes its gap.
func promoteWhenCaughtUp(t *testing.T, c *cluster, co *core.Coroutine, leader, node string) {
	t.Helper()
	var last *MemberChangeReply
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		last = memberChange(c, co, leader, ConfPromote, node)
		if last != nil && last.OK {
			return
		}
		if err := co.Sleep(20 * time.Millisecond); err != nil {
			return
		}
	}
	t.Errorf("promote %s never accepted; last reply %+v", node, last)
}

func hasMember(ss []string, name string) bool {
	for _, s := range ss {
		if s == name {
			return true
		}
	}
	return false
}

func TestMembershipAddPromoteRemove(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3})
	leader := c.waitLeader()

	cl := c.client(31)
	c.onClient(func(co *core.Coroutine) {
		for i := 0; i < 10; i++ {
			if err := cl.Put(co, fmt.Sprintf("pre%d", i), []byte("v")); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	})
	if t.Failed() {
		return
	}

	joiner := addJoiner(c, "s4")
	var addIdx uint64
	c.onClient(func(co *core.Coroutine) {
		r := memberChange(c, co, leader, ConfAddLearner, "s4")
		if r == nil || !r.OK || r.Index == 0 {
			t.Errorf("add learner: %+v", r)
			return
		}
		addIdx = r.Index
		// A retried add is an idempotent OK with no new log entry.
		if r2 := memberChange(c, co, leader, ConfAddLearner, "s4"); r2 == nil || !r2.OK || r2.Index != 0 {
			t.Errorf("duplicate add learner: %+v", r2)
		}
	})
	if t.Failed() {
		return
	}
	if voters, learners := c.servers[leader].Members(); len(voters) != 3 || !hasMember(learners, "s4") {
		t.Fatalf("after add: voters=%v learners=%v", voters, learners)
	}

	// The learner must be bootstrapped to the tip without being in any
	// quorum.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, la := joiner.CommitInfo(); la >= addIdx {
			break
		}
		if time.Now().After(deadline) {
			_, la := joiner.CommitInfo()
			t.Fatalf("learner stuck at applied=%d want >=%d", la, addIdx)
		}
		time.Sleep(10 * time.Millisecond)
	}

	c.onClient(func(co *core.Coroutine) {
		promoteWhenCaughtUp(t, c, co, leader, "s4")
	})
	if t.Failed() {
		return
	}
	if voters, learners := c.servers[leader].Members(); len(voters) != 4 ||
		!hasMember(voters, "s4") || len(learners) != 0 {
		t.Fatalf("after promote: voters=%v learners=%v", voters, learners)
	}

	// Shrink back down by removing a follower.
	victim := ""
	for _, n := range c.names {
		if n != leader {
			victim = n
			break
		}
	}
	c.onClient(func(co *core.Coroutine) {
		r := memberChange(c, co, leader, ConfRemove, victim)
		if r == nil || !r.OK || r.Index == 0 {
			t.Errorf("remove %s: %+v", victim, r)
			return
		}
		// Removing it again is an idempotent OK.
		if r2 := memberChange(c, co, leader, ConfRemove, victim); r2 == nil || !r2.OK || r2.Index != 0 {
			t.Errorf("duplicate remove: %+v", r2)
		}
	})
	if t.Failed() {
		return
	}
	if voters, _ := c.servers[leader].Members(); len(voters) != 3 ||
		hasMember(voters, victim) || !hasMember(voters, "s4") {
		t.Fatalf("after remove: voters=%v", voters)
	}

	// The reshaped group keeps serving, and the long-lived client
	// relearns the member set when its stale list bites.
	c.onClient(func(co *core.Coroutine) {
		if err := cl.Put(co, "post-reshape", []byte("x")); err != nil {
			t.Errorf("post-reshape put: %v", err)
		}
	})
}

func TestMembershipSafetyRails(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3})
	leader := c.waitLeader()
	c.onClient(func(co *core.Coroutine) {
		// A leader never removes itself: that would orphan the group's
		// hottest state — transfer first.
		r := memberChange(c, co, leader, ConfRemove, leader)
		if r == nil || r.OK || !strings.Contains(r.Err, "remove itself") {
			t.Errorf("remove self: %+v", r)
		}
		// Promoting an unknown node is rejected outright.
		r = memberChange(c, co, leader, ConfPromote, "ghost")
		if r == nil || r.OK || !strings.Contains(r.Err, "not a member") {
			t.Errorf("promote ghost: %+v", r)
		}
		// Removing a non-member is an idempotent no-op.
		r = memberChange(c, co, leader, ConfRemove, "ghost")
		if r == nil || !r.OK || r.Index != 0 {
			t.Errorf("remove ghost: %+v", r)
		}
		// A malformed kind never reaches the log.
		r = memberChange(c, co, leader, 99, "s2")
		if r == nil || r.OK {
			t.Errorf("bad kind: %+v", r)
		}
	})
}

// TestMembershipSurvivesRestart drives a removal, forces a snapshot so
// the post-change config rides both the WAL and the snapshot envelope,
// and asserts a restarted node recovers the shrunken configuration.
func TestMembershipSurvivesRestart(t *testing.T) {
	pc := newPersistentCluster(t, func(cfg *Config) { cfg.SnapshotThreshold = 8 })
	leader := pc.waitLeader()
	victim, survivor := "", ""
	for _, n := range pc.names {
		if n == leader {
			continue
		}
		if victim == "" {
			victim = n
		} else {
			survivor = n
		}
	}

	pc.adminDo(func(co *core.Coroutine, ep *rpc.Endpoint) {
		ev := ep.Call(leader, &MemberChange{Kind: ConfRemove, Node: victim})
		if co.WaitFor(ev, 2*time.Second) != core.WaitReady || ev.Err() != nil {
			t.Errorf("remove call failed: %v", ev.Err())
			return
		}
		if r, _ := ev.Value().(*MemberChangeReply); r == nil || !r.OK {
			t.Errorf("remove %s: %+v", victim, r)
		}
	})
	if t.Failed() {
		return
	}
	pc.stopNode(victim)

	// Write past the snapshot threshold so the survivor compacts its
	// log and the config's durability depends on the envelope.
	pc.clientDo(func(co *core.Coroutine, cl *Client) {
		for i := 0; i < 20; i++ {
			if err := cl.Put(co, fmt.Sprintf("m%d", i), []byte("v")); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
	})
	if t.Failed() {
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if snapIdx, _ := pc.servers[survivor].SnapshotInfo(); snapIdx > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivor never compacted its log")
		}
		time.Sleep(10 * time.Millisecond)
	}

	pc.stopNode(survivor)
	pc.startNode(survivor, 42)

	voters, learners := pc.servers[survivor].Members()
	if len(voters) != 2 || hasMember(voters, victim) || len(learners) != 0 {
		t.Fatalf("recovered config: voters=%v learners=%v", voters, learners)
	}

	// The two-voter group must still commit.
	pc.waitLeader()
	pc.clientDo(func(co *core.Coroutine, cl *Client) {
		if err := cl.Put(co, "after-membership-restart", []byte("x")); err != nil {
			t.Errorf("post-restart put: %v", err)
		}
	})
}

// adminDo runs fn with a raw endpoint on the persistent cluster's
// network, for administrative RPCs that have no Client wrapper.
func (pc *persistentCluster) adminDo(fn func(co *core.Coroutine, ep *rpc.Endpoint)) {
	pc.t.Helper()
	rt := core.NewRuntime("admin-p")
	defer rt.Stop()
	ep := rpc.NewEndpoint("admin-p", rt, pc.net, rpc.WithCallTimeout(2*time.Second))
	pc.net.Register("admin-p", env.New("admin-p", env.DefaultConfig()), ep.TransportHandler())
	defer func() {
		ep.Close()
		pc.net.Unregister("admin-p")
	}()
	done := make(chan struct{})
	rt.Spawn("admin", func(co *core.Coroutine) {
		defer close(done)
		fn(co, ep)
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		pc.t.Fatal("admin coroutine timed out")
	}
}

// TestSessionDedupSurvivesLearnerBootstrap proves exactly-once holds
// across a replacement: a command executed before the join must not
// re-execute when its duplicate lands on a leader that learned the
// session table from a snapshot bootstrap.
func TestSessionDedupSurvivesLearnerBootstrap(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3, mutate: func(cfg *Config) { cfg.SnapshotThreshold = 8 }})
	leader := c.waitLeader()

	// A CAS makes re-execution observable: replayed against the key it
	// already set, it would miss its expectation and report Found=false.
	req := &kv.ClientRequest{ClientID: 777, Seq: 1,
		Cmd: kv.Command{Op: kv.OpCAS, Key: "dedup", Value: []byte("first")}}
	sendReq := func(co *core.Coroutine, target string) *kv.ClientResponse {
		ev := c.clientEP.Call(target, req)
		if co.WaitFor(ev, 2*time.Second) != core.WaitReady || ev.Err() != nil {
			return nil
		}
		r, _ := ev.Value().(*kv.ClientResponse)
		return r
	}
	c.onClient(func(co *core.Coroutine) {
		resp := sendReq(co, leader)
		if resp == nil || !resp.OK || !resp.Found {
			t.Errorf("initial CAS: %+v", resp)
		}
	})
	if t.Failed() {
		return
	}

	// Push the log past the snapshot threshold: the CAS entry gets
	// compacted away, so the joiner can only learn the session from the
	// snapshot's session table.
	cl := c.client(32)
	c.onClient(func(co *core.Coroutine) {
		for i := 0; i < 20; i++ {
			if err := cl.Put(co, fmt.Sprintf("fill%d", i), []byte("v")); err != nil {
				t.Errorf("fill %d: %v", i, err)
				return
			}
		}
	})
	if t.Failed() {
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if snapIdx, _ := c.servers[leader].SnapshotInfo(); snapIdx > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never compacted its log")
		}
		time.Sleep(10 * time.Millisecond)
	}

	joiner := addJoiner(c, "s4")
	var addIdx uint64
	c.onClient(func(co *core.Coroutine) {
		r := memberChange(c, co, leader, ConfAddLearner, "s4")
		if r == nil || !r.OK {
			t.Errorf("add learner: %+v", r)
			return
		}
		addIdx = r.Index
	})
	if t.Failed() {
		return
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, la := joiner.CommitInfo(); la >= addIdx {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("learner never caught up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.onClient(func(co *core.Coroutine) {
		promoteWhenCaughtUp(t, c, co, leader, "s4")
	})
	if t.Failed() {
		return
	}

	// Shrink the voter set to {leader, s4} so the handoff target is
	// forced, then hand leadership to the bootstrapped joiner.
	c.onClient(func(co *core.Coroutine) {
		for _, n := range c.names {
			if n == leader {
				continue
			}
			if r := memberChange(c, co, leader, ConfRemove, n); r == nil || !r.OK {
				t.Errorf("remove %s: %+v", n, r)
				return
			}
		}
	})
	if t.Failed() {
		return
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, role, _ := joiner.Status(); role == Leader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("joiner never took leadership")
		}
		c.servers[leader].RequestTransfer()
		time.Sleep(100 * time.Millisecond)
	}

	// The duplicate must answer from the session table, not re-execute.
	c.onClient(func(co *core.Coroutine) {
		var resp *kv.ClientResponse
		for i := 0; i < 50; i++ {
			resp = sendReq(co, "s4")
			if resp != nil && resp.OK {
				break
			}
			if err := co.Sleep(20 * time.Millisecond); err != nil {
				return
			}
		}
		if resp == nil || !resp.OK {
			t.Errorf("duplicate CAS failed: %+v", resp)
			return
		}
		if !resp.Found {
			t.Errorf("duplicate CAS re-executed instead of deduplicating: %+v", resp)
		}
	})
	if r := c.servers["s4"].Store().Apply(kv.Command{Op: kv.OpGet, Key: "dedup"}); !r.Found || string(r.Value) != "first" {
		t.Errorf("dedup key state: %+v", r)
	}
}

// A membership change takes the same commit path as the writes around
// it. With one dirty append allowed and a disk-slow leader every
// proposer stalls, and the ConfChange must still reach the wire in log
// order: stalling between its append and its fan-out would let a
// concurrent write put index n+1 on the wire before n, both followers
// would reject the gap, and the write would fail as leadership lost.
func TestMembershipChangeUnderWriteStallKeepsLogOrder(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3, mutate: func(cfg *Config) {
		cfg.MaxDirtyAppends = 1
	}})
	leader := c.waitLeader()
	srv := c.servers[leader]
	followers := c.followersOf(leader)
	addJoiner(c, "s4")
	failslow.Apply(c.envs[leader], failslow.DiskSlow, failslow.DefaultIntensity())

	writes := make(chan []*kv.ClientResponse, 1)
	go func() { writes <- leaderWriters(srv, 3000, 16, 25) }()
	kinds := []uint64{ConfAddLearner, ConfRemove, ConfAddLearner, ConfRemove}
	changes := make(chan *MemberChangeReply, len(kinds))
	srv.rt.Spawn("admin", func(co *core.Coroutine) {
		for _, kind := range kinds {
			if co.Sleep(30*time.Millisecond) != nil {
				return
			}
			r := srv.handleMemberChange(co, "test", &MemberChange{Kind: kind, Node: "s4"})
			changes <- r.(*MemberChangeReply)
		}
	})
	for range kinds {
		select {
		case r := <-changes:
			if !r.OK || r.Index == 0 {
				t.Errorf("membership change under write stall: %+v", r)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("membership change hung")
		}
	}
	mustAllOK(t, <-writes)
	if srv.WALStalls.Value() == 0 {
		t.Error("the writes never hit the write stall")
	}
	if _, role, _ := srv.Status(); role != Leader {
		t.Errorf("%s lost leadership", leader)
	}
	c.waitInStep(leader, followers)
}

// A learner joined while 48 writers saturate the leader is promoted.
// Once caught up it takes the fan-out like any voter, and at the tip it
// trails the commit index by the batches in flight; promotion asks that
// it replicate within one batch of the commit index, not that it has
// matched it at the instant the ConfPromote is validated.
func TestLearnerPromotedUnderLoad(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3, netBase: time.Millisecond})
	leader := c.waitLeader()
	srv := c.servers[leader]
	addJoiner(c, "s4")
	stop := leaderLoad(srv, 3100, 48)
	time.Sleep(200 * time.Millisecond)

	start := time.Now()
	outcome := make(chan *MemberChangeReply, 1)
	srv.rt.Spawn("admin", func(co *core.Coroutine) {
		change := func(kind uint64) *MemberChangeReply {
			return srv.handleMemberChange(co, "test", &MemberChange{Kind: kind, Node: "s4"}).(*MemberChangeReply)
		}
		if r := change(ConfAddLearner); !r.OK {
			outcome <- r
			return
		}
		// ErrLearnerBehind and ErrConfPending are retried, as the
		// replacement driver does.
		deadline := time.Now().Add(10 * time.Second)
		for {
			r := change(ConfPromote)
			if r.OK || time.Now().After(deadline) || co.Sleep(10*time.Millisecond) != nil {
				outcome <- r
				return
			}
		}
	})
	var r *MemberChangeReply
	select {
	case r = <-outcome:
	case <-time.After(20 * time.Second):
		t.Fatal("membership change hung")
	}
	took := time.Since(start)
	writes, failed := stop()
	t.Logf("%d writes; add and promote took %v (last reply %+v)", writes, took, r)
	if voters, learners := srv.Members(); !r.OK || !hasMember(voters, "s4") || len(learners) != 0 {
		t.Errorf("s4 not promoted under load: voters=%v learners=%v, last reply %+v", voters, learners, r)
	}
	if failed != 0 {
		t.Errorf("%d of %d writes failed", failed, writes)
	}
}
