package raft

import (
	"fmt"
	"testing"
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/kv"
)

func TestSnapshotMessagesRoundTrip(t *testing.T) {
	in := &InstallSnapshot{
		Term: 7, Leader: "s1", LastIncludedIndex: 100,
		LastIncludedTerm: 6, Data: []byte("state"),
	}
	out, err := codec.Unmarshal(codec.Marshal(in))
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*InstallSnapshot)
	if got.Term != 7 || got.LastIncludedIndex != 100 || string(got.Data) != "state" {
		t.Fatalf("got %+v", got)
	}
	rin := &InstallSnapshotReply{Term: 7, Success: true, LastIndex: 100, From: "s2"}
	rout, err := codec.Unmarshal(codec.Marshal(rin))
	if err != nil {
		t.Fatal(err)
	}
	if r := rout.(*InstallSnapshotReply); !r.Success || r.From != "s2" {
		t.Fatalf("reply %+v", r)
	}
}

func TestLeaderCompactsLog(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3, mutate: func(cfg *Config) {
		cfg.SnapshotThreshold = 20
	}})
	leader := c.waitLeader()
	cl := c.client(40)
	c.onClient(func(co *core.Coroutine) {
		for i := 0; i < 60; i++ {
			if err := cl.Put(co, fmt.Sprintf("snap%d", i), []byte("v")); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
	})
	srv := c.servers[leader]
	if srv.Snapshots.Value() == 0 {
		t.Fatal("leader never snapshotted despite threshold 20 and 60 writes")
	}
	snapIdx, walLen := srv.SnapshotInfo()
	if snapIdx == 0 {
		t.Fatal("snapshot index not advanced")
	}
	if walLen >= 60 {
		t.Fatalf("wal retained %d entries; compaction ineffective", walLen)
	}
	// The store must still answer reads correctly after compaction.
	c.onClient(func(co *core.Coroutine) {
		v, found, err := cl.Get(co, "snap0")
		if err != nil || !found || string(v) != "v" {
			t.Errorf("read after compaction: %q %v %v", v, found, err)
		}
	})
}

func TestFollowerCatchesUpViaSnapshot(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3, mutate: func(cfg *Config) {
		cfg.SnapshotThreshold = 16
		cfg.EntryCacheSize = 16
	}})
	leader := c.waitLeader()
	var follower string
	for _, n := range c.names {
		if n != leader {
			follower = n
			break
		}
	}
	// Partition the follower, write enough that the leader compacts
	// past the follower's position, then heal.
	for _, n := range c.names {
		if n != follower {
			c.net.SetLinkDown(follower, n, true)
		}
	}
	cl := c.client(41)
	c.onClient(func(co *core.Coroutine) {
		for i := 0; i < 80; i++ {
			if err := cl.Put(co, fmt.Sprintf("deep%d", i), []byte("v")); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
	})
	if c.servers[leader].Snapshots.Value() == 0 {
		t.Fatal("precondition: leader must have compacted during partition")
	}
	for _, n := range c.names {
		c.net.SetLinkDown(follower, n, false)
	}
	_, want := c.servers[leader].CommitInfo()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		_, la := c.servers[follower].CommitInfo()
		if la >= want {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	_, la := c.servers[follower].CommitInfo()
	if la < want {
		t.Fatalf("follower applied only %d/%d after snapshot catch-up", la, want)
	}
	// Follower state machine must match: spot-check keys from before
	// and after the compaction point.
	store := c.servers[follower].Store()
	for _, key := range []string{"deep0", "deep40", "deep79"} {
		if r := store.Apply(kv.Command{Op: kv.OpGet, Key: key}); !r.Found {
			t.Errorf("follower missing %s after snapshot install", key)
		}
	}
}

func TestSnapshotPreservesSessions(t *testing.T) {
	// Exactly-once must hold across a snapshot boundary: a duplicate
	// of a pre-snapshot request replayed to a snapshot-restored
	// follower-turned-leader must not re-apply.
	s := kv.NewSessions(kv.NewStore())
	s.Apply(9, 1, kv.Command{Op: kv.OpPut, Key: "k", Value: []byte("one")})
	data := s.Snapshot()

	restored := kv.NewSessions(kv.NewStore())
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	// Replay the duplicate.
	restored.Apply(9, 1, kv.Command{Op: kv.OpPut, Key: "k", Value: []byte("two")})
	r := restored.Store().Apply(kv.Command{Op: kv.OpGet, Key: "k"})
	if string(r.Value) != "one" {
		t.Fatalf("duplicate re-applied after restore: %q", r.Value)
	}
	// A genuinely new request applies.
	restored.Apply(9, 2, kv.Command{Op: kv.OpPut, Key: "k", Value: []byte("three")})
	r = restored.Store().Apply(kv.Command{Op: kv.OpGet, Key: "k"})
	if string(r.Value) != "three" {
		t.Fatalf("new seq not applied after restore: %q", r.Value)
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	s := kv.NewStore()
	for i := 0; i < 50; i++ {
		s.Apply(kv.Command{Op: kv.OpPut, Key: fmt.Sprintf("k%d", i), Value: []byte{byte(i)}})
	}
	data := s.Snapshot()
	r := kv.NewStore()
	if err := r.Restore(data); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 50 {
		t.Fatalf("restored %d keys", r.Len())
	}
	for i := 0; i < 50; i++ {
		res := r.Apply(kv.Command{Op: kv.OpGet, Key: fmt.Sprintf("k%d", i)})
		if !res.Found || res.Value[0] != byte(i) {
			t.Fatalf("k%d = %+v", i, res)
		}
	}
	// Scans work after restore (sorted-key cache rebuilt).
	res := r.Apply(kv.Command{Op: kv.OpScan, Key: "k0", ScanLen: 3})
	if len(res.Pairs) != 3 {
		t.Fatalf("scan after restore = %+v", res)
	}
}

func TestStoreRestoreCorrupt(t *testing.T) {
	s := kv.NewStore()
	if err := s.Restore([]byte{0xff, 0xff}); err == nil {
		t.Fatal("corrupt snapshot restored without error")
	}
}

// A snapshot that reaches a follower already holding its last entry —
// a retry overtaken by catch-up — must not cut the log back to it
// (Raft Fig. 13): the leader has counted what follows as matched, and
// would otherwise probe below its match index forever.
func TestLateSnapshotKeepsMatchedSuffix(t *testing.T) {
	f, call := scriptedFollower(t)
	if r, _ := call(&AppendEntries{Term: 1, Leader: "L", Entries: termOneLog(10)}).(*AppendEntriesReply); r == nil || !r.Success {
		t.Fatalf("append: %+v", r)
	}
	data := encodeSnapshotEnvelope(memConfigFromPeers([]string{"f1", "L"}), kv.NewSessions(kv.NewStore()).Snapshot())
	r, _ := call(&InstallSnapshot{Term: 1, Leader: "L", LastIncludedIndex: 5, LastIncludedTerm: 1, Data: data}).(*InstallSnapshotReply)
	if r == nil || !r.Success {
		t.Fatalf("install: %+v", r)
	}
	last := make(chan uint64, 1)
	f.rt.Post(func() { last <- f.wal.LastIndex() })
	if got := <-last; got != 10 {
		t.Errorf("log ends at %d after a late snapshot through 5, want 10", got)
	}
}
