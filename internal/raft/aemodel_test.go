package raft

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"depfast/internal/codec"
	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/rpc"
	"depfast/internal/storage"
	"depfast/internal/transport"
)

// TestFollowerAppendEntriesModel drives a single follower with
// randomized AppendEntries traffic — overlapping windows, stale
// retransmissions, and term-conflict rewrites — from a scripted fake
// leader, then checks the follower's log equals the canonical one.
// This is the log-matching property exercised adversarially, beyond
// what full-cluster runs produce.
func TestFollowerAppendEntriesModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runAEModel(t, seed)
		})
	}
}

func runAEModel(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := transport.NewNetwork()
	defer net.Close()
	ecfg := env.DefaultConfig()
	ecfg.NetBase = 0
	ecfg.FsyncBase = 50 * time.Microsecond

	// The follower under test. Huge election timeout: it must never
	// campaign during the scripted run.
	cfg := DefaultConfig("f1", []string{"f1", "L"})
	cfg.ElectionTimeoutMin = time.Hour
	cfg.ElectionTimeoutMax = 2 * time.Hour
	fe := env.New("f1", ecfg)
	follower := NewServer(cfg, fe, net)
	net.Register("f1", fe, follower.TransportHandler())
	follower.Start()
	defer follower.Stop()

	// The fake leader: a bare endpoint.
	lrt := core.NewRuntime("L")
	defer lrt.Stop()
	lep := rpc.NewEndpoint("L", lrt, net, rpc.WithCallTimeout(2*time.Second))
	defer lep.Close()
	net.Register("L", env.New("L", ecfg), lep.TransportHandler())

	// Canonical log evolves: mostly appends, occasional suffix rewrite
	// with a higher term (a new-leader conflict).
	type modelEntry struct {
		term uint64
		data []byte
	}
	var model []modelEntry // model[i] is index i+1
	term := uint64(1)

	send := func(co *core.Coroutine, prevIdx uint64, entries []storage.Entry) {
		ae := &AppendEntries{
			Term:         term,
			Leader:       "L",
			PrevLogIndex: prevIdx,
			LeaderCommit: 0,
		}
		if prevIdx > 0 {
			ae.PrevLogTerm = model[prevIdx-1].term
		}
		ae.Entries = entries
		ev := lep.Call("f1", ae)
		_ = co.WaitFor(ev, 5*time.Second)
	}

	done := make(chan struct{})
	lrt.Spawn("driver", func(co *core.Coroutine) {
		defer close(done)
		for step := 0; step < 120; step++ {
			switch {
			case len(model) > 3 && rng.Float64() < 0.15:
				// Conflict rewrite: a "new leader" truncates a suffix.
				term++
				cut := rng.Intn(len(model)-1) + 1
				model = model[:cut]
				n := rng.Intn(3) + 1
				for i := 0; i < n; i++ {
					model = append(model, modelEntry{term: term,
						data: []byte(fmt.Sprintf("t%d-%d", term, len(model)+1))})
				}
			default:
				n := rng.Intn(4) + 1
				for i := 0; i < n; i++ {
					model = append(model, modelEntry{term: term,
						data: []byte(fmt.Sprintf("t%d-%d", term, len(model)+1))})
				}
			}
			// Send a random window of the canonical log — possibly a
			// stale prefix, possibly overlapping what was sent before.
			lo := rng.Intn(len(model)) // 0-based start
			hi := lo + rng.Intn(len(model)-lo) + 1
			entries := make([]storage.Entry, 0, hi-lo)
			for i := lo; i < hi; i++ {
				entries = append(entries, storage.Entry{
					Index: uint64(i + 1), Term: model[i].term, Data: model[i].data})
			}
			send(co, uint64(lo), entries)
		}
		// Final full synchronization.
		all := make([]storage.Entry, len(model))
		for i := range model {
			all[i] = storage.Entry{Index: uint64(i + 1), Term: model[i].term, Data: model[i].data}
		}
		send(co, 0, all)
	})
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("driver hung")
	}

	// Compare the follower's log to the model via raw entries.
	check := make(chan string, 1)
	follower.Runtime().Post(func() {
		if got, want := follower.wal.LastIndex(), uint64(len(model)); got != want {
			check <- fmt.Sprintf("log length %d, want %d", got, want)
			return
		}
		for i, me := range model {
			e, ok := follower.wal.Entry(uint64(i + 1))
			if !ok {
				check <- fmt.Sprintf("missing entry %d", i+1)
				return
			}
			if e.Term != me.term || !bytes.Equal(e.Data, me.data) {
				check <- fmt.Sprintf("entry %d = {t%d %q}, want {t%d %q}",
					i+1, e.Term, e.Data, me.term, me.data)
				return
			}
		}
		check <- ""
	})
	select {
	case msg := <-check:
		if msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("check hung")
	}
}

// scriptedFollower starts f1, a follower of the group {f1, L} in which
// L is a bare endpoint the test scripts: call sends one message from L
// and returns f1's reply, nil on failure.
func scriptedFollower(t *testing.T) (f *Server, call func(codec.Message) interface{}) {
	net := transport.NewNetwork()
	ecfg := env.DefaultConfig()
	ecfg.NetBase = 0
	ecfg.FsyncBase = 50 * time.Microsecond
	cfg := DefaultConfig("f1", []string{"f1", "L"})
	cfg.ElectionTimeoutMin = time.Hour // f1 must never campaign
	cfg.ElectionTimeoutMax = 2 * time.Hour
	fe := env.New("f1", ecfg)
	f = NewServer(cfg, fe, net)
	net.Register("f1", fe, f.TransportHandler())
	f.Start()
	lrt := core.NewRuntime("L")
	lep := rpc.NewEndpoint("L", lrt, net, rpc.WithCallTimeout(2*time.Second))
	net.Register("L", env.New("L", ecfg), lep.TransportHandler())
	t.Cleanup(func() {
		lep.Close()
		lrt.Stop()
		f.Stop()
		net.Close()
	})
	return f, func(m codec.Message) interface{} {
		out := make(chan interface{}, 1)
		lrt.Spawn("call", func(co *core.Coroutine) {
			ev := lep.Call("f1", m)
			if co.WaitFor(ev, 5*time.Second) != core.WaitReady || ev.Err() != nil {
				out <- nil
				return
			}
			out <- ev.Value()
		})
		return <-out
	}
}

// termOneLog is entries 1..n of term 1.
func termOneLog(n uint64) []storage.Entry {
	var log []storage.Entry
	for i := uint64(1); i <= n; i++ {
		log = append(log, storage.Entry{Index: i, Term: 1})
	}
	return log
}

// A successful AppendEntries vouches for the follower's log only
// through PrevLogIndex + len(Entries) (Raft Fig. 2): what the follower
// holds past that may be a deposed leader's suffix the new leader
// never had. A follower holding 1..10 from term 1 that hears a term-2
// heartbeat at prev 5 with LeaderCommit 8 must commit and apply 5, not
// its own 6..8, and must report 5, not 10, as matched.
func TestFollowerCommitsOnlyWhatTheLeaderVouches(t *testing.T) {
	f, call := scriptedFollower(t)
	for i, ae := range []*AppendEntries{
		{Term: 1, Leader: "L", Entries: termOneLog(10)},
		{Term: 2, Leader: "L", PrevLogIndex: 5, PrevLogTerm: 1, LeaderCommit: 8},
	} {
		r, _ := call(ae).(*AppendEntriesReply)
		if r == nil || !r.Success {
			t.Fatalf("append %d: %+v", i+1, r)
		}
		if want := []uint64{10, 5}[i]; r.LastIndex != want {
			t.Errorf("append %d acked through %d, want %d", i+1, r.LastIndex, want)
		}
	}
	if commit, applied := f.CommitInfo(); commit != 5 || applied != 5 {
		t.Errorf("follower commit=%d applied=%d after a heartbeat vouching for 5, want 5 and 5", commit, applied)
	}
}
