package raft

import (
	"testing"
	"time"

	"depfast/internal/env"
	"depfast/internal/storage"
	"depfast/internal/transport"
)

// firstDraws takes n first-election-timeout draws on s's baton.
func firstDraws(s *Server, n int) []time.Duration {
	got := make(chan []time.Duration, 1)
	s.rt.Post(func() {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = s.firstElectionTimeout()
		}
		got <- out
	})
	return <-got
}

// checkDraws fails t unless every draw lies in [lo, hi).
func checkDraws(t *testing.T, draws []time.Duration, lo, hi time.Duration) {
	t.Helper()
	for _, d := range draws {
		if d < lo || d >= hi {
			t.Fatalf("first election timeout %v outside [%v, %v)", d, lo, hi)
		}
	}
}

// A fresh server has no leader to wait for: its first timeout starts
// one heartbeat in and keeps the full randomization width.
func TestFreshServerFirstTimeoutStartsAfterOneHeartbeat(t *testing.T) {
	net := transport.NewNetwork()
	defer net.Close()
	cfg := DefaultConfig("s1", []string{"s1", "s2", "s3"})
	s := NewServer(cfg, env.New("s1", env.DefaultConfig()), net)
	defer s.Stop()
	width := cfg.ElectionTimeoutMax - cfg.ElectionTimeoutMin
	checkDraws(t, firstDraws(s, 200), cfg.HeartbeatInterval, cfg.HeartbeatInterval+width)
}

// A server rebuilt from persisted state may have voted or followed a
// leader: it keeps the full election timeout.
func TestRecoveredServerFirstTimeoutKeepsFullRange(t *testing.T) {
	fs, err := storage.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.SaveState(3, "s2"); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendEntries([]storage.Entry{{Index: 1, Term: 3}, {Index: 2, Term: 3}}); err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork()
	defer net.Close()
	cfg := DefaultConfig("s1", []string{"s1", "s2", "s3"})
	cfg.Persister = fs
	s, err := RecoverServer(cfg, env.New("s1", env.DefaultConfig()), net)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	checkDraws(t, firstDraws(s, 200), cfg.ElectionTimeoutMin, cfg.ElectionTimeoutMax)
}

// A fresh voter that starts next to a group with a live leader, cut
// off from that leader, campaigns early but is denied at PreVote: the
// followers heard the leader (stickiness), and its empty log is behind
// the leader's no-op barrier. Either alone holds the term and the
// leader where they are. Once it can hear the leader it follows.
func TestFreshNodeDoesNotDisruptLiveGroup(t *testing.T) {
	peers := []string{"s1", "s2", "s3", "s4"}
	c := newCluster(t, clusterOpts{mutate: func(cfg *Config) { cfg.Peers = peers }})
	leader := c.waitLeader()
	term, _, _ := c.servers[leader].Status()

	cfg := DefaultConfig("s4", peers)
	cfg.ElectionTimeoutMin = 100 * time.Millisecond
	cfg.ElectionTimeoutMax = 200 * time.Millisecond
	cfg.HeartbeatInterval = 20 * time.Millisecond
	ecfg := env.DefaultConfig()
	ecfg.NetBase = 0 // as newCluster's nodes
	e := env.New("s4", ecfg)
	s4 := NewServer(cfg, e, c.net)
	defer s4.Stop()
	c.net.SetLinkDown(leader, "s4", true)
	c.net.Register("s4", e, s4.TransportHandler())
	s4.Start()

	check := func() {
		t.Helper()
		for _, name := range c.names {
			if tm, _, hint := c.servers[name].Status(); tm != term || hint != leader {
				t.Fatalf("%s: term %d leader %q, want term %d leader %q", name, tm, hint, term, leader)
			}
		}
		if tm, role, _ := s4.Status(); (tm != term && tm != 0) || role != Follower {
			t.Fatalf("s4: term %d role %v, want a follower at term 0 or %d", tm, role, term)
		}
	}
	time.Sleep(time.Second) // several of s4's election timeouts
	check()

	c.net.SetLinkDown(leader, "s4", false)
	deadline := time.Now().Add(5 * time.Second)
	for _, _, hint := s4.Status(); hint != leader; _, _, hint = s4.Status() {
		if time.Now().After(deadline) {
			t.Fatalf("s4 never followed %s", leader)
		}
		time.Sleep(10 * time.Millisecond)
	}
	check()
}
