package raft

import (
	"fmt"
	"testing"
	"time"

	"depfast/internal/core"
	"depfast/internal/failslow"
	"depfast/internal/mitigate"
)

// mitigated returns cluster options with the sentinel enabled at
// test-friendly cadence.
func mitigated(extra func(*Config)) clusterOpts {
	return clusterOpts{n: 3, mutate: func(cfg *Config) {
		cfg.Mitigation = true
		cfg.Mitigate = mitigate.Config{
			Interval:         15 * time.Millisecond,
			MinQuarantine:    150 * time.Millisecond,
			TransferCooldown: time.Second,
		}
		if extra != nil {
			extra(cfg)
		}
	}}
}

// TestSentinelSelfDemotesCPUSlowLeader: the full §5 leader path — a
// CPU-slow leader notices its own stretch via self-probes and hands
// leadership away without any follower campaigning against it.
func TestSentinelSelfDemotesCPUSlowLeader(t *testing.T) {
	c := newCluster(t, mitigated(nil))
	old := c.waitLeader()

	failslow.Apply(c.envs[old], failslow.CPUSlow, failslow.DefaultIntensity())

	deadline := time.Now().Add(10 * time.Second)
	var newLeader string
	for time.Now().Before(deadline) {
		for _, n := range c.names {
			if n == old {
				continue
			}
			if _, role, _ := c.servers[n].Status(); role == Leader {
				newLeader = n
			}
		}
		if newLeader != "" && c.servers[old].Mitigation.Transfers.Value() >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if newLeader == "" {
		t.Fatal("slow leader did not hand leadership off")
	}
	if got := c.servers[old].Mitigation.Transfers.Value(); got < 1 {
		t.Fatalf("transfers = %d, want >= 1 (handoff must be sentinel-initiated)", got)
	}

	// The healthy remainder still serves writes.
	failslow.Clear(c.envs[old])
	cl := c.client(900)
	c.onClient(func(co *core.Coroutine) {
		if err := cl.Put(co, "post-demotion", []byte("v")); err != nil {
			t.Errorf("post-demotion put: %v", err)
		}
	})
}

// TestSentinelQuarantinesAndRehabilitatesSlowFollower: the follower
// path — a net-slow follower is quarantined out of quorum accounting,
// the cluster keeps committing, and once the fault clears the peer is
// rehabilitated after a run of healthy round-trips.
func TestSentinelQuarantinesAndRehabilitatesSlowFollower(t *testing.T) {
	c := newCluster(t, mitigated(nil))
	leader := c.waitLeader()
	var slow string
	for _, n := range c.names {
		if n != leader {
			slow = n
			break
		}
	}

	failslow.Apply(c.envs[slow], failslow.NetSlow, failslow.DefaultIntensity())

	// Heartbeat RTTs feed the detector; wait for quarantine.
	deadline := time.Now().Add(15 * time.Second)
	quarantined := false
	for time.Now().Before(deadline) {
		qs := c.servers[leader].Quarantined()
		if len(qs) == 1 && qs[0] == slow {
			quarantined = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !quarantined {
		t.Fatalf("follower %s not quarantined; detector:\n%+v",
			slow, c.servers[leader].Detector().Stats())
	}
	if got := c.servers[leader].Mitigation.QuarantinesEntered.Value(); got < 1 {
		t.Fatalf("quarantines entered = %d", got)
	}

	// Writes must still commit while the slow follower sits out.
	cl := c.client(901)
	c.onClient(func(co *core.Coroutine) {
		for i := 0; i < 20; i++ {
			if err := cl.Put(co, fmt.Sprintf("quar%d", i), []byte("v")); err != nil {
				t.Errorf("put during quarantine: %v", err)
				return
			}
		}
	})

	// Fault clears; healthy heartbeat RTTs accumulate and the peer is
	// rehabilitated back into quorum accounting.
	failslow.Clear(c.envs[slow])
	deadline = time.Now().Add(15 * time.Second)
	rehabbed := false
	for time.Now().Before(deadline) {
		if len(c.servers[leader].Quarantined()) == 0 &&
			c.servers[leader].Mitigation.QuarantinesExited.Value() >= 1 {
			rehabbed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !rehabbed {
		t.Fatalf("follower %s not rehabilitated after fault cleared (%s)",
			slow, c.servers[leader].Mitigation)
	}

	// The rehabilitated follower converges with the rest.
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !c.converged() {
		time.Sleep(50 * time.Millisecond)
	}
	if !c.converged() {
		t.Fatal("cluster did not converge after rehabilitation")
	}
}

// TestTransferTargetExcludesSuspects unit-tests target selection:
// suspects are skipped, and when everyone is suspect the best overall
// follower is still returned (a fail-slow follower can beat a
// fail-slow leader).
func TestTransferTargetExcludesSuspects(t *testing.T) {
	c := newCluster(t, clusterOpts{n: 3})
	leader := c.waitLeader()
	s := c.servers[leader]
	type result struct{ best, skipFirst, allSuspect string }
	resCh := make(chan result, 1)
	s.rt.Post(func() {
		others := s.others()
		saved := map[string]uint64{}
		for _, p := range others {
			saved[p] = s.prs[p].match
		}
		s.prs[others[0]].match = 100
		s.prs[others[1]].match = 50
		r := result{
			best:      s.transferTarget(nil),
			skipFirst: s.transferTarget(map[string]bool{others[0]: true}),
			allSuspect: s.transferTarget(map[string]bool{
				others[0]: true, others[1]: true,
			}),
		}
		for p, m := range saved {
			s.prs[p].match = m
		}
		resCh <- r
	})
	var r result
	select {
	case r = <-resCh:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	others := []string{}
	for _, n := range c.names {
		if n != leader {
			others = append(others, n)
		}
	}
	if r.best != others[0] {
		t.Errorf("best target = %s, want most caught-up %s", r.best, others[0])
	}
	if r.skipFirst != others[1] {
		t.Errorf("target with %s suspected = %s, want %s", others[0], r.skipFirst, others[1])
	}
	if r.allSuspect != others[0] {
		t.Errorf("all-suspect fallback = %s, want best overall %s", r.allSuspect, others[0])
	}
}
