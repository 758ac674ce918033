package raft

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"depfast/internal/core"
	"depfast/internal/env"
	"depfast/internal/failslow"
	"depfast/internal/obs"
)

// faultEpisode is one transient fail-slow episode of a seeded schedule.
type faultEpisode struct {
	target     *env.Env
	fault      failslow.Fault
	start, end time.Duration // offsets from the schedule's start
}

// expDur draws an exponential duration with the given mean, clamped to
// [mean/10, mean*10] so no schedule degenerates.
func expDur(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	return min(max(d, mean/10), mean*10)
}

// stochasticEpisodes draws, per target, alternating exponential quiet
// gaps and exponential episodes of a uniformly chosen fault until the
// horizon: the transient fail-slow model of the paper's §3.3, as a
// seeded schedule rather than a live random process.
func stochasticEpisodes(targets []*env.Env, meanBetween, meanDuration, horizon time.Duration, seed int64) []faultEpisode {
	rng := rand.New(rand.NewSource(seed))
	var eps []faultEpisode
	for _, e := range targets {
		for at := expDur(rng, meanBetween); at < horizon; {
			ep := faultEpisode{target: e, fault: failslow.Injected[rng.Intn(len(failslow.Injected))], start: at}
			ep.end = at + expDur(rng, meanDuration)
			eps = append(eps, ep)
			at = ep.end + expDur(rng, meanBetween)
		}
	}
	return eps
}

// replayEpisodes drives eps through script in time order until the
// schedule ends or stop closes; the returned channel closes when it
// has returned, so the caller's ClearAll cannot race an injection.
func replayEpisodes(script *failslow.Script, eps []faultEpisode, stop <-chan struct{}) <-chan struct{} {
	type step struct {
		at     time.Duration
		target *env.Env
		fault  failslow.Fault // None clears
	}
	var steps []step
	for _, ep := range eps {
		steps = append(steps, step{ep.start, ep.target, ep.fault}, step{ep.end, ep.target, failslow.None})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		for _, s := range steps {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(s.at))):
			}
			if s.fault == failslow.None {
				script.Clear(s.target)
			} else {
				script.Inject(s.target, s.fault, 1)
			}
		}
	}()
	return done
}

// TestStochasticFailSlowSoak drives writes while random transient
// fail-slow episodes (the §3.3 probability-model direction) churn
// through the followers. Unlike the partition chaos test, nothing
// here ever stops a node — components only get slow — so DepFastRaft
// must keep committing throughout, not merely recover afterwards.
func TestStochasticFailSlowSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is seconds-long")
	}
	c := newCluster(t, clusterOpts{n: 3})
	leader := c.waitLeader()

	const clients = 8
	const duration = 4 * time.Second

	// Random transient faults on the two followers only (the paper's
	// measurement keeps leaders healthy; the detector experiment
	// covers slow leaders).
	var followerEnvs []*env.Env
	for _, n := range c.names {
		if n != leader {
			followerEnvs = append(followerEnvs, c.envs[n])
		}
	}
	rec := obs.NewRecorder(1024)
	script := failslow.NewScript(rec, failslow.DefaultIntensity())
	eps := stochasticEpisodes(followerEnvs, 150*time.Millisecond, 400*time.Millisecond, duration, 99)
	stop := make(chan struct{})
	replayed := replayEpisodes(script, eps, stop)
	halt := sync.OnceFunc(func() {
		close(stop)
		<-replayed
		script.ClearAll()
	})
	defer halt()

	var ops atomic.Int64
	var errs atomic.Int64
	deadline := time.Now().Add(duration)
	done := make(chan struct{}, clients)
	for ci := 0; ci < clients; ci++ {
		id := uint64(700 + ci)
		cl := c.client(id)
		c.clientRT.Spawn("soak-client", func(co *core.Coroutine) {
			n := 0
			for time.Now().Before(deadline) {
				if err := cl.Put(co, fmt.Sprintf("soak-%d-%d", id, n), []byte("v")); err != nil {
					errs.Add(1)
				} else {
					ops.Add(1)
				}
				n++
			}
			done <- struct{}{}
		})
	}
	for i := 0; i < clients; i++ {
		select {
		case <-done:
		case <-time.After(duration + 90*time.Second):
			t.Fatal("soak clients hung")
		}
	}

	// Stopping mid-episode heals every follower and leaves no dangling
	// injection on the recorder.
	halt()
	var injected, cleared int
	for _, ev := range rec.Events() {
		switch ev.Type {
		case obs.FaultInjected:
			injected++
		case obs.FaultCleared:
			cleared++
		}
	}
	if script.Active() != 0 || cleared < injected {
		t.Fatalf("after the run: %d targets still faulted, %d injections vs %d clears",
			script.Active(), injected, cleared)
	}

	total := ops.Load()
	rate := float64(total) / duration.Seconds()
	t.Logf("soak: %d writes (%.0f/s), %d errors, %d fail-slow episodes",
		total, rate, errs.Load(), injected)
	if injected == 0 {
		t.Fatal("no fail-slow episodes were injected; test proved nothing")
	}
	// The cluster must sustain meaningful throughput under continuous
	// fail-slow churn: with 8 closed-loop clients and ~14ms commits the
	// healthy rate is ~550/s; demand at least a third of that.
	if rate < 180 {
		t.Fatalf("throughput collapsed under fail-slow churn: %.0f/s", rate)
	}
	if errs.Load() > total/10 {
		t.Fatalf("error rate too high: %d errors vs %d ops", errs.Load(), total)
	}
}
