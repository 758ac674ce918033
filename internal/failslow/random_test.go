package failslow

import (
	"math/rand"
	"testing"
	"time"

	"depfast/internal/env"
	"depfast/internal/obs"
)

// Random fault schedules are drawn by the driver from a seed and
// played through a Script; these tests play such schedules
// synchronously, so they need no wall clock.

func countFaultEvents(rec *obs.Recorder) (injected, cleared int) {
	for _, ev := range rec.Events() {
		switch ev.Type {
		case obs.FaultInjected:
			injected++
		case obs.FaultCleared:
			cleared++
		}
	}
	return injected, cleared
}

func assertHealed(t *testing.T, targets []*env.Env) {
	t.Helper()
	for _, e := range targets {
		if got := e.ComputeCost(time.Millisecond); got != time.Millisecond {
			t.Errorf("%s not healed: compute = %v", e.Node(), got)
		}
		if got := e.NetDelay(); got != env.DefaultConfig().NetBase {
			t.Errorf("%s not healed: net = %v", e.Node(), got)
		}
	}
}

func TestRandomFaultsInjectsAndHeals(t *testing.T) {
	targets := []*env.Env{
		env.New("r1", env.DefaultConfig()),
		env.New("r2", env.DefaultConfig()),
	}
	rec := obs.NewRecorder(256)
	s := NewScript(rec, DefaultIntensity())
	rng := rand.New(rand.NewSource(7))

	// Each step either heals a random target or injects a uniformly
	// chosen fault on it, replacing whatever was active there.
	var injections int
	for i := 0; i < 40; i++ {
		e := targets[rng.Intn(len(targets))]
		if rng.Intn(3) == 0 {
			s.Clear(e)
			continue
		}
		f := Injected[rng.Intn(len(Injected))]
		if f == None {
			t.Fatalf("Injected holds None")
		}
		s.Inject(e, f, 1)
		injections++
		if s.Active() == 0 {
			t.Fatalf("step %d: %s injected on %s but nothing active", i, f, e.Node())
		}
	}
	if injections == 0 {
		t.Fatal("seeded schedule injected nothing")
	}

	s.ClearAll()
	if s.Active() != 0 {
		t.Fatalf("active faults after ClearAll: %d", s.Active())
	}
	assertHealed(t, targets)

	injected, cleared := countFaultEvents(rec)
	if injected != injections {
		t.Fatalf("recorder saw %d injections, want %d", injected, injections)
	}
	if cleared == 0 {
		t.Fatal("recorder saw no clearance")
	}
	for _, ev := range rec.Events() {
		if ev.Node != "r1" && ev.Node != "r2" {
			t.Errorf("event on unknown target %q", ev.Node)
		}
	}
}

func TestRandomFaultsStopTruncatesInFlightEpisodes(t *testing.T) {
	targets := []*env.Env{
		env.New("t1", env.DefaultConfig()),
		env.New("t2", env.DefaultConfig()),
	}
	rec := obs.NewRecorder(256)
	s := NewScript(rec, DefaultIntensity())
	rng := rand.New(rand.NewSource(3))

	// Episodes arrive every ~10ms and nominally last ~10s, far beyond
	// the 120ms the schedule runs before it is stopped, so episodes are
	// still in flight at the stop.
	const stopAt = 120 * time.Millisecond
	type episode struct {
		e          *env.Env
		start, end time.Duration
	}
	var eps []episode
	for _, e := range targets {
		at := time.Duration(rng.ExpFloat64() * float64(10*time.Millisecond))
		for at < stopAt {
			end := at + time.Duration(rng.ExpFloat64()*float64(10*time.Second))
			eps = append(eps, episode{e, at, end})
			at = end + time.Duration(rng.ExpFloat64()*float64(10*time.Millisecond))
		}
	}
	if len(eps) == 0 {
		t.Fatal("seeded schedule drew no episode before the stop")
	}
	var inFlight int
	for _, ep := range eps {
		s.Inject(ep.e, Injected[rng.Intn(len(Injected))], 1)
		if ep.end < stopAt {
			s.Clear(ep.e)
		} else {
			inFlight++
		}
	}
	if inFlight == 0 || s.Active() == 0 {
		t.Fatalf("no episode in flight at the stop (%d drawn)", len(eps))
	}

	// Stopping heals every in-flight episode and records its end.
	s.ClearAll()
	if s.Active() != 0 {
		t.Fatalf("active faults after stop: %d", s.Active())
	}
	assertHealed(t, targets)
	injected, cleared := countFaultEvents(rec)
	if injected != len(eps) {
		t.Fatalf("recorder saw %d injections, want %d", injected, len(eps))
	}
	if cleared < injected {
		t.Fatalf("dangling injections on recorder: %d injected vs %d cleared", injected, cleared)
	}
}
