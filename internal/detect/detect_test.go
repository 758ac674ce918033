package detect

import (
	"strings"
	"sync"
	"testing"
	"time"

	"depfast/internal/race"
)

func feed(d *Detector, peer string, rtt time.Duration, n int) {
	for i := 0; i < n; i++ {
		d.Observe(peer, rtt, false)
	}
}

func TestDetectorFlagsSlowPeer(t *testing.T) {
	d := New(16)
	feed(d, "s2", 3*time.Millisecond, 50)
	feed(d, "s3", 3*time.Millisecond, 50)
	feed(d, "s4", 80*time.Millisecond, 50) // fail-slow
	suspects := d.Suspects()
	if len(suspects) != 1 || suspects[0] != "s4" {
		t.Fatalf("suspects = %v, want [s4]", suspects)
	}
	stats := d.Stats()
	if stats[0].Peer != "s4" || !stats[0].Suspect {
		t.Fatalf("stats[0] = %+v", stats[0])
	}
}

func TestDetectorNoFalsePositiveWhenAllSlow(t *testing.T) {
	// Cluster-wide slowness (overload) must not single anyone out.
	d := New(16)
	for _, p := range []string{"s2", "s3", "s4"} {
		feed(d, p, 50*time.Millisecond, 50)
	}
	if s := d.Suspects(); len(s) != 0 {
		t.Fatalf("suspects = %v, want none (relative detection)", s)
	}
}

func TestDetectorFloorSuppressesMicroDifferences(t *testing.T) {
	// Sub-floor latencies are never abnormal even at a high ratio.
	d := New(16)
	feed(d, "s2", 100*time.Microsecond, 50)
	feed(d, "s3", 100*time.Microsecond, 50)
	feed(d, "s4", 900*time.Microsecond, 50) // 9x but tiny
	if s := d.Suspects(); len(s) != 0 {
		t.Fatalf("suspects = %v, want none below floor", s)
	}
}

func TestDetectorNeedsMinSamples(t *testing.T) {
	d := New(16)
	feed(d, "s2", time.Millisecond, 50)
	feed(d, "s3", time.Millisecond, 50)
	feed(d, "s4", 100*time.Millisecond, 3) // too few samples
	if s := d.Suspects(); len(s) != 0 {
		t.Fatalf("suspects = %v before MinSamples", s)
	}
}

func TestDetectorEWMATracksChange(t *testing.T) {
	d := New(16)
	feed(d, "s2", time.Millisecond, 50)
	feed(d, "s3", time.Millisecond, 50)
	feed(d, "s4", time.Millisecond, 50)
	if s := d.Suspects(); len(s) != 0 {
		t.Fatalf("healthy start: %v", s)
	}
	// s4 becomes slow; EWMA converges within a few dozen samples.
	feed(d, "s4", 60*time.Millisecond, 60)
	suspects := d.Suspects()
	if len(suspects) != 1 || suspects[0] != "s4" {
		t.Fatalf("suspects after slowdown = %v", suspects)
	}
	// s4 recovers.
	feed(d, "s4", time.Millisecond, 200)
	if s := d.Suspects(); len(s) != 0 {
		t.Fatalf("suspects after recovery = %v", s)
	}
}

func TestDetectorTimeoutsPenalized(t *testing.T) {
	d := New(16)
	feed(d, "s2", time.Millisecond, 50)
	feed(d, "s3", time.Millisecond, 50)
	for i := 0; i < 30; i++ {
		d.Observe("s4", 0, true) // every call times out
	}
	suspects := d.Suspects()
	if len(suspects) != 1 || suspects[0] != "s4" {
		t.Fatalf("suspects = %v, want [s4] (timeouts)", suspects)
	}
	for _, st := range d.Stats() {
		if st.Peer == "s4" && st.Timeouts != 30 {
			t.Fatalf("timeouts = %d", st.Timeouts)
		}
	}
}

func TestDetectorReset(t *testing.T) {
	d := New(16)
	feed(d, "s2", time.Millisecond, 20)
	d.Reset()
	if len(d.Stats()) != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestDetectorConcurrentObserve(t *testing.T) {
	d := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		peer := string(rune('a' + g%3))
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				d.Observe(peer, time.Millisecond, false)
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, st := range d.Stats() {
		total += st.Samples
	}
	if total != 4000 {
		t.Fatalf("samples = %d, want 4000", total)
	}
}

func TestDetectorSuspicionHysteresis(t *testing.T) {
	// A peer hovering between the release and suspect thresholds must
	// keep whichever verdict it last earned — no flapping.
	d := New(16) // suspect at 5x median, release at 2.5x
	feed(d, "s2", time.Millisecond, 50)
	feed(d, "s3", time.Millisecond, 50)
	// s4 never suspected at 3.5x: below the entry threshold.
	feed(d, "s4", 3500*time.Microsecond, 50)
	if s := d.Suspects(); len(s) != 0 {
		t.Fatalf("suspects = %v, want none in the hysteresis band", s)
	}
	// Push s4 well past the entry threshold...
	feed(d, "s4", 60*time.Millisecond, 60)
	if !contains(d.Suspects(), "s4") {
		t.Fatal("s4 not suspected at 60x median")
	}
	// ...then let it decay back into the band: still suspect.
	for i := 0; i < 200 && time.Duration(ewmaOf(d, "s4")) > 4*time.Millisecond; i++ {
		d.Observe("s4", 3500*time.Microsecond, false)
	}
	if got := time.Duration(ewmaOf(d, "s4")); got > 4*time.Millisecond || got < 3*time.Millisecond {
		t.Fatalf("setup: s4 EWMA %v not in band", got)
	}
	if !contains(d.Suspects(), "s4") {
		t.Fatal("s4 released inside the hysteresis band (flapping)")
	}
	// Full recovery below the release threshold clears it.
	feed(d, "s4", time.Millisecond, 300)
	if s := d.Suspects(); len(s) != 0 {
		t.Fatalf("suspects after full recovery = %v", s)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func ewmaOf(d *Detector, peer string) float64 {
	for _, st := range d.Stats() {
		if st.Peer == peer {
			return float64(st.EWMA)
		}
	}
	return 0
}

func TestDetectorConsecutiveHealthy(t *testing.T) {
	d := New(16)
	feed(d, "s2", time.Millisecond, 50)
	feed(d, "s3", time.Millisecond, 50)
	feed(d, "s4", 80*time.Millisecond, 50)
	if n := d.ConsecutiveHealthy("s4"); n != 0 {
		t.Fatalf("streak = %d during fault, want 0", n)
	}
	// Streak recovery is immediate once individual RTTs look normal,
	// long before the EWMA decays below the suspicion threshold.
	feed(d, "s4", time.Millisecond, 5)
	if n := d.ConsecutiveHealthy("s4"); n != 5 {
		t.Fatalf("streak = %d after 5 healthy RTTs, want 5", n)
	}
	if !contains(d.Suspects(), "s4") {
		t.Fatal("EWMA should still be inflated after only 5 samples")
	}
	// One slow sample resets the streak.
	d.Observe("s4", 80*time.Millisecond, false)
	if n := d.ConsecutiveHealthy("s4"); n != 0 {
		t.Fatalf("streak = %d after slow sample, want 0", n)
	}
	if n := d.ConsecutiveHealthy("unknown"); n != 0 {
		t.Fatalf("streak for unknown peer = %d", n)
	}
}

func TestDetectorHealthyAccessor(t *testing.T) {
	d := New(16)
	if !d.Healthy("never-seen") {
		t.Fatal("unknown peer should default to healthy")
	}
	feed(d, "s2", time.Millisecond, 50)
	feed(d, "s3", time.Millisecond, 50)
	feed(d, "s4", 80*time.Millisecond, 50)
	if d.Healthy("s4") {
		t.Fatal("suspected peer reported healthy")
	}
	if !d.Healthy("s2") {
		t.Fatal("normal peer reported unhealthy")
	}
}

func TestDetectorForget(t *testing.T) {
	d := New(16)
	feed(d, "s2", time.Millisecond, 50)
	feed(d, "s3", time.Millisecond, 50)
	feed(d, "s4", 80*time.Millisecond, 50)
	d.Forget("s4")
	if contains(d.Suspects(), "s4") {
		t.Fatal("s4 still suspected after Forget")
	}
	// Probation: s4 must re-earn MinSamples before it can be judged.
	feed(d, "s4", 80*time.Millisecond, 3)
	if contains(d.Suspects(), "s4") {
		t.Fatal("s4 judged before re-earning MinSamples")
	}
	feed(d, "s4", 80*time.Millisecond, 20)
	if !contains(d.Suspects(), "s4") {
		t.Fatal("s4 not re-suspected after probation")
	}
}

func TestRenderHandlesArbitraryCounts(t *testing.T) {
	// The old hand-rolled itoa rendered negatives as "" — make sure
	// the strconv/fmt path shows them faithfully.
	out := Render([]PeerStat{{Peer: "x", EWMA: time.Millisecond, Samples: -1, Timeouts: 0}})
	if !strings.Contains(out, "-1") {
		t.Fatalf("negative count lost in render:\n%s", out)
	}
}

func TestSelfMonitor(t *testing.T) {
	s := NewSelf("cpu")
	if s.Slow() {
		t.Fatal("slow before any samples")
	}
	// Healthy probes: stretch ~1.
	for i := 0; i < 5; i++ {
		s.Observe(time.Millisecond, time.Millisecond)
	}
	if s.Slow() {
		t.Fatalf("slow at stretch %.2f", s.Stretch())
	}
	// Resource degrades 20x: stretch EWMA crosses the factor quickly.
	for i := 0; i < 10; i++ {
		s.Observe(20*time.Millisecond, time.Millisecond)
	}
	if !s.Slow() {
		t.Fatalf("not slow at stretch %.2f", s.Stretch())
	}
	// Ignored inputs don't disturb state.
	s.Observe(0, time.Millisecond)
	s.Observe(time.Millisecond, 0)
	if !s.Slow() {
		t.Fatal("state disturbed by ignored observations")
	}
	s.Reset()
	if s.Slow() {
		t.Fatal("slow after Reset")
	}
	if s.Name() != "cpu" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestRender(t *testing.T) {
	d := New(16)
	feed(d, "s2", time.Millisecond, 20)
	feed(d, "s3", time.Millisecond, 20)
	feed(d, "s4", 50*time.Millisecond, 20)
	out := Render(d.Stats())
	if !strings.Contains(out, "PEER") || !strings.Contains(out, "fail-slow") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestDeadlineHint(t *testing.T) {
	d := New(16)
	if _, ok := d.DeadlineHint("s2"); ok {
		t.Fatal("hint available before MinSamples")
	}
	feed(d, "s2", 4*time.Millisecond, 50)
	feed(d, "s3", 4*time.Millisecond, 50)
	hint, ok := d.DeadlineHint("s2")
	if !ok {
		t.Fatal("hint unavailable after MinSamples")
	}
	if hint < 8*time.Millisecond || hint > 12*time.Millisecond {
		t.Fatalf("hint = %v, want ≈2.5× the 4ms EWMA", hint)
	}
	// A peer whose EWMA collapsed below the healthy median still gets a
	// median-based hint: hedging against scheduler noise is the failure
	// mode the max(peer, median) base exists to prevent.
	feed(d, "s4", 100*time.Microsecond, 50)
	fast, ok := d.DeadlineHint("s4")
	if !ok || fast < 8*time.Millisecond {
		t.Fatalf("fast-peer hint = %v/%v, want median-based ≈10ms", fast, ok)
	}
	// The floor backstops everything.
	d2 := New(16)
	feed(d2, "s2", 50*time.Microsecond, 50)
	low, ok := d2.DeadlineHint("s2")
	if !ok || low < floor {
		t.Fatalf("hint = %v/%v, want floored at %v", low, ok, floor)
	}
}

// TestObserveDoesNotAllocate pins the per-round-trip cost: Observe
// runs on every RPC of a server with a peer detector and of every
// hedged client, so the median it judges against must come from a
// reused buffer, computed once per call.
func TestObserveDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	d := New(16)
	peers := []string{"s1", "s2", "s3", "s4"}
	for _, p := range peers {
		feed(d, p, time.Millisecond, 20)
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		d.Observe(peers[i%len(peers)], time.Millisecond, false)
		i++
	}); n != 0 {
		t.Fatalf("Observe allocates %.1f times per call, want 0", n)
	}
}

func TestEWMA(t *testing.T) {
	var e EWMA
	if e.Samples() != 0 || e.Value() != 0 {
		t.Fatalf("zero EWMA = %v over %d samples", e.Value(), e.Samples())
	}
	e.Add(80, 0.25)
	if e.Value() != 80 || e.Samples() != 1 {
		t.Fatalf("first sample did not seed: %v over %d", e.Value(), e.Samples())
	}
	e.Add(0, 0.25) // a zero-valued sample is a sample, not "empty"
	if e.Value() != 60 || e.Samples() != 2 {
		t.Fatalf("after a zero sample: %v over %d, want 60 over 2", e.Value(), e.Samples())
	}
	e.Add(100, 0.5)
	if e.Value() != 80 {
		t.Fatalf("fold at alpha 1/2 = %v, want 80", e.Value())
	}
	e.Reset()
	if e.Samples() != 0 || e.Value() != 0 {
		t.Fatalf("Reset left %v over %d samples", e.Value(), e.Samples())
	}
	e.Add(0, 0.25)
	e.Add(40, 0.25)
	if e.Value() != 10 {
		t.Fatalf("zero seed after Reset then 40 at 1/4 = %v, want 10", e.Value())
	}
}
