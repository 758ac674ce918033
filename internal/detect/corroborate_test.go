package detect

import (
	"testing"
	"time"
)

// The detection constants put plain entry at 5×median, eased entry at
// 3× and vetoed entry at 7.5×, so the thresholds are cleanly separable.

// TestCorroborationLowersEntryThreshold: a peer at 4× the median is
// below the plain 5× entry bar but above the eased 3× bar — it must be
// suspected only when traces blame it.
func TestCorroborationLowersEntryThreshold(t *testing.T) {
	base := 4 * time.Millisecond
	run := func(share float64, ok bool) bool {
		d := New(8)
		d.SetCorroborator(func(peer string) (float64, bool) {
			if peer == "slow" {
				return share, ok
			}
			return 0, ok
		})
		feed(d, "a", base, 20)
		feed(d, "b", base, 20)
		feed(d, "slow", 4*base, 20)
		return !d.Healthy("slow")
	}
	if run(0.9, false) {
		t.Fatal("suspected at 4× without corroboration evidence")
	}
	if run(0.1, true) {
		t.Fatal("suspected at 4× with a below-threshold blame share")
	}
	if !run(0.8, true) {
		t.Fatal("not suspected at 4× despite dominant blame share")
	}
}

// TestVetoRaisesEntryThreshold: a peer at 6× the median clears the
// plain 5× bar, but a near-zero blame share stretches the bar to 7.5×
// — the RTT verdict is vetoed until the latency grows past even that.
func TestVetoRaisesEntryThreshold(t *testing.T) {
	base := 4 * time.Millisecond
	run := func(mult time.Duration, share float64) bool {
		d := New(8)
		d.SetCorroborator(func(peer string) (float64, bool) { return share, true })
		feed(d, "a", base, 20)
		feed(d, "b", base, 20)
		feed(d, "slow", mult*base, 20)
		return !d.Healthy("slow")
	}
	if run(6, 0.01) {
		t.Fatal("exonerating traces did not veto a 6× verdict")
	}
	if !run(9, 0.01) {
		t.Fatal("9× latency must override the trace veto")
	}
	if !run(6, 0.5) {
		t.Fatal("6× with corroborating traces must stay suspected")
	}
}

// TestHysteresisInvariants: the detection constants must keep a
// hysteresis band under every corroboration outcome, or a suspected
// peer would flap. Eased entry stays above release, a healthy RTT is
// judged no looser than release, the veto and corroboration share
// bands do not overlap, and a veto only ever raises the bar.
func TestHysteresisInvariants(t *testing.T) {
	if !(releaseRatio < suspectRatio*corroborateEase) {
		t.Fatalf("eased entry %v× at or below release %v×", suspectRatio*corroborateEase, releaseRatio)
	}
	if !(recoveryRatio <= releaseRatio) {
		t.Fatalf("healthy RTT bound %v× above release %v×", recoveryRatio, releaseRatio)
	}
	if !(vetoShare < corroborateShare) {
		t.Fatalf("veto share %v not below corroborate share %v", vetoShare, corroborateShare)
	}
	if !(vetoStretch > 1) {
		t.Fatalf("veto stretch %v does not raise the entry bar", vetoStretch)
	}

	// A fully corroborated suspect is released only at or below
	// release × median, never merely below the eased entry bar.
	base := 4 * time.Millisecond
	d := New(8)
	d.SetCorroborator(func(string) (float64, bool) { return 1, true })
	feed(d, "a", base, 20)
	feed(d, "b", base, 20)
	feed(d, "slow", 10*base, 20)
	if d.Healthy("slow") {
		t.Fatal("setup: slow peer not suspected at 10× with full blame")
	}
	// Decay into (release, eased entry): still suspect.
	for i := 0; i < 200 && ewmaOf(d, "slow") > 2.8*float64(base); i++ {
		d.Observe("slow", base*27/10, false)
	}
	if got := ewmaOf(d, "slow"); got <= releaseRatio*float64(base) || got >= suspectRatio*corroborateEase*float64(base) {
		t.Fatalf("setup: EWMA %v not between release and eased entry", time.Duration(got))
	}
	if d.Healthy("slow") {
		t.Fatal("corroborated peer released above release × median")
	}
	feed(d, "slow", base, 100)
	if !d.Healthy("slow") {
		t.Fatal("corroborated peer not released after full recovery")
	}
}

// TestCorroboratorAbsentKeepsPlainThreshold guards the default path.
func TestCorroboratorAbsentKeepsPlainThreshold(t *testing.T) {
	d := New(8)
	if got := d.suspectThresholdLocked("p"); got != suspectRatio {
		t.Fatalf("threshold %0.2f without corroborator, want %0.2f", got, float64(suspectRatio))
	}
}
