package mitigate

import (
	"testing"
	"time"
)

func testConfig() Config {
	return Config{
		Interval:         25 * time.Millisecond,
		QuarantineAfter:  3,
		RehabRTTs:        4,
		MinQuarantine:    100 * time.Millisecond,
		TransferCooldown: time.Second,
		MaxQuarantined:   1,
	}
}

func tick(p *Policy, now time.Time, v []PeerVerdict, selfSlow bool) Decision {
	return p.Tick(now, v, selfSlow)
}

func TestQuarantineNeedsConsecutiveSuspectTicks(t *testing.T) {
	p := NewPolicy(testConfig())
	now := time.Unix(0, 0)
	step := func(suspect bool) Decision {
		now = now.Add(25 * time.Millisecond)
		return tick(p, now, []PeerVerdict{{Peer: "b", Suspect: suspect}}, false)
	}
	// Interleaved healthy ticks reset the streak: no quarantine.
	for i := 0; i < 6; i++ {
		d := step(i%2 == 0)
		if len(d.Quarantine) != 0 {
			t.Fatalf("flapping verdicts quarantined at tick %d", i)
		}
	}
	// Three consecutive suspect ticks trip it.
	step(true)
	step(true)
	d := step(true)
	if len(d.Quarantine) != 1 || d.Quarantine[0] != "b" {
		t.Fatalf("quarantine = %v, want [b]", d.Quarantine)
	}
	if !p.IsQuarantined("b") {
		t.Fatal("IsQuarantined(b) = false after decision")
	}
}

func TestMaxQuarantinedCap(t *testing.T) {
	p := NewPolicy(testConfig()) // MaxQuarantined = 1
	now := time.Unix(0, 0)
	verdicts := []PeerVerdict{
		{Peer: "b", Suspect: true},
		{Peer: "c", Suspect: true},
	}
	var quarantined []string
	for i := 0; i < 10; i++ {
		now = now.Add(25 * time.Millisecond)
		d := tick(p, now, verdicts, false)
		quarantined = append(quarantined, d.Quarantine...)
	}
	if len(quarantined) != 1 {
		t.Fatalf("quarantined %v, want exactly one despite two suspects", quarantined)
	}
	if got := len(p.Quarantined()); got != 1 {
		t.Fatalf("Quarantined() has %d peers, want 1", got)
	}
}

func TestRehabilitationGating(t *testing.T) {
	p := NewPolicy(testConfig())
	now := time.Unix(0, 0)
	for i := 0; i < 3; i++ {
		now = now.Add(25 * time.Millisecond)
		tick(p, now, []PeerVerdict{{Peer: "b", Suspect: true}}, false)
	}
	if !p.IsQuarantined("b") {
		t.Fatal("setup: b not quarantined")
	}
	// Healthy RTTs but before MinQuarantine elapses: stays in.
	d := tick(p, now.Add(10*time.Millisecond),
		[]PeerVerdict{{Peer: "b", Suspect: false, ConsecutiveHealthy: 99}}, false)
	if len(d.Release) != 0 {
		t.Fatal("released before MinQuarantine elapsed")
	}
	// After MinQuarantine but with too few healthy RTTs: stays in.
	late := now.Add(200 * time.Millisecond)
	d = tick(p, late, []PeerVerdict{{Peer: "b", Suspect: false, ConsecutiveHealthy: 2}}, false)
	if len(d.Release) != 0 {
		t.Fatal("released with insufficient healthy streak")
	}
	// Both conditions met: released, and the slot frees up.
	d = tick(p, late.Add(25*time.Millisecond),
		[]PeerVerdict{{Peer: "b", Suspect: false, ConsecutiveHealthy: 4}}, false)
	if len(d.Release) != 1 || d.Release[0] != "b" {
		t.Fatalf("release = %v, want [b]", d.Release)
	}
	if p.IsQuarantined("b") {
		t.Fatal("still quarantined after release")
	}
	// The freed slot is reusable by another peer.
	for i := 0; i < 3; i++ {
		late = late.Add(25 * time.Millisecond)
		d = tick(p, late, []PeerVerdict{{Peer: "c", Suspect: true}}, false)
	}
	if !p.IsQuarantined("c") {
		t.Fatal("slot not reusable after release")
	}
}

func TestSelfDemoteStreakAndCooldown(t *testing.T) {
	p := NewPolicy(testConfig())
	now := time.Unix(0, 0)
	step := func(slow bool, dt time.Duration) Decision {
		now = now.Add(dt)
		return tick(p, now, nil, slow)
	}
	if d := step(true, 25*time.Millisecond); d.DemoteSelf {
		t.Fatal("demoted after one slow tick")
	}
	step(false, 25*time.Millisecond) // streak reset
	step(true, 25*time.Millisecond)
	step(true, 25*time.Millisecond)
	// First transfer also respects the cooldown measured from the
	// policy's zero time; jump past it.
	d := step(true, 2*time.Second)
	if !d.DemoteSelf {
		t.Fatal("no demotion after 3 consecutive slow ticks")
	}
	// Still slow immediately after: cooldown suppresses a second handoff.
	step(true, 25*time.Millisecond)
	step(true, 25*time.Millisecond)
	if d := step(true, 25*time.Millisecond); d.DemoteSelf {
		t.Fatal("demoted again inside cooldown")
	}
	// After the cooldown expires the streak can trip again.
	if d := step(true, 2*time.Second); !d.DemoteSelf {
		t.Fatal("no demotion after cooldown expiry")
	}
}

func TestResetClearsPeersButKeepsCooldown(t *testing.T) {
	p := NewPolicy(testConfig())
	now := time.Unix(0, 0)
	// Quarantine b and trip a self-demotion so lastTransfer is set
	// (the first demotion passes the cooldown against the zero time).
	demoted := false
	for i := 0; i < 4; i++ {
		now = now.Add(25 * time.Millisecond)
		if tick(p, now, []PeerVerdict{{Peer: "b", Suspect: true}}, true).DemoteSelf {
			demoted = true
		}
	}
	if !demoted {
		t.Fatal("setup: could not trigger demotion")
	}
	if !p.IsQuarantined("b") {
		t.Fatal("setup: b not quarantined")
	}
	p.Reset()
	if p.IsQuarantined("b") || len(p.Quarantined()) != 0 {
		t.Fatal("Reset left quarantine state behind")
	}
	// Cooldown survives Reset: an immediate slow streak cannot demote.
	for i := 0; i < 5; i++ {
		now = now.Add(25 * time.Millisecond)
		if d := tick(p, now, nil, true); d.DemoteSelf {
			t.Fatal("demotion inside cooldown after Reset")
		}
	}
}

func TestWithDefaultsFillsZeroFields(t *testing.T) {
	cfg := Config{MaxQuarantined: 2}.WithDefaults()
	def := DefaultConfig()
	if cfg.Interval != def.Interval || cfg.QuarantineAfter != def.QuarantineAfter ||
		cfg.RehabRTTs != def.RehabRTTs || cfg.MinQuarantine != def.MinQuarantine ||
		cfg.TransferCooldown != def.TransferCooldown {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.MaxQuarantined != 2 {
		t.Fatalf("MaxQuarantined overwritten: %d", cfg.MaxQuarantined)
	}
}
