package hedge

import (
	"testing"
	"time"

	"depfast/internal/obs"
)

func TestBudgetBoundsHedges(t *testing.T) {
	b := NewBudget(0.1, 8)
	// Drain the initial burst.
	burst := 0
	for b.TryTake() {
		burst++
	}
	if burst != 8 {
		t.Fatalf("initial burst = %d takes, want 8", burst)
	}
	// 100 requests at ratio 0.1 accrue exactly 10 more tokens; hedges
	// must never exceed ratio × requests + burst.
	taken := 0
	for i := 0; i < 100; i++ {
		b.NoteRequest()
		if b.TryTake() {
			taken++
		}
	}
	if taken > 10 {
		t.Fatalf("took %d hedges from 100 requests at ratio 0.1, want <= 10", taken)
	}
	if taken < 9 {
		t.Fatalf("took %d hedges from 100 requests at ratio 0.1, want ~10", taken)
	}
}

func TestBudgetCapsAtBurst(t *testing.T) {
	b := NewBudget(0.5, 4)
	for i := 0; i < 1000; i++ {
		b.NoteRequest()
	}
	if got := b.Tokens(); got != 4 {
		t.Fatalf("tokens after long idle accrual = %v, want capped at burst 4", got)
	}
}

func TestBudgetDefaults(t *testing.T) {
	b := NewBudget(0, 0)
	if b.Ratio() != 0.1 {
		t.Fatalf("default ratio = %v, want 0.1", b.Ratio())
	}
	if b.Tokens() != 8 {
		t.Fatalf("default burst = %v, want 8", b.Tokens())
	}
}

func TestDeadlineNeedsSamples(t *testing.T) {
	h := New(Config{})
	if _, ok := h.Deadline("s2"); ok {
		t.Fatal("deadline available with zero samples; must withhold until MinSamples")
	}
	for i := 0; i < 8; i++ {
		h.Observe("s2", 5*time.Millisecond, false)
	}
	d, ok := h.Deadline("s2")
	if !ok {
		t.Fatal("deadline unavailable after MinSamples observations")
	}
	// 2.5× the 5ms EWMA, clamped within [2ms, 500ms].
	if d < 10*time.Millisecond || d > 15*time.Millisecond {
		t.Fatalf("deadline = %v, want ≈2.5× the 5ms estimate", d)
	}
}

func TestDeadlineClamped(t *testing.T) {
	h := New(Config{})
	for i := 0; i < 8; i++ {
		h.Observe("fast", 100*time.Microsecond, false)
		h.Observe("slow", 400*time.Millisecond, false)
	}
	if d, ok := h.Deadline("fast"); !ok || d != 2*time.Millisecond {
		t.Fatalf("fast peer deadline = %v/%v, want clamp to the 2ms floor", d, ok)
	}
	if d, ok := h.Deadline("slow"); !ok || d != 500*time.Millisecond {
		t.Fatalf("slow peer deadline = %v/%v, want clamp to the 500ms cap", d, ok)
	}
}

func TestTryFireAccounting(t *testing.T) {
	rec := obs.NewRecorder(64)
	h := New(Config{BudgetRatio: 0.1, BudgetBurst: 2, Node: "client", Recorder: rec})
	if !h.TryFire("s1", "s2", "read") {
		t.Fatal("first hedge denied with a full burst")
	}
	if !h.TryFire("s1", "s2", "write") {
		t.Fatal("second hedge denied with burst 2")
	}
	if h.TryFire("s1", "s2", "read") {
		t.Fatal("third hedge allowed past an exhausted budget")
	}
	if got := h.Fired.Value(); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
	if got := h.PutRetry.Value(); got != 1 {
		t.Fatalf("PutRetry = %d, want 1 (only the write hedge)", got)
	}
	if got := h.Exhausted.Value(); got != 1 {
		t.Fatalf("Exhausted = %d, want 1", got)
	}
	h.NoteWon("s2", 3*time.Millisecond)
	h.NoteWasted("s2")
	if h.Won.Value() != 1 || h.Wasted.Value() != 1 {
		t.Fatalf("Won/Wasted = %d/%d, want 1/1", h.Won.Value(), h.Wasted.Value())
	}
	events := rec.Events()
	byType := map[obs.Type]int{}
	for _, e := range events {
		byType[e.Type]++
	}
	if byType[obs.HedgeFired] != 2 || byType[obs.HedgeWon] != 1 || byType[obs.HedgeCancelled] != 1 {
		t.Fatalf("event counts = %v, want 2 fired / 1 won / 1 cancelled", byType)
	}
}

func TestHealthyGatesSuspects(t *testing.T) {
	h := New(Config{})
	for i := 0; i < 20; i++ {
		h.Observe("s2", 3*time.Millisecond, false)
		h.Observe("s3", 3*time.Millisecond, false)
		h.Observe("s4", 100*time.Millisecond, false)
	}
	if !h.Healthy("s2") || !h.Healthy("s3") {
		t.Fatal("healthy peers reported unhealthy")
	}
	if h.Healthy("s4") {
		t.Fatal("suspected peer reported healthy; hedges must never target it")
	}
}
