package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestDroppedByShard verifies the drop-oldest policy tallies which
// shard's events it discarded, and that the breakdown round-trips
// through the JSONL meta record.
func TestDroppedByShard(t *testing.T) {
	r := NewRecorder(8)
	a, b := r.Tagged("g0"), r.Tagged("g1")
	for i := 0; i < 6; i++ {
		a.Emit(Event{Type: GaugeSample})
	}
	for i := 0; i < 6; i++ {
		b.Emit(Event{Type: GaugeSample})
	}
	by := r.DroppedByShard()
	if by == nil {
		t.Fatal("no per-shard drop breakdown after exceeding the limit")
	}
	var total int64
	for _, n := range by {
		total += n
	}
	if total != r.Dropped() {
		t.Fatalf("per-shard drops sum to %d, total dropped is %d", total, r.Dropped())
	}
	if by["g0"] == 0 {
		t.Fatalf("oldest events were g0's, but g0 shows no drops: %v", by)
	}

	var buf bytes.Buffer
	if err := WriteRecorderJSONL(&buf, r); err != nil {
		t.Fatal(err)
	}
	_, dropped, backBy, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != r.Dropped() {
		t.Fatalf("round-trip dropped %d, want %d", dropped, r.Dropped())
	}
	for shard, n := range by {
		if backBy[shard] != n {
			t.Fatalf("round-trip drops for %q = %d, want %d (got %v)", shard, backBy[shard], n, backBy)
		}
	}

	r.Reset()
	if r.DroppedByShard() != nil {
		t.Fatal("Reset did not clear the per-shard breakdown")
	}
}

// TestReportRendersAttribution checks the analyzer picks up the newest
// attribution sample and renders its blame table.
func TestReportRendersAttribution(t *testing.T) {
	evs := []Event{
		{Type: AttributionSample, Node: "harness",
			Fields: map[string]float64{"traces": 10, "tail": 2, "blame:s1/disk": 0.9}},
		{Type: AttributionSample, Node: "harness", Detail: "s2/net",
			Fields: map[string]float64{"traces": 40, "tail": 7, "blame:s2/net": 0.7, "blame:s1/disk": 0.2}},
	}
	rep := Analyze(evs)
	if rep.BlameTraces != 40 || rep.BlameTail != 7 {
		t.Fatalf("analyzer kept the wrong sample: traces=%d tail=%d", rep.BlameTraces, rep.BlameTail)
	}
	if len(rep.Blame) != 2 || rep.Blame[0].Node != "s2" || rep.Blame[0].Res != "net" {
		t.Fatalf("blame rows wrong: %+v", rep.Blame)
	}
	out := rep.Render()
	if !strings.Contains(out, "critical-path attribution") || !strings.Contains(out, "s2") {
		t.Fatalf("render missing attribution table:\n%s", out)
	}
}
