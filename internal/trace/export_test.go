package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"depfast/internal/core"
)

func TestJSONRoundTrip(t *testing.T) {
	in := []core.WaitRecord{
		rec("s1", "quorum", 2, 3, []string{"s2", "s3"}, 5*time.Millisecond),
		rec("c1", "rpc", 1, 1, []string{"s1"}, time.Millisecond),
	}
	in[1].TimedOut = true
	c := NewCollector(0)
	for _, r := range in {
		c.Record(r)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, c); err != nil {
		t.Fatal(err)
	}
	out, dropped, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || dropped != 0 {
		t.Fatalf("records = %d, dropped = %d", len(out), dropped)
	}
	if out[0].Node != "s1" || out[0].Event.Quorum != 2 || len(out[0].Event.Peers) != 2 {
		t.Fatalf("record 0 = %+v", out[0])
	}
	if !out[1].TimedOut {
		t.Fatal("timed-out flag lost")
	}
	if got := out[0].End.Sub(out[0].Start); got != 5*time.Millisecond {
		t.Fatalf("duration = %v", got)
	}
}

// TestWriteCollectorJSONCarriesDropCount: a collector whose limit
// evicted records exports its drop count with the records, and the
// reader hands it back, so offline analysis knows the trace is a
// suffix of the run.
func TestWriteCollectorJSONCarriesDropCount(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 10; i++ {
		c.Record(rec("s1", "rpc", 1, 1, []string{"s2"}, time.Duration(i+1)*time.Millisecond))
	}
	if c.Dropped() == 0 {
		t.Fatal("collector at its limit dropped nothing")
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, c); err != nil {
		t.Fatal(err)
	}
	out, dropped, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != c.Dropped() {
		t.Fatalf("dropped = %d, want %d", dropped, c.Dropped())
	}
	if len(out) != c.Len() {
		t.Fatalf("records = %d, want %d (meta line must not become a record)", len(out), c.Len())
	}
}

func TestReadJSONCorrupt(t *testing.T) {
	if _, _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("corrupt json accepted")
	}
}

func TestReadJSONEmpty(t *testing.T) {
	out, dropped, err := ReadJSON(strings.NewReader(""))
	if err != nil || len(out) != 0 || dropped != 0 {
		t.Fatalf("empty read: %v %v", out, err)
	}
}

func TestBreakdown(t *testing.T) {
	records := []core.WaitRecord{
		rec("s1", "disk", 1, 1, nil, 2*time.Millisecond),
		rec("s1", "disk", 1, 1, nil, 4*time.Millisecond),
		rec("s1", "quorum", 2, 3, []string{"s2"}, time.Millisecond),
		rec("s2", "disk", 1, 1, nil, 10*time.Millisecond),
	}
	records[0].TimedOut = true
	stats := Breakdown(records)
	if len(stats) != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	// s1 disk aggregates 2 waits, mean 3ms, max 4ms, 1 timeout.
	var s1disk *KindStat
	for i := range stats {
		if stats[i].Node == "s1" && stats[i].Kind == "disk" {
			s1disk = &stats[i]
		}
	}
	if s1disk == nil || s1disk.Count != 2 || s1disk.Mean() != 3*time.Millisecond ||
		s1disk.MaxWait != 4*time.Millisecond || s1disk.Timeouts != 1 {
		t.Fatalf("s1 disk = %+v", s1disk)
	}
	// Rendering includes the headline columns.
	out := RenderBreakdown(stats)
	for _, want := range []string{"NODE", "disk", "quorum", "s2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
