package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"depfast/internal/core"
	"depfast/internal/obs"
	"depfast/internal/trace"
)

// TestReportWaitsKeepsDropCount: a wait trace exported from a
// collector that hit its limit reports the records it lost, so a
// truncated trace is never analyzed as a complete one.
func TestReportWaitsKeepsDropCount(t *testing.T) {
	c := trace.NewCollector(4)
	t0 := time.Unix(100, 0)
	for i := 0; i < 10; i++ {
		c.Record(core.WaitRecord{Node: "s1", CoroutineName: "replicate",
			Event: core.EventDesc{Kind: "quorum", Quorum: 2, Total: 3, Peers: []string{"s2", "s3"}},
			Start: t0, End: t0.Add(time.Duration(i+1) * time.Millisecond)})
	}
	if c.Dropped() == 0 {
		t.Fatal("collector at its limit dropped nothing")
	}
	var file, out bytes.Buffer
	if err := trace.WriteJSON(&file, c); err != nil {
		t.Fatal(err)
	}
	if err := report(&out, &file); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("%d wait records, dropped %d", c.Len(), c.Dropped()),
		"slowness propagation graph", "wait breakdown", "s1",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestReportEventsRendersMTTD: a flight-recorder timeline gets the
// bucketed timeline and the MTTD/MTTR report.
func TestReportEventsRendersMTTD(t *testing.T) {
	t0 := time.Unix(100, 0)
	evs := []obs.Event{
		{Time: t0, Type: obs.FaultInjected, Node: "s2", Detail: "Disk Slowness"},
		{Time: t0.Add(300 * time.Millisecond), Type: obs.QuarantineEnter, Node: "s1", Peer: "s2"},
	}
	var file, out bytes.Buffer
	if err := obs.WriteJSONL(&file, evs, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := report(&out, &file); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"RATE", "MTTD/MTTR report", "MTTD: 300ms"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, out.String())
		}
	}
}
