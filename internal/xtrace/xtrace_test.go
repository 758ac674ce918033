package xtrace

import (
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	ctx := c.StartRequest("r", "n")
	if ctx.Active() {
		t.Fatal("nil collector returned an active context")
	}
	c.Record(ctx, Span{})
	c.Finish(ctx, time.Now())
	c.SetDeadline(time.Second)
	if c.Deadline() != 0 || c.NewSpanID() != 0 {
		t.Fatal("nil collector methods not inert")
	}
	if c.Traces() != nil || c.Stats() != (Stats{}) {
		t.Fatal("nil collector leaked state")
	}
	if _, ok := c.BlameShare("n"); ok {
		t.Fatal("nil collector corroborated")
	}
}

func TestHeadSamplingKeepsEveryNth(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 4})
	c.SetDeadline(time.Hour)
	sampled := 0
	for i := 0; i < 16; i++ {
		ctx := c.StartRequest("req", "client")
		if ctx.Sampled {
			sampled++
		}
		c.Finish(ctx, time.Now())
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 at 1-in-4", sampled)
	}
	if got := len(c.Traces()); got != 4 {
		t.Fatalf("kept %d traces, want 4", got)
	}
	st := c.Stats()
	if st.HeadSampled != 4 || st.TailPromoted != 0 || st.Finished != 16 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSampleEveryOneKeepsAll(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1})
	c.SetDeadline(time.Hour)
	for i := 0; i < 5; i++ {
		ctx := c.StartRequest("req", "client")
		if !ctx.Sampled {
			t.Fatalf("request %d not sampled at 1-in-1", i)
		}
		c.Finish(ctx, time.Now())
	}
	if got := len(c.Traces()); got != 5 {
		t.Fatalf("kept %d traces, want 5", got)
	}
}

func TestTailPromotionOverDeadline(t *testing.T) {
	c := NewCollector(Config{SampleEvery: -1})
	// Fast request: dropped.
	ctx := c.StartRequest("fast", "client")
	c.Finish(ctx, time.Now())
	// Slow request: finish it past the 25ms floor.
	ctx = c.StartRequest("slow", "client")
	c.Finish(ctx, time.Now().Add(2*tailFloor))

	traces := c.Traces()
	if len(traces) != 1 || !traces[0].Promoted || traces[0].Name != "slow" {
		t.Fatalf("tail promotion kept %v", traces)
	}
	if len(c.TailTraces()) != 1 {
		t.Fatal("TailTraces missed the promoted trace")
	}
}

func TestExplicitDeadlineOverride(t *testing.T) {
	c := NewCollector(Config{SampleEvery: -1})
	c.SetDeadline(time.Nanosecond)
	ctx := c.StartRequest("req", "client")
	time.Sleep(time.Millisecond)
	c.Finish(ctx, time.Now())
	if len(c.Traces()) != 1 {
		t.Fatal("explicit deadline did not promote")
	}
	if c.Deadline() != time.Nanosecond {
		t.Fatal("Deadline() ignored the override")
	}
}

func TestSpanTreeAndParentLinks(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1})
	ctx := c.StartRequest("req", "client")
	t0 := time.Now()
	child := c.Record(ctx, Span{Parent: ctx.Span, Name: "rpc", Node: "s1",
		Res: Net, Start: t0, End: t0.Add(time.Millisecond)})
	c.Record(ctx.Child(child), Span{Parent: child, Name: "fsync", Node: "s1",
		Res: Disk, Start: t0, End: t0.Add(time.Millisecond)})
	c.Finish(ctx, t0.Add(2*time.Millisecond))

	traces := c.Traces()
	if len(traces) != 1 {
		t.Fatalf("kept %d traces", len(traces))
	}
	tr := traces[0]
	if len(tr.Spans) != 3 { // rpc + fsync + root
		t.Fatalf("got %d spans: %v", len(tr.Spans), tr.Spans)
	}
	byName := map[string]Span{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = sp
	}
	if byName["rpc"].Parent != ctx.Span {
		t.Fatal("rpc span not parented under root")
	}
	if byName["fsync"].Parent != byName["rpc"].ID {
		t.Fatal("fsync span not parented under rpc")
	}
	if byName["req"].ID != ctx.Span {
		t.Fatal("root span id mismatch")
	}
}

func TestForeignFragmentFinalizedAfterLinger(t *testing.T) {
	c := NewCollector(Config{SampleEvery: -1})
	// A span for a trace this collector never started (wire-propagated
	// from another process), long enough to tail-promote.
	foreign := Context{TraceID: 999, Span: 1}
	t0 := time.Now().Add(-2 * tailFloor)
	c.Record(foreign, Span{Name: "commit", Node: "s1", Res: CPU,
		Start: t0, End: t0.Add(tailFloor + 5*time.Millisecond)})
	if got := c.Stats().Pending; got != 1 {
		t.Fatalf("pending %d, want 1 foreign fragment", got)
	}
	// Age it past the linger, then drive sweeps via unrelated activity.
	c.mu.Lock()
	c.pendings[999].last = time.Now().Add(-foreignLinger - time.Second)
	c.mu.Unlock()
	for i := 0; i < 130; i++ {
		c.Record(Context{TraceID: 999000, Span: 1}, Span{Name: "x", Node: "n"})
	}
	var got []Trace
	for _, tr := range c.Traces() {
		if tr.ID == 999 {
			got = append(got, tr)
		}
	}
	if len(got) != 1 || !got[0].Foreign || !got[0].Promoted {
		t.Fatalf("foreign finalization: %+v", got)
	}
}

func TestLateSpansAfterFinishAreDropped(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1})
	ctx := c.StartRequest("req", "client")
	c.Finish(ctx, time.Now())
	// An fsync that completes after the client finished must not
	// resurrect the trace as a foreign fragment.
	c.Record(ctx, Span{Name: "late-fsync", Node: "s1", Res: Disk})
	if got := c.Stats().Pending; got != 0 {
		t.Fatalf("late span resurrected the trace (pending=%d)", got)
	}
}

func TestRetainedRingDropsOldest(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1, MaxRetained: 4})
	for i := 0; i < 10; i++ {
		ctx := c.StartRequest("req", "client")
		c.Finish(ctx, time.Now())
	}
	traces := c.Traces()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d, want 4", len(traces))
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].ID < traces[i-1].ID {
			t.Fatal("ring not oldest-first")
		}
	}
}

func TestPendingOverflowRunsUntraced(t *testing.T) {
	c := NewCollector(Config{})
	for i := 0; i < maxPending; i++ {
		if !c.StartRequest("a", "n").Active() {
			t.Fatalf("request %d of %d got an inactive context", i, maxPending)
		}
	}
	if c.StartRequest("c", "n").Active() {
		t.Fatal("overflow request got an active context")
	}
	if c.Stats().Overflow != 1 {
		t.Fatalf("overflow count %d", c.Stats().Overflow)
	}
}

func TestConcurrentRecordFinish(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx := c.StartRequest("req", "client")
				id := c.Record(ctx, Span{Parent: ctx.Span, Name: "rpc",
					Node: "s1", Res: Net, Start: time.Now(), End: time.Now()})
				c.Record(ctx.Child(id), Span{Parent: id, Name: "fsync",
					Node: "s1", Res: Disk, Start: time.Now(), End: time.Now()})
				c.Finish(ctx, time.Now())
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Finished != 1600 || st.Pending != 0 {
		t.Fatalf("stats after concurrent run: %+v", st)
	}
}

func TestBlameShareNeedsEvidence(t *testing.T) {
	c := NewCollector(Config{SampleEvery: 1})
	if _, ok := c.BlameShare("s1"); ok {
		t.Fatal("corroborated with zero traces")
	}
	t0 := time.Now()
	for i := 0; i < 10; i++ {
		ctx := c.StartRequest("req", "client")
		c.Record(ctx, Span{Parent: ctx.Span, Name: "rpc", Node: "s1", Res: Net,
			Start: t0, End: t0.Add(10 * time.Millisecond)})
		c.Finish(ctx, t0.Add(10*time.Millisecond))
	}
	// Force cache refresh past the TTL.
	c.mu.Lock()
	c.blameAt = time.Time{}
	c.mu.Unlock()
	share, ok := c.BlameShare("s1")
	if !ok || share < 0.5 {
		t.Fatalf("BlameShare(s1) = %.2f, %v; want dominant share", share, ok)
	}
	if other, _ := c.BlameShare("s9"); other != 0 {
		t.Fatalf("unblamed node got share %.2f", other)
	}
}
