package harness

import (
	"sync"
	"time"

	"depfast/internal/obs"
	"depfast/internal/xtrace"
)

// attributionEvery is the gauge samples per attribution sample.
const attributionEvery = 10

// startSampler launches the flight-recorder gauge sampler: it
// publishes every completed timeline slice as one GaugeSample per
// group (on the group's recorder, so a sharded run's samples carry the
// shard tag) —
// the slice's throughput and latency percentiles plus the group's
// current quarantine size — and, with a trace collector attached,
// periodically folds the critical-path blame table into an attribution
// sample. Returns a stop function.
func startSampler(sc Scenario, pop *population, d *deployment) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	next := 0 // first slice not yet published
	publish := func() {
		for t0 := pop.tl.t0; next < sliceEnd(time.Since(t0)); next++ {
			for g, grp := range d.groups {
				w := pop.tl.window(next, next+1, g)
				grp.Recorder.Emit(obs.Event{Type: obs.GaugeSample, Node: "harness",
					Time: t0.Add(time.Duration(next+1) * sliceWidth),
					Fields: map[string]float64{
						"rate":        w.All.Tput,
						"p50_us":      float64(w.All.P50.Microseconds()),
						"p99_us":      float64(w.All.P99.Microseconds()),
						"errors":      float64(w.Errs),
						"quarantined": float64(sentinelOf(grp).Quarantined),
					}})
			}
			if sc.XTracer != nil && next%attributionEvery == attributionEvery-1 {
				emitAttributionSample(sc.Recorder, sc.XTracer)
			}
		}
	}
	go func() {
		defer wg.Done()
		tick := time.NewTicker(sliceWidth)
		defer tick.Stop()
		for {
			select {
			case <-done:
				publish() // the slices completed since the last tick
				return
			case <-tick.C:
				publish()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done); wg.Wait() }) }
}

// emitAttributionSample folds the trace collector's current
// critical-path blame table into the recorder: one event with
// blame:<node>/<resource> share fields, preferring tail-promoted
// traces (the requests the deadline flagged) and falling back to the
// whole retained window before any have been promoted.
func emitAttributionSample(rec *obs.Recorder, col *xtrace.Collector) {
	att := xtrace.Attribute(col.TailTraces())
	if att.Traces == 0 {
		att = xtrace.Attribute(col.Traces())
	}
	if att.Traces == 0 || len(att.Rows) == 0 {
		return
	}
	fields := map[string]float64{
		"traces": float64(att.Traces),
		"tail":   float64(att.Tail),
	}
	for _, row := range att.Rows {
		fields["blame:"+row.Node+"/"+string(row.Res)] = row.Share
	}
	top := att.Top()
	rec.Emit(obs.Event{Type: obs.AttributionSample, Node: "harness",
		Detail: top.Node + "/" + string(top.Res), Fields: fields})
}
