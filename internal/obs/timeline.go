package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Bucket aggregates one fixed-width slice of the event stream into
// the per-second numbers the paper's on/off comparison plots are made
// of: observed client rate, client latency quantiles, commit volume
// and commit-pipeline latency, plus everything notable that happened
// in the slice.
type Bucket struct {
	Start time.Time

	// From gauge samples in the bucket (mean of samples).
	Rate    float64
	P50     time.Duration
	P99     time.Duration
	Samples int

	// From commit spans in the bucket. Commits counts entries (a
	// batched span contributes its whole batch); CommitMean averages
	// per span — the pipeline latency one proposal experienced.
	Commits    int
	Spans      int
	CommitMean time.Duration
	CommitMax  time.Duration

	// Quarantined is the largest quarantine-set size seen in the bucket.
	Quarantined int

	// Marks are the notable (non-span, non-gauge) events in the bucket.
	Marks []Event
}

// Timeline is the bucketed view of one recorded run.
type Timeline struct {
	BucketSize time.Duration
	Start      time.Time
	End        time.Time
	Buckets    []Bucket
}

// BuildTimeline aggregates events into fixed-width buckets (bucket <= 0
// defaults to one second).
func BuildTimeline(events []Event, bucket time.Duration) *Timeline {
	if bucket <= 0 {
		bucket = time.Second
	}
	evs := ByTime(events)
	tl := &Timeline{BucketSize: bucket}
	if len(evs) == 0 {
		return tl
	}
	tl.Start = evs[0].Time
	tl.End = evs[len(evs)-1].Time
	n := int(tl.End.Sub(tl.Start)/bucket) + 1
	tl.Buckets = make([]Bucket, n)
	for i := range tl.Buckets {
		tl.Buckets[i].Start = tl.Start.Add(time.Duration(i) * bucket)
	}
	type acc struct {
		rate, p50, p99 float64
		n              int
	}
	gauges := make([]acc, n)
	commitTotals := make([]time.Duration, n)
	for _, e := range evs {
		i := int(e.Time.Sub(tl.Start) / bucket)
		if i < 0 || i >= n {
			continue
		}
		b := &tl.Buckets[i]
		switch e.Type {
		case GaugeSample:
			gauges[i].rate += e.Field("rate")
			gauges[i].p50 += e.Field("p50_us")
			gauges[i].p99 += e.Field("p99_us")
			gauges[i].n++
			if q := int(e.Field("quarantined")); q > b.Quarantined {
				b.Quarantined = q
			}
		case CommitSpan:
			cnt := int(e.Field("count"))
			if cnt <= 0 {
				cnt = 1
			}
			b.Commits += cnt
			b.Spans++
			d := time.Duration(e.Field("total_us")) * time.Microsecond
			commitTotals[i] += d
			if d > b.CommitMax {
				b.CommitMax = d
			}
		default:
			b.Marks = append(b.Marks, e)
		}
	}
	for i := range tl.Buckets {
		b := &tl.Buckets[i]
		if g := gauges[i]; g.n > 0 {
			b.Rate = g.rate / float64(g.n)
			b.P50 = time.Duration(g.p50/float64(g.n)) * time.Microsecond
			b.P99 = time.Duration(g.p99/float64(g.n)) * time.Microsecond
			b.Samples = g.n
		}
		if b.Spans > 0 {
			b.CommitMean = commitTotals[i] / time.Duration(b.Spans)
		}
	}
	return tl
}

// Render formats the timeline as an aligned-column table, one row per
// bucket, with notable events inlined — the textual form of the
// paper's throughput/latency timelines.
func (t *Timeline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %9s %10s %10s %8s %10s %5s  %s\n",
		"T+", "RATE", "P50", "P99", "COMMITS", "CMEAN", "QUAR", "EVENTS")
	for _, bk := range t.Buckets {
		marks := make([]string, 0, len(bk.Marks))
		for _, m := range bk.Marks {
			s := string(m.Type)
			if m.Node != "" {
				s += "(" + m.Node
				if m.Peer != "" && m.Peer != m.Node {
					s += "->" + m.Peer
				}
				s += ")"
			}
			marks = append(marks, s)
		}
		sort.Strings(marks)
		fmt.Fprintf(&b, "%-8s %9.0f %10v %10v %8d %10v %5d  %s\n",
			bk.Start.Sub(t.Start).Round(time.Millisecond),
			bk.Rate,
			bk.P50.Round(10*time.Microsecond),
			bk.P99.Round(10*time.Microsecond),
			bk.Commits,
			bk.CommitMean.Round(10*time.Microsecond),
			bk.Quarantined,
			strings.Join(marks, " "))
	}
	return b.String()
}
