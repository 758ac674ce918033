package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// The MTTD/MTTR analyzer's recovery rule: throughput counts as
// recovered once recoverySustain consecutive gauge samples are at
// least recoveryFraction of the mean rate over baselineWindow before
// the injection — a single lucky window is not a recovery.
const (
	recoveryFraction = 0.5
	recoverySustain  = 3
	baselineWindow   = 2 * time.Second
)

// StageStats is the per-stage commit-pipeline latency over one
// interval of the run: how long entries spent reaching local
// durability, being fanned out, collecting a quorum, and applying.
type StageStats struct {
	Spans     int
	Entries   int
	Append    time.Duration // mean propose → local fsync durable
	Replicate time.Duration // mean propose → fan-out dispatched
	Quorum    time.Duration // mean propose → quorum ack
	Apply     time.Duration // mean quorum ack → applied
	Total     time.Duration // mean propose → applied
}

func (s *StageStats) add(e Event) {
	cnt := int(e.Field("count"))
	if cnt <= 0 {
		cnt = 1
	}
	s.Spans++
	s.Entries += cnt
	s.Append += time.Duration(e.Field("append_us")) * time.Microsecond
	s.Replicate += time.Duration(e.Field("replicate_us")) * time.Microsecond
	s.Quorum += time.Duration(e.Field("quorum_us")) * time.Microsecond
	s.Apply += time.Duration(e.Field("apply_us")) * time.Microsecond
	s.Total += time.Duration(e.Field("total_us")) * time.Microsecond
}

func (s *StageStats) finish() {
	if s.Spans == 0 {
		return
	}
	n := time.Duration(s.Spans)
	s.Append /= n
	s.Replicate /= n
	s.Quorum /= n
	s.Apply /= n
	s.Total /= n
}

// FaultReport pairs one injection with its detection and recovery.
type FaultReport struct {
	Node  string // faulted node
	Fault string // fault name (injection Detail)

	InjectedAt time.Time
	// DetectedAt is the first detection signal after injection: a
	// suspect verdict naming the faulted node, a quarantine of it, or a
	// handoff initiated by it. Zero when nothing detected it.
	DetectedAt time.Time
	DetectedBy Type // which event type detected it
	Detector   string

	// RecoveredAt is the start of the first sustained run of gauge
	// samples at or above recoveryFraction × baseline after injection.
	// Zero when throughput never sustainedly recovered in the record.
	RecoveredAt time.Time

	// BaselineRate is the mean sampled rate over baselineWindow before
	// injection; FloorRate the minimum sampled rate between injection
	// and recovery (how hard the fault bit).
	BaselineRate float64
	FloorRate    float64

	// Commit-pipeline breakdown before / during / after the fault.
	Before, During, After StageStats
}

// MTTD is the mean-time-to-detect for this fault (0 if undetected).
func (f *FaultReport) MTTD() time.Duration {
	if f.DetectedAt.IsZero() {
		return 0
	}
	return f.DetectedAt.Sub(f.InjectedAt)
}

// MTTR is the time from injection to sustained throughput recovery
// (0 if unrecovered within the record).
func (f *FaultReport) MTTR() time.Duration {
	if f.RecoveredAt.IsZero() {
		return 0
	}
	return f.RecoveredAt.Sub(f.InjectedAt)
}

// Report is the analyzed view of one recorded event stream.
type Report struct {
	Start, End time.Time
	Events     int
	Dropped    int64
	Faults     []FaultReport

	// Blame is the latest critical-path attribution sample in the
	// stream (nil when the run was not traced): which (node, resource)
	// pairs the tail-promoted request traces blamed, by share.
	Blame       []BlameRow
	BlameTraces int
	BlameTail   int
}

// BlameRow is one (node, resource) row of an attribution sample.
type BlameRow struct {
	Node  string
	Res   string
	Share float64
}

// detectionMatches reports whether e is a detection signal for a
// fault injected into node.
func detectionMatches(e Event, node string) bool {
	switch e.Type {
	case VerdictSuspect:
		return e.Peer == node
	case QuarantineEnter:
		return e.Peer == node
	case HandoffStarted, HandoffDrained:
		// The faulted leader detected itself and began abdicating.
		return e.Node == node
	}
	return false
}

// Analyze pairs every injection in the stream with its first matching
// detection and first sustained throughput recovery, and splits the
// commit-pipeline spans into before/during/after stages per fault.
func Analyze(events []Event) *Report {
	evs := ByTime(events)
	rep := &Report{Events: len(evs)}
	if len(evs) > 0 {
		rep.Start, rep.End = evs[0].Time, evs[len(evs)-1].Time
	}

	// Segment the stream by injections: each fault owns the interval
	// from its injection to the next injection (or end of record).
	var injIdx []int
	for i, e := range evs {
		if e.Type == FaultInjected {
			injIdx = append(injIdx, i)
		}
	}
	for k, i := range injIdx {
		inj := evs[i]
		end := len(evs)
		if k+1 < len(injIdx) {
			end = injIdx[k+1]
		}
		fr := FaultReport{Node: inj.Node, Fault: inj.Detail, InjectedAt: inj.Time}

		// Detection: first matching signal in the fault's segment.
		for _, e := range evs[i+1 : end] {
			if detectionMatches(e, inj.Node) {
				fr.DetectedAt = e.Time
				fr.DetectedBy = e.Type
				fr.Detector = e.Node
				break
			}
		}

		// Baseline rate: gauge samples within baselineWindow before the
		// injection (scanning back past at most the previous segment's
		// recovery tail is fine — the window bounds it).
		var baseSum float64
		var baseN int
		for j := i - 1; j >= 0; j-- {
			e := evs[j]
			if inj.Time.Sub(e.Time) > baselineWindow {
				break
			}
			if e.Type == GaugeSample {
				baseSum += e.Field("rate")
				baseN++
			}
		}
		if baseN > 0 {
			fr.BaselineRate = baseSum / float64(baseN)
		}

		// Recovery: first run of recoverySustain consecutive gauge
		// samples at or above recoveryFraction × baseline, after injection.
		threshold := recoveryFraction * fr.BaselineRate
		run := 0
		var runStart time.Time
		floor := -1.0
		for _, e := range evs[i+1 : end] {
			if e.Type != GaugeSample {
				continue
			}
			rate := e.Field("rate")
			if fr.RecoveredAt.IsZero() && (floor < 0 || rate < floor) {
				floor = rate
			}
			if fr.BaselineRate <= 0 {
				continue
			}
			if rate >= threshold {
				if run == 0 {
					runStart = e.Time
				}
				run++
				if run >= recoverySustain && fr.RecoveredAt.IsZero() {
					fr.RecoveredAt = runStart
				}
			} else {
				run = 0
			}
		}
		if floor >= 0 {
			fr.FloorRate = floor
		}

		// Stage breakdown: before = the baseline window, during =
		// injection → recovery (or segment end), after = recovery →
		// segment end.
		recovered := fr.RecoveredAt
		for _, e := range evs[:end] {
			if e.Type != CommitSpan {
				continue
			}
			switch {
			case e.Time.Before(inj.Time):
				if inj.Time.Sub(e.Time) <= baselineWindow {
					fr.Before.add(e)
				}
			case recovered.IsZero() || e.Time.Before(recovered):
				fr.During.add(e)
			default:
				fr.After.add(e)
			}
		}
		fr.Before.finish()
		fr.During.finish()
		fr.After.finish()
		rep.Faults = append(rep.Faults, fr)
	}

	// Attribution: keep only the newest sample — it aggregates the
	// collector's whole retained window, so earlier ones are subsets.
	for i := len(evs) - 1; i >= 0; i-- {
		e := evs[i]
		if e.Type != AttributionSample {
			continue
		}
		rep.BlameTraces = int(e.Field("traces"))
		rep.BlameTail = int(e.Field("tail"))
		for k, v := range e.Fields {
			pair, ok := strings.CutPrefix(k, "blame:")
			if !ok {
				continue
			}
			node, res := pair, "?"
			if j := strings.LastIndexByte(pair, '/'); j >= 0 {
				node, res = pair[:j], pair[j+1:]
			}
			rep.Blame = append(rep.Blame, BlameRow{Node: node, Res: res, Share: v})
		}
		sort.Slice(rep.Blame, func(a, b int) bool {
			if rep.Blame[a].Share != rep.Blame[b].Share {
				return rep.Blame[a].Share > rep.Blame[b].Share
			}
			return rep.Blame[a].Node < rep.Blame[b].Node
		})
		break
	}
	return rep
}

// renderStage formats one stage row.
func renderStage(b *strings.Builder, name string, s StageStats) {
	if s.Spans == 0 {
		fmt.Fprintf(b, "    %-8s %8s\n", name, "(none)")
		return
	}
	fmt.Fprintf(b, "    %-8s %8d %10v %10v %10v %10v %10v\n",
		name, s.Entries,
		s.Append.Round(10*time.Microsecond),
		s.Replicate.Round(10*time.Microsecond),
		s.Quorum.Round(10*time.Microsecond),
		s.Apply.Round(10*time.Microsecond),
		s.Total.Round(10*time.Microsecond))
}

func orDash(d time.Duration) string {
	if d == 0 {
		return "—"
	}
	return d.Round(time.Millisecond).String()
}

// Render formats the report: one block per fault with MTTD, MTTR, the
// rate collapse, and the per-stage commit-latency breakdown.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== MTTD/MTTR report: %d events over %v",
		r.Events, r.End.Sub(r.Start).Round(time.Millisecond))
	if r.Dropped > 0 {
		fmt.Fprintf(&b, " (+%d dropped at the recorder limit — stream truncated)", r.Dropped)
	}
	b.WriteString(" ==\n")
	if len(r.Faults) == 0 {
		b.WriteString("no fault injections recorded\n")
		r.renderBlame(&b)
		return b.String()
	}
	for i := range r.Faults {
		f := &r.Faults[i]
		fmt.Fprintf(&b, "\nfault %d: %s on %s at T+%v\n",
			i+1, f.Fault, f.Node, f.InjectedAt.Sub(r.Start).Round(time.Millisecond))
		det := "undetected"
		if !f.DetectedAt.IsZero() {
			det = fmt.Sprintf("%v (%s by %s)", f.MTTD().Round(time.Millisecond), f.DetectedBy, f.Detector)
		}
		rec := "unrecovered"
		if !f.RecoveredAt.IsZero() {
			rec = orDash(f.MTTR())
		}
		fmt.Fprintf(&b, "  MTTD: %-32s MTTR: %s\n", det, rec)
		fmt.Fprintf(&b, "  rate: baseline %.0f op/s, floor %.0f op/s\n", f.BaselineRate, f.FloorRate)
		fmt.Fprintf(&b, "  commit pipeline (mean per stage):\n")
		fmt.Fprintf(&b, "    %-8s %8s %10s %10s %10s %10s %10s\n",
			"window", "entries", "append", "replicate", "quorum", "apply", "total")
		renderStage(&b, "before", f.Before)
		renderStage(&b, "during", f.During)
		renderStage(&b, "after", f.After)
	}
	r.renderBlame(&b)
	return b.String()
}

// renderBlame appends the critical-path attribution table, when the
// stream carried one.
func (r *Report) renderBlame(b *strings.Builder) {
	if len(r.Blame) == 0 {
		return
	}
	fmt.Fprintf(b, "\ncritical-path attribution (%d traces, %d tail-promoted):\n",
		r.BlameTraces, r.BlameTail)
	fmt.Fprintf(b, "    %-10s %-6s %7s\n", "node", "res", "share")
	for _, row := range r.Blame {
		fmt.Fprintf(b, "    %-10s %-6s %6.1f%%\n", row.Node, row.Res, row.Share*100)
	}
}
