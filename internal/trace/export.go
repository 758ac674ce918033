package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"depfast/internal/core"
)

// jsonRecord is the stable export form of a wait record.
type jsonRecord struct {
	Node      string   `json:"node"`
	Coroutine uint64   `json:"coroutine"`
	Name      string   `json:"name"`
	Kind      string   `json:"kind"`
	Quorum    int      `json:"quorum"`
	Total     int      `json:"total"`
	Peers     []string `json:"peers,omitempty"`
	StartNs   int64    `json:"start_ns"`
	EndNs     int64    `json:"end_ns"`
	TimedOut  bool     `json:"timed_out,omitempty"`
	Dropped   int64    `json:"dropped,omitempty"`
}

// metaKind marks the collector-metadata line (drop count) that heads
// every exported trace; ReadJSON filters it back out of the records.
const metaKind = "collector-meta"

// WriteJSON exports a collector as JSON lines, the interchange format
// for offline analysis: one metadata line carrying the collector's drop
// count, so a truncated trace is never analyzed as a complete one, then
// one line per retained wait record.
func WriteJSON(w io.Writer, c *Collector) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonRecord{Kind: metaKind, Dropped: c.Dropped()}); err != nil {
		return err
	}
	for _, r := range c.Records() {
		jr := jsonRecord{
			Node:      r.Node,
			Coroutine: r.CoroutineID,
			Name:      r.CoroutineName,
			Kind:      r.Event.Kind,
			Quorum:    r.Event.Quorum,
			Total:     r.Event.Total,
			Peers:     r.Event.Peers,
			StartNs:   r.Start.UnixNano(),
			EndNs:     r.End.UnixNano(),
			TimedOut:  r.TimedOut,
		}
		if err := enc.Encode(jr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSON parses a trace written by WriteJSON, returning its wait
// records and the exporter's drop count.
func ReadJSON(r io.Reader) ([]core.WaitRecord, int64, error) {
	var out []core.WaitRecord
	var dropped int64
	dec := json.NewDecoder(r)
	for {
		var jr jsonRecord
		if err := dec.Decode(&jr); err == io.EOF {
			return out, dropped, nil
		} else if err != nil {
			return out, dropped, fmt.Errorf("trace: bad json record %d: %w", len(out), err)
		}
		if jr.Kind == metaKind {
			dropped += jr.Dropped
			continue
		}
		out = append(out, core.WaitRecord{
			Node:          jr.Node,
			CoroutineID:   jr.Coroutine,
			CoroutineName: jr.Name,
			Event: core.EventDesc{
				Kind:   jr.Kind,
				Quorum: jr.Quorum,
				Total:  jr.Total,
				Peers:  jr.Peers,
			},
			Start:    time.Unix(0, jr.StartNs),
			End:      time.Unix(0, jr.EndNs),
			TimedOut: jr.TimedOut,
		})
	}
}

// KindStat aggregates waits of one event kind on one node.
type KindStat struct {
	Node      string
	Kind      string
	Count     int
	TotalWait time.Duration
	MaxWait   time.Duration
	Timeouts  int
}

// Mean returns the average wait for this kind.
func (k *KindStat) Mean() time.Duration {
	if k.Count == 0 {
		return 0
	}
	return k.TotalWait / time.Duration(k.Count)
}

// Breakdown aggregates waits per (node, event-kind): where does each
// node spend its waiting time? Under a fail-slow fault the affected
// resource's kind dominates on the straggling node — the
// where-is-the-time-going question the paper's authors answered with
// two person-years of printf debugging.
func Breakdown(records []core.WaitRecord) []KindStat {
	agg := map[[2]string]*KindStat{}
	for _, r := range records {
		key := [2]string{r.Node, r.Event.Kind}
		st := agg[key]
		if st == nil {
			st = &KindStat{Node: r.Node, Kind: r.Event.Kind}
			agg[key] = st
		}
		d := r.End.Sub(r.Start)
		st.Count++
		st.TotalWait += d
		if d > st.MaxWait {
			st.MaxWait = d
		}
		if r.TimedOut {
			st.Timeouts++
		}
	}
	out := make([]KindStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].TotalWait > out[j].TotalWait
	})
	return out
}

// RenderBreakdown formats a Breakdown as an aligned table.
func RenderBreakdown(stats []KindStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-10s %8s %12s %12s %9s\n",
		"NODE", "KIND", "WAITS", "MEAN", "MAX", "TIMEOUTS")
	for _, st := range stats {
		fmt.Fprintf(&b, "%-12s %-10s %8d %12v %12v %9d\n",
			st.Node, st.Kind, st.Count,
			st.Mean().Round(time.Microsecond), st.MaxWait.Round(time.Microsecond),
			st.Timeouts)
	}
	return b.String()
}
