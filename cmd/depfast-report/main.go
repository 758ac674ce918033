// Command depfast-report analyzes the two files depfast-bench writes,
// telling them apart by their first line. A flight-recorder timeline
// (-timeline) gets the time-bucketed timeline (throughput, latency
// percentiles, commit volume, quarantine size, notable events per
// bucket) and the MTTD/MTTR report pairing every fault injection with
// its first detection, its first sustained throughput recovery, and
// the commit-pipeline latency breakdown before/during/after the fault.
// A wait-record trace (-waits) gets the slowness propagation graph,
// the per-(node, kind) wait breakdown and the fail-slow-tolerance
// verifier, headed by the collector's drop count.
//
//	depfast-bench -exp mitigation -timeline out.jsonl
//	depfast-report out.jsonl
//	depfast-report -bucket 250ms -events out.jsonl
//	depfast-bench -exp figure2 -waits waits.jsonl
//	depfast-report -dot spg.dot waits.jsonl
//	depfast-report - < out.jsonl
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"depfast/internal/obs"
	"depfast/internal/trace"
)

var (
	bucket = flag.Duration("bucket", time.Second, "timeline bucket width")
	events = flag.Bool("events", false, "also dump the raw event log (commit spans and gauge samples elided)")
	noTime = flag.Bool("no-timeline", false, "skip the bucketed timeline, print only the MTTD/MTTR report")
	dotOut = flag.String("dot", "", "wait traces: write the SPG as Graphviz DOT to this file")
)

func main() {
	flag.Parse()
	var in io.Reader = os.Stdin
	if path := flag.Arg(0); path != "" && path != "-" {
		f, err := os.Open(path)
		exitOn(err)
		defer f.Close()
		in = f
	}
	exitOn(report(os.Stdout, in))
}

// report dispatches on the input's first line: wait records carry a
// "kind" field (trace.WriteJSON), timeline events a "type" (obs.WriteJSONL).
func report(w io.Writer, in io.Reader) error {
	br := bufio.NewReader(in)
	first, err := br.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return err
	}
	var head struct{ Type, Kind string }
	_ = json.Unmarshal(first, &head) // a malformed line fails in the reader below
	in = io.MultiReader(bytes.NewReader(first), br)
	if head.Kind != "" && head.Type == "" {
		return reportWaits(w, in)
	}
	return reportEvents(w, in)
}

// reportWaits prints the SPG, the wait breakdown and the verifier's
// verdict; client runtimes may wait on their one leader.
func reportWaits(w io.Writer, in io.Reader) error {
	records, dropped, err := trace.ReadJSON(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d wait records, dropped %d at the collector limit", len(records), dropped)
	if dropped > 0 {
		fmt.Fprint(w, " (trace truncated: the analysis covers the run's suffix)")
	}
	fmt.Fprint(w, "\n\n")
	g := trace.BuildSPG(records)
	fmt.Fprintln(w, "slowness propagation graph:")
	fmt.Fprintln(w, g.ASCII())
	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(g.DOT()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "DOT written to %s\n\n", *dotOut)
	}
	fmt.Fprintln(w, "wait breakdown:")
	fmt.Fprintln(w, trace.RenderBreakdown(trace.Breakdown(records)))
	fmt.Fprintln(w, trace.Report(records, trace.VerifyConfig{AllowClientPrefix: "client"}))
	return nil
}

// reportEvents prints the timeline, the hedge summary and the
// MTTD/MTTR report of a flight-recorder stream.
func reportEvents(w io.Writer, in io.Reader) error {
	evs, dropped, droppedBy, err := obs.ReadJSONL(in)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		fmt.Fprintln(w, "depfast-report: no events in input")
		return nil
	}
	if !*noTime {
		fmt.Fprintln(w, obs.BuildTimeline(evs, *bucket).Render())
	}
	if *events {
		fmt.Fprintln(w, obs.RenderEvents(evs, obs.CommitSpan, obs.GaugeSample))
	}
	if tbl := obs.SummarizeHedges(evs).Render(); tbl != "" {
		fmt.Fprintln(w, tbl)
	}
	rep := obs.Analyze(evs)
	rep.Dropped += dropped
	fmt.Fprintln(w, rep.Render())
	if len(droppedBy) > 0 {
		fmt.Fprintln(w, "dropped events by shard (drop-oldest at the recorder limit):")
		shards := make([]string, 0, len(droppedBy))
		for sh := range droppedBy {
			shards = append(shards, sh)
		}
		sort.Strings(shards)
		for _, sh := range shards {
			fmt.Fprintf(w, "  %-12s %d\n", sh, droppedBy[sh])
		}
	}
	return nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "depfast-report:", err)
		os.Exit(1)
	}
}
