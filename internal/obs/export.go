package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// jsonEvent is the stable JSONL form of an event.
type jsonEvent struct {
	TimeNs int64              `json:"t_ns"`
	Type   string             `json:"type"`
	Node   string             `json:"node,omitempty"`
	Peer   string             `json:"peer,omitempty"`
	Shard  string             `json:"shard,omitempty"`
	Detail string             `json:"detail,omitempty"`
	Fields map[string]float64 `json:"fields,omitempty"`
}

// WriteJSONL streams events as JSON lines, prefixed by one Meta record
// carrying the retained-event and dropped counts so a truncated stream
// is never mistaken for a complete one. droppedBy (optional) adds
// per-shard drop counts as dropped:<shard> fields.
func WriteJSONL(w io.Writer, events []Event, dropped int64, droppedBy map[string]int64) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	meta := jsonEvent{
		Type:   string(Meta),
		Fields: map[string]float64{"events": float64(len(events)), "dropped": float64(dropped)},
	}
	for shard, n := range droppedBy {
		if shard == "" {
			shard = "untagged"
		}
		meta.Fields["dropped:"+shard] = float64(n)
	}
	if len(events) > 0 {
		meta.TimeNs = events[0].Time.UnixNano()
	}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, e := range events {
		if err := enc.Encode(jsonEvent{
			TimeNs: e.Time.UnixNano(),
			Type:   string(e.Type),
			Node:   e.Node,
			Peer:   e.Peer,
			Shard:  e.Shard,
			Detail: e.Detail,
			Fields: e.Fields,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteRecorderJSONL exports a recorder's full stream.
func WriteRecorderJSONL(w io.Writer, r *Recorder) error {
	return WriteJSONL(w, r.Events(), r.Dropped(), r.DroppedByShard())
}

// ReadJSONL parses a JSONL event stream written by WriteJSONL,
// returning the events (Meta records excluded), the dropped count, and
// the per-shard drop breakdown from the stream's metadata (nil when
// nothing was dropped).
func ReadJSONL(r io.Reader) ([]Event, int64, map[string]int64, error) {
	var out []Event
	var dropped int64
	var droppedBy map[string]int64
	dec := json.NewDecoder(r)
	for {
		var je jsonEvent
		if err := dec.Decode(&je); err == io.EOF {
			return out, dropped, droppedBy, nil
		} else if err != nil {
			return out, dropped, droppedBy, fmt.Errorf("obs: bad json event %d: %w", len(out), err)
		}
		if Type(je.Type) == Meta {
			dropped += int64(je.Fields["dropped"])
			for k, v := range je.Fields {
				if shard, ok := strings.CutPrefix(k, "dropped:"); ok {
					if droppedBy == nil {
						droppedBy = make(map[string]int64)
					}
					droppedBy[shard] += int64(v)
				}
			}
			continue
		}
		out = append(out, Event{
			Time:   time.Unix(0, je.TimeNs),
			Type:   Type(je.Type),
			Node:   je.Node,
			Peer:   je.Peer,
			Shard:  je.Shard,
			Detail: je.Detail,
			Fields: je.Fields,
		})
	}
}

// RenderEvents formats events as an aligned text log with offsets
// relative to the first event, skipping the given types (typically
// CommitSpan and GaugeSample, which arrive thousands per second).
func RenderEvents(events []Event, skip ...Type) string {
	skipSet := make(map[Type]bool, len(skip))
	for _, t := range skip {
		skipSet[t] = true
	}
	evs := ByTime(events)
	var t0 time.Time
	if len(evs) > 0 {
		t0 = evs[0].Time
	}
	var b strings.Builder
	for _, e := range evs {
		if skipSet[e.Type] {
			continue
		}
		b.WriteString(e.describe(t0))
		b.WriteByte('\n')
	}
	return b.String()
}
