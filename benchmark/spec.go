package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric and its unit. BENCHMARK.json carries the
// same names; the smoke test holds the two lists together.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a client of the system sees, per workload.
// fail_ratio is not among them: on these workloads it is always 0, and
// a bound relative to 0 means nothing. A run reports attempted and
// failed, and any failed operation makes it incorrect.
var endToEndMetrics = []metricDef{
	{"tput_ops_s", "ops/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"setup_s", "s"},
}

// rungUnits are the ladder's rungs (ladder.go), by unit.
var rungUnits = map[string]string{
	"codec.marshal_ns": "ns", "codec.unmarshal_ns": "ns", "codec.marshal_allocs": "allocs/op",
	"core.spawn_ns": "ns", "core.wait_switch_ns": "ns", "core.post_ns": "ns",
	"rpc.call_rtt_us": "us", "rpc.call_allocs": "allocs/op",
	"transport.mem_send_ns": "ns", "kv.apply_get_ns": "ns", "xtrace.request_ns": "ns",
	"clock.sleep_floor_us": "us", "storage.wal_fsync_us": "us", "transport.mem_oneway_us": "us",
}

// tracedUnits come from the traced window of a workload (trace.go)
// and its comparison with the untraced one. A metric that does not
// apply to a workload reads 0 there: gen.* on a closed loop, fault.* off
// the fault script.
var tracedUnits = map[string]string{
	"raft.msgs_per_commit": "count", "raft.proposals": "count", "raft.commits": "count",
	"raft.elections": "count", "raft.wal_stalls": "count", "raft.repair_sends": "count",
	"raft.readindex_ops": "count", "raft.lease_reads": "count", "raft.lease_fallbacks": "count",
	"raft.follower_lag_max": "count", "rpc.outbox_queue_max": "count", "rpc.outbox_bytes_max": "bytes",
	"transport.dropped": "count", "obs.dropped_events": "count", "gen.lateness_p99_ms": "ms",
	"gen.backlog_max": "count", "proc.cpu_cores": "cores", "proc.cpu_us_per_op": "us", "proc.allocs_per_op": "allocs/op",
	"proc.alloc_bytes_per_op": "bytes", "proc.gc_pause_ms": "ms", "proc.peak_heap_mb": "MiB",
	"client.tput_ops_s": "ops/s", "client.p50_ms": "ms", "client.update_p50_ms": "ms", "client.p99_ms": "ms", "client.fail_ratio": "ratio",
	"raft.stage.append_us": "us", "raft.stage.replicate_us": "us", "raft.stage.quorum_us": "us",
	"raft.stage.apply_us": "us", "raft.stage.total_us": "us", "raft.stage.spans": "count",
	"client.residual_us": "us", "fault.none.p50_ms": "ms", "fault.none.p99_ms": "ms", "fault.cpu.p50_ms": "ms",
	"fault.cpu.p99_ms": "ms", "fault.cpucontend.p50_ms": "ms", "fault.cpucontend.p99_ms": "ms",
	"fault.mem.p50_ms": "ms", "fault.mem.p99_ms": "ms", "fault.disk.p50_ms": "ms", "fault.disk.p99_ms": "ms",
	"fault.diskcontend.p50_ms": "ms", "fault.diskcontend.p99_ms": "ms", "fault.net.p50_ms": "ms",
	"fault.net.p99_ms": "ms", "fault.max_tput_drift": "ratio", "tap.tput_ratio": "ratio",
	"tap.p50_ratio": "ratio",
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory under `go run ./benchmark` and its parent under
// `go test`.
func loadSpec() (*spec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}
