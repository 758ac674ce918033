# DepFast-Go developer entry points. Everything is plain `go` commands;
# the Makefile just names the common ones.

GO ?= go

.PHONY: all check build vet test race bench bench-core examples figures loc verify report-smoke shard-smoke replace-smoke explore-smoke trace-smoke catchup-smoke bench-quick bench-diff hedge-smoke clean

all: check

# The default gate: compile, vet, test, and the experiment layer's
# line-count ratchet.
check: build vet test loc

build:
	$(GO) build ./...

# go vet plus depfast-vet, the programming-model analyzer: unbounded
# waits, scheduler blocking, raw goroutines, and framework-split
# violations in logic packages fail the build unless annotated with a
# justified //depfast:allow.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/depfast-vet ./...

test:
	$(GO) test ./...

# Race-detect every package. The seconds-long experiment suites under
# internal/ are where most of the signal is, but the cmd/ and examples/
# trees now carry their own concurrency (REPL spawns, shutdown paths),
# so the whole module runs under the detector.
race:
	$(GO) test -race ./...

# Every table/figure of the paper plus the ablations, as benchmarks.
bench:
	$(GO) test -bench=. -benchmem

# The runtime's microbenchmarks (coroutine wake-up, quorum event,
# dispatch at run-queue depth 1/256, wake-to-run behind 256 queued
# spawns) and the request path's allocation benchmarks (an RPC round
# trip, marshalling a client request) as a smoke: they run, not what
# they measure.
bench-core:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 100ms ./internal/core ./internal/rpc ./internal/codec

# Regenerate the paper's evaluation from the CLI (a few minutes).
figures:
	$(GO) run ./cmd/depfast-bench -exp all

# Non-test line counts of the experiment layer, of raft, of the
# telemetry substrate (metrics, obs, trace, xtrace), of the fault
# injector and of the detection stack (detect, mitigate, hedge). All
# are ratchets like lint-baseline.json: they may shrink,
# never grow past what the last PR landed.
LOC_MAX = 3694
RAFT_MAX = 4490
TELEMETRY_MAX = 3109
FAILSLOW_MAX = 326
DETECT_MAX = 928
nontest = $$(ls $(1)/*.go | grep -v _test.go | xargs cat | wc -l)
loc:
	@h=$(call nontest,internal/harness); e=$(call nontest,internal/explore); r=$(call nontest,internal/raft); \
	t=$$(( $(call nontest,internal/metrics) + $(call nontest,internal/obs) + $(call nontest,internal/trace) + $(call nontest,internal/xtrace) )); \
	f=$(call nontest,internal/failslow); \
	d=$$(( $(call nontest,internal/detect) + $(call nontest,internal/mitigate) + $(call nontest,internal/hedge) )); \
	echo "internal/harness $$h"; echo "internal/explore $$e"; \
	echo "cmd/depfast-bench $(call nontest,cmd/depfast-bench)"; \
	echo "harness+explore $$((h+e)) (ratchet $(LOC_MAX))"; \
	echo "internal/raft $$r (ratchet $(RAFT_MAX))"; \
	echo "metrics+obs+trace+xtrace $$t (ratchet $(TELEMETRY_MAX))"; \
	echo "internal/failslow $$f (ratchet $(FAILSLOW_MAX))"; \
	echo "detect+mitigate+hedge $$d (ratchet $(DETECT_MAX))"; \
	test $$((h+e)) -le $(LOC_MAX) && test $$r -le $(RAFT_MAX) && \
	test $$t -le $(TELEMETRY_MAX) && test $$f -le $(FAILSLOW_MAX) && \
	test $$d -le $(DETECT_MAX)

# Every row of the experiment table (internal/harness/rows.go) is a
# smoke: `make smoke-shard`, `make smoke-hedge`, ... run it in its quick
# form (rows without one ignore -quick) and exit non-zero when a gate
# fails. The historical names below are aliases that add what their CI
# step always had: the race detector, a timeline, a result file.
smoke-%:
	$(GO) run $(SMOKE_RACE) ./cmd/depfast-bench -exp $* -quick $(SMOKE_ARGS)

verify: smoke-verify

# Flight-recorder smoke: a quick mitigated run recorded to a timeline,
# piped through the report tool (non-zero MTTD/MTTR expected).
report-smoke: SMOKE_ARGS = -timeline /tmp/depfast-timeline.jsonl
report-smoke: smoke-mitigation
	$(GO) run ./cmd/depfast-report /tmp/depfast-timeline.jsonl

# Sharded-KV smoke: the blast-radius containment experiment at CI
# scale — one disk-slow shard leader, per-shard + aggregate table,
# gated on containment >= 0.8 and zero cross-shard sentinel actions.
shard-smoke: smoke-shard

# Replacement smoke: a disk-slow follower is detected, quarantined,
# condemned, removed, and replaced by a spare joined as a learner —
# the whole sequence printed from the flight recorder, gated on the
# replacement completing with zero lost acknowledged writes.
replace-smoke: smoke-replace

# Schedule-explorer smoke: a fixed-seed 50-schedule budget, race-clean,
# covering both topologies and every scenario class (correlated
# domains, asymmetric network, churn-over-fault, storms), all
# invariants green; also emits the exploration throughput benchmark
# (schedules/sec, invariant-check latency) to /tmp/BENCH_explore.json,
# leaving the committed BENCH_explore.json as it is.
explore-smoke:
	$(GO) run -race ./cmd/depfast-explore -seed 1 -budget 50 -quick -v -bench /tmp/BENCH_explore.json

# Catch-up smoke: the three properties of per-peer replication
# progress, race-detected three times over — a follower commits only
# what the leader vouched for, a follower that stalled under 64
# saturating writers is back within one window of catch-up in 2 s, and
# a learner joined under 48 saturating writers is promoted.
catchup-smoke:
	$(GO) test -race -count=3 -run 'TestFollowerCommitsOnlyWhatTheLeaderVouches|TestFollowerCatchesUpUnderLoad|TestLearnerPromotedUnderLoad' ./internal/raft

# Causal-tracing smoke: run the trace experiment once (disk-slow
# leader, head sampling + tail promotion) and gate on its two
# acceptance numbers — >=90% of tail-promoted traces blame the injected
# (node, resource), and tracing costs <5% throughput.
trace-smoke: SMOKE_RACE = -race
trace-smoke: smoke-trace

# The repository's benchmark (benchmark/README.md) as a smoke run: every
# workload with 2 s windows, correctness checks on, non-zero exit on any
# failed operation. Not a measurement.
bench-quick:
	$(GO) run ./benchmark -quick

# Ten seeds per workload against the committed ten-seed baseline: PASS /
# REGRESSION / UNRESOLVED per workload x metric under BENCHMARK.json's
# bounds, non-zero exit on any regression (about 40 minutes).
bench-diff:
	$(GO) run ./benchmark -aa 10 -out /tmp/bench.json && $(GO) run ./benchmark -compare benchmark/baseline/aa.json /tmp/bench.json

# Request-hedging smoke: a sub-detection-threshold fail-slow episode,
# speculation off vs on, gated on read-tail gain >= 2x, a linearizable
# audit history, zero acked-write loss, and a silent server-side
# detector plane; the run's Result written to BENCH_hedge.json.
hedge-smoke: SMOKE_RACE = -race
hedge-smoke: SMOKE_ARGS = -out BENCH_hedge.json
hedge-smoke: smoke-hedge

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/fastpath
	$(GO) run ./examples/broadcast
	$(GO) run ./examples/spg
	$(GO) run ./examples/kvcluster

clean:
	$(GO) clean ./...
