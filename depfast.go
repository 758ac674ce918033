// Package depfast is the public surface of DepFast-Go, a reproduction
// of "Fail-slow fault tolerance needs programming support" (HotOS '21).
//
// DepFast is a programming framework for building fail-slow
// fault-tolerant distributed systems. It provides:
//
//   - a coroutine runtime with cooperative scheduling (Runtime,
//     Coroutine), so request logic reads synchronously instead of
//     being shredded into callbacks;
//   - an event abstraction for waiting points (Event), with compound
//     events — QuorumEvent, AndEvent, OrEvent — that make k-of-n waits
//     the unit of synchronization, preventing any single fail-slow
//     component from straggling the system;
//   - framework utilities (RPC endpoints with event-returning calls,
//     per-peer outboxes with quorum-aware backlog discard, a disk with
//     background I/O helpers) cleanly separated from logic code;
//   - runtime verification: wait traces, slowness propagation graphs,
//     and a checker for the fail-slow-tolerance discipline;
//   - DepFastRaft, a Raft-based replicated key-value store built on
//     the framework, together with a fail-slow fault injector and the
//     benchmark harness that regenerates the paper's figures.
//
// The root package re-exports the main entry points; subpackages under
// internal/ hold the implementations (core, rpc, transport, storage,
// raft, failslow, trace, harness, ...). A minimal program:
//
//	rt := depfast.NewRuntime("node-1")
//	defer rt.Stop()
//	rt.Spawn("main", func(co *depfast.Coroutine) {
//	    q := depfast.NewMajorityEvent(3)
//	    // ... fan out RPCs, q.AddJudged(ev, judge) ...
//	    if co.WaitQuorum(q, time.Second) == depfast.QuorumOK {
//	        // majority reached; stragglers cannot delay us
//	    }
//	})
package depfast

import (
	"depfast/internal/core"
	"depfast/internal/detect"
	"depfast/internal/raft"
	"depfast/internal/trace"
)

// Core runtime types.
type (
	// Runtime is a DepFast runtime instance: one cooperative scheduler
	// plus its coroutines, timers, and posted completions.
	Runtime = core.Runtime
	// Coroutine is the unit of logic execution.
	Coroutine = core.Coroutine
	// Option configures a Runtime.
	Option = core.Option

	// Event is a waiting point.
	Event = core.Event
	// EventDesc describes an event for tracing and verification.
	EventDesc = core.EventDesc
	// SignalEvent is a one-shot basic event.
	SignalEvent = core.SignalEvent
	// IntEvent waits for a predicate over an integer variable.
	IntEvent = core.IntEvent
	// ResultEvent carries an RPC reply or I/O completion.
	ResultEvent = core.ResultEvent
	// QuorumEvent waits for k of n sub-events.
	QuorumEvent = core.QuorumEvent
	// AndEvent waits for all of its sub-events.
	AndEvent = core.AndEvent
	// OrEvent waits for any of its sub-events.
	OrEvent = core.OrEvent

	// WaitResult reports how a timed wait ended.
	WaitResult = core.WaitResult
	// QuorumOutcome reports how a quorum wait resolved.
	QuorumOutcome = core.QuorumOutcome
	// WaitRecord is one traced wait.
	WaitRecord = core.WaitRecord
	// Tracer receives wait records.
	Tracer = core.Tracer
)

// Core constructors and constants.
var (
	NewRuntime       = core.NewRuntime
	WithTracer       = core.WithTracer
	NewSignalEvent   = core.NewSignalEvent
	NewIntEvent      = core.NewIntEvent
	NewCounterEvent  = core.NewCounterEvent
	NewResultEvent   = core.NewResultEvent
	NewQuorumEvent   = core.NewQuorumEvent
	NewMajorityEvent = core.NewMajorityEvent
	NewAndEvent      = core.NewAndEvent
	NewOrEvent       = core.NewOrEvent
	NewNeverEvent    = core.NewNeverEvent
	OnEvent          = core.OnEvent
)

// Wait and quorum outcomes.
const (
	WaitReady   = core.WaitReady
	WaitTimeout = core.WaitTimeout
	WaitStopped = core.WaitStopped

	QuorumOK       = core.QuorumOK
	QuorumRejected = core.QuorumRejected
	QuorumTimeout  = core.QuorumTimeout
	QuorumStopped  = core.QuorumStopped
)

// ErrStopped is returned from waits when the runtime shuts down.
var ErrStopped = core.ErrStopped

// Runtime verification.
type (
	// TraceCollector accumulates wait records across runtimes.
	TraceCollector = trace.Collector
	// SPG is a slowness propagation graph (paper Figure 2).
	SPG = trace.SPG
	// Violation is a wait breaking the fail-slow-tolerance discipline.
	Violation = trace.Violation
	// VerifyConfig tunes the verifier.
	VerifyConfig = trace.VerifyConfig
)

// Verification entry points.
var (
	NewTraceCollector = trace.NewCollector
	BuildSPG          = trace.BuildSPG
	Verify            = trace.Verify
	VerifyReport      = trace.Report
)

// DepFastRaft: the replicated KV store built on the framework.
type (
	// RaftConfig parameterizes a DepFastRaft server.
	RaftConfig = raft.Config
	// RaftServer is one DepFastRaft node.
	RaftServer = raft.Server
	// RaftClient issues KV commands to a Raft group.
	RaftClient = raft.Client
)

// DepFastRaft entry points.
var (
	DefaultRaftConfig = raft.DefaultConfig
	NewRaftServer     = raft.NewServer
	RecoverRaftServer = raft.RecoverServer
	NewRaftClient     = raft.NewClient
)

// Fail-slow detection (paper §5).
type (
	// PeerDetector flags fail-slow peers from RPC round-trip EWMAs.
	PeerDetector = detect.Detector
	// PeerStat is one peer's detector state.
	PeerStat = detect.PeerStat
)

// NewPeerDetector returns a detector that judges a peer after
// minSamples round trips.
var NewPeerDetector = detect.New
