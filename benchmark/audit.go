package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"depfast/internal/core"
	"depfast/internal/harness"
	"depfast/internal/raft"
)

var errWrongRead = errors.New("read returned the wrong value")

// The side audit runs inside every workload, on the client lanes,
// paced to about ten operations a second (2% of the slowest workload's
// load) and kept out of the metrics: two register clients race
// put/get/CAS on four keys for the linearizability check, and one
// writer's acknowledged unique keys must be on every replica at the end.
const (
	auditRegisters = 2
	auditKeys      = 4
	auditGap       = 300 * time.Millisecond // pause after each audit operation
)

// audit is the side population and what it saw. Each register client
// appends to its own history under its lane's baton.
type audit struct {
	ld      *load
	hist    [auditRegisters][]harness.HOp
	acked   []string
	errored int
}

func startAudit(ld *load, seed int64) *audit {
	a := &audit{ld: ld}
	lanes := ld.c.lanes
	for ci := 0; ci < auditRegisters; ci++ {
		ci, l := ci, lanes[ci%len(lanes)]
		cl := ld.c.newClient(l)
		ld.wg.Add(1)
		l.rt.Spawn("audit-register", func(co *core.Coroutine) {
			defer ld.wg.Done()
			a.register(co, cl, ci, seed)
		})
	}
	l := lanes[auditRegisters%len(lanes)]
	cl := ld.c.newClient(l)
	ld.wg.Add(1)
	l.rt.Spawn("audit-writer", func(co *core.Coroutine) {
		defer ld.wg.Done()
		for i := 0; !ld.stop.Load(); i++ {
			key := fmt.Sprintf("u-%d-%06d", seed, i)
			err := cl.Put(co, key, []byte{byte(i), byte(i >> 8)})
			if err == raft.ErrClientStopped {
				return
			}
			if err == nil {
				a.acked = append(a.acked, key)
			} else {
				a.errored++
			}
			if co.Sleep(auditGap) != nil {
				return
			}
		}
	})
	return a
}

// register drives one register client; its CAS preconditions come from
// its own last observation, so the two clients genuinely race.
func (a *audit) register(co *core.Coroutine, cl *raft.Client, ci int, seed int64) {
	rng := rand.New(rand.NewSource(seed*31 + int64(ci)))
	name := fmt.Sprintf("audit-%d", ci)
	lastSeen := make(map[string]string)
	for i := 0; !a.ld.stop.Load(); i++ {
		key := fmt.Sprintf("reg%d", rng.Intn(auditKeys))
		val := fmt.Sprintf("c%d-%d", ci, i)
		op := harness.HOp{Client: name, Key: key, Call: time.Now()}
		var err error
		switch r := rng.Float64(); {
		case r < 0.4:
			op.Kind, op.Value = harness.HPut, []byte(val)
			if err = cl.Put(co, key, op.Value); err == nil {
				lastSeen[key] = val
			}
		case r < 0.7:
			op.Kind = harness.HGet
			op.OutValue, op.OutFound, err = cl.Get(co, key)
			if err == nil && op.OutFound {
				lastSeen[key] = string(op.OutValue)
			}
		default:
			op.Kind, op.Expect, op.Value = harness.HCAS, []byte(lastSeen[key]), []byte(val)
			var prev []byte
			op.OutFound, prev, err = cl.CAS(co, key, op.Expect, op.Value)
			switch {
			case err != nil:
			case op.OutFound:
				lastSeen[key] = val
			default:
				op.OutValue = prev
				lastSeen[key] = string(prev)
			}
		}
		if err == raft.ErrClientStopped {
			return
		}
		op.Maybe = err != nil
		op.Return = time.Now()
		a.hist[ci] = append(a.hist[ci], op)
		if co.Sleep(auditGap) != nil {
			return
		}
	}
}

// check runs the correctness checks on a quiescent cluster and returns
// one line per violation. The load must have finished. elections counts
// from the end of set-up, warm-up included.
func (a *audit) check(healthy bool, elections int64) []string {
	var bad []string
	c := a.ld.c
	if n := a.ld.wrong.Load(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d reads of preloaded records returned a wrong value", n))
	}
	conv := harness.WaitConvergence(c.servers, nodes, 10*time.Second)
	if !conv.Converged {
		bad = append(bad, "replicas did not converge: "+conv.Reason)
	}
	var hist []harness.HOp
	for _, h := range a.hist {
		hist = append(hist, h...)
		for _, op := range h {
			if op.Maybe {
				a.errored++
			}
		}
	}
	sort.SliceStable(hist, func(i, j int) bool { return hist[i].Call.Before(hist[j].Call) })
	if lin := harness.CheckLinearizable(hist, 0); lin.Verdict != harness.LinOK {
		bad = append(bad, fmt.Sprintf("audit history %v (key %s, %d ops)", lin.Verdict, lin.Key, lin.Ops))
	}
	var all []*raft.Server
	for _, n := range c.names {
		all = append(all, c.servers[n])
	}
	if conv.Converged {
		if lost := harness.AuditAcked(all, a.acked); len(lost) > 0 {
			bad = append(bad, fmt.Sprintf("%d acknowledged writes lost, first %s", len(lost), lost[0]))
		}
	}
	if healthy && elections != 0 {
		bad = append(bad, fmt.Sprintf("%d elections on a healthy workload", elections))
	}
	if now, _ := raft.AgreedLeader(c.servers); now != c.leader {
		bad = append(bad, fmt.Sprintf("the leader moved from %s to %q after set-up", c.leader, now))
	}
	return bad
}
