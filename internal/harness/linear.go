package harness

import (
	"math"
	"sort"
	"time"
)

// Linearizability of acknowledged client operations.
//
// The wait verifier (trace.Verify, the "verify" row) checks the
// *discipline* — every wait is a quorum wait; the checker below checks
// the *outcome*: that the acknowledged operations of a run form a
// linearizable history over per-key registers. Every run's closing
// audit asserts it — a fail-slow mitigation that reorders, drops, or
// double-applies an acked write shows up here even when every
// individual component looks healthy.

// HOpKind is the operation vocabulary of a recorded history.
type HOpKind int

// History operation kinds, mirroring the kv command set the audit
// clients issue.
const (
	HGet HOpKind = iota
	HPut
	HCAS
)

// HOp is one client operation in a concurrent history. Call/Return
// bracket the real-time window in which the operation must appear to
// take effect.
type HOp struct {
	Client   string
	Kind     HOpKind
	Key      string
	Value    []byte // value written (HPut; HCAS on success)
	Expect   []byte // HCAS precondition (nil/empty matches an absent key)
	OutFound bool   // response Found: key present (HGet) / precondition matched (HCAS)
	OutValue []byte // response Value: the read (HGet) or the current value on a failed HCAS
	Call     time.Time
	Return   time.Time
	// Maybe marks an errored operation: the client got no definite
	// answer, and the session layer may have applied it anyway on a
	// retried leader. Maybe mutations are optional in the
	// linearization and may take effect any time after their call;
	// maybe reads carry no information and are ignored.
	Maybe bool
}

// LinVerdict is the outcome of a linearizability check.
type LinVerdict int

// Verdicts: LinOK (a valid linearization exists), LinViolation (none
// exists), LinUnknown (the search exceeded its state budget).
const (
	LinOK LinVerdict = iota
	LinViolation
	LinUnknown
)

// String names the verdict.
func (v LinVerdict) String() string {
	switch v {
	case LinOK:
		return "linearizable"
	case LinViolation:
		return "NOT linearizable"
	case LinUnknown:
		return "inconclusive (budget)"
	}
	return "unknown"
}

// MarshalText renders the verdict by name in JSON artifacts.
func (v LinVerdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// LinReport is the result of CheckLinearizable.
type LinReport struct {
	Verdict LinVerdict
	Key     string // offending key (violation), or the key that exhausted the budget
	Ops     int    // operations checked (after dropping uninformative maybe-reads)
	States  int    // DFS states explored across all keys
}

// CheckLinearizable decides whether history is linearizable over
// independent per-key registers with kv semantics (CAS matches with
// nil==empty; a failed CAS observes the current value). It runs a
// Wing&Gong-style DFS with memoization per key — linearizability is
// compositional, so each key is checked against its own subhistory.
// budget caps the total DFS states across keys (<=0 means the default
// 2M); exceeding it yields LinUnknown rather than a wrong verdict.
func CheckLinearizable(history []HOp, budget int) LinReport {
	if budget <= 0 {
		budget = 2_000_000
	}
	byKey := make(map[string][]HOp)
	ops := 0
	for _, op := range history {
		if op.Maybe && op.Kind == HGet {
			continue
		}
		byKey[op.Key] = append(byKey[op.Key], op)
		ops++
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	rep := LinReport{Verdict: LinOK, Ops: ops}
	for _, k := range keys {
		c := &linChecker{budget: budget - rep.States}
		st := c.check(byKey[k])
		rep.States += c.states
		switch st {
		case linFail:
			return LinReport{Verdict: LinViolation, Key: k, Ops: ops, States: rep.States}
		case linBudget:
			return LinReport{Verdict: LinUnknown, Key: k, Ops: ops, States: rep.States}
		}
	}
	return rep
}

type linStatus int

const (
	linFound linStatus = iota
	linFail
	linBudget
)

// linChecker runs the per-key DFS. State is the register (present,
// value) plus the set of already-linearized operations; memoizing on
// that pair prunes the factorial search to the reachable state space.
type linChecker struct {
	ops       []HOp
	call, ret []int64
	certain   int

	budget, states int
	visited        map[string]bool
}

func (c *linChecker) check(ops []HOp) linStatus {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Call.Before(ops[j].Call) })
	c.ops = ops
	c.call = make([]int64, len(ops))
	c.ret = make([]int64, len(ops))
	for i, op := range ops {
		c.call[i] = op.Call.UnixNano()
		if op.Maybe {
			// No response: the op is concurrent with everything after
			// its call and never constrains the frontier.
			c.ret[i] = math.MaxInt64
		} else {
			c.ret[i] = op.Return.UnixNano()
			c.certain++
		}
	}
	c.visited = make(map[string]bool)
	return c.search(make([]bool, len(ops)), c.certain, false, "")
}

func (c *linChecker) search(done []bool, certainLeft int, present bool, val string) linStatus {
	if certainLeft == 0 {
		return linFound // unlinearized maybe-ops simply never took effect
	}
	c.states++
	if c.states > c.budget {
		return linBudget
	}
	key := c.memoKey(done, present, val)
	if c.visited[key] {
		return linFail
	}
	c.visited[key] = true

	// Wing&Gong minimality: the next linearized op must have been
	// invoked before the earliest response among pending certain ops —
	// anything later is real-time-ordered after that response.
	minRet := int64(math.MaxInt64)
	for i, d := range done {
		if !d && !c.ops[i].Maybe && c.ret[i] < minRet {
			minRet = c.ret[i]
		}
	}
	for i := range c.ops {
		if done[i] || c.call[i] > minRet {
			continue
		}
		op := c.ops[i]
		nPresent, nVal, ok := linApply(op, present, val)
		if !ok {
			continue
		}
		done[i] = true
		left := certainLeft
		if !op.Maybe {
			left--
		}
		if st := c.search(done, left, nPresent, nVal); st != linFail {
			done[i] = false
			return st
		}
		done[i] = false
	}
	return linFail
}

// linApply checks op's recorded outcome against the register state at
// a candidate linearization point; ok=false means the point is
// inconsistent with what the client observed.
func linApply(op HOp, present bool, val string) (nPresent bool, nVal string, ok bool) {
	cur := ""
	if present {
		cur = val
	}
	switch op.Kind {
	case HGet:
		if op.OutFound != present || (present && string(op.OutValue) != val) {
			return present, val, false
		}
		return present, val, true
	case HPut:
		return true, string(op.Value), true
	case HCAS:
		match := cur == string(op.Expect)
		if op.Maybe {
			// An unacked CAS either matched and took effect here, or
			// is indistinguishable from never linearizing — only the
			// effectful branch is worth exploring.
			if !match {
				return present, val, false
			}
			return true, string(op.Value), true
		}
		if match != op.OutFound {
			return present, val, false
		}
		if !match {
			if string(op.OutValue) != cur {
				return present, val, false
			}
			return present, val, true
		}
		return true, string(op.Value), true
	}
	return present, val, false
}

// memoKey packs the linearized set and register state into one string.
func (c *linChecker) memoKey(done []bool, present bool, val string) string {
	b := make([]byte, 0, len(done)/8+2+len(val))
	var cur byte
	for i, d := range done {
		if d {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, cur)
			cur = 0
		}
	}
	b = append(b, cur)
	if present {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, val...)
	return string(b)
}
