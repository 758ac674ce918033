package detect

// EWMA is the one latency-baseline primitive: an exponentially
// weighted moving average that seeds on its first sample and folds
// each later one at the caller's fixed weight. It counts its samples,
// so a zero-valued sample is a sample and "no baseline yet" is
// Samples() == 0. The zero value is empty and ready to use; it holds
// no lock — its owner serializes access.
type EWMA struct {
	mean float64
	n    int
}

// Add folds x into the average with weight alpha (0 < alpha ≤ 1).
func (e *EWMA) Add(x, alpha float64) {
	if e.n == 0 {
		e.mean = x
	} else {
		e.mean = (1-alpha)*e.mean + alpha*x
	}
	e.n++
}

// Value returns the current average (0 before the first sample).
func (e *EWMA) Value() float64 { return e.mean }

// Samples returns how many samples have been folded in.
func (e *EWMA) Samples() int { return e.n }

// Reset empties the average; the next sample seeds it again.
func (e *EWMA) Reset() { *e = EWMA{} }
