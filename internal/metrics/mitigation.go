package metrics

// Mitigation groups the counters the fail-slow mitigation sentinel
// bumps: leadership handoffs it triggered, quarantine churn, and how
// much straggler backlog it shed. All fields are safe for concurrent
// use, so harness code can read them while the runtime writes them.
// MTTD and MTTR are not kept here: they derive from the flight
// recorder's event stream (obs.Analyze).
type Mitigation struct {
	// Transfers counts self-demotions: leadership handoffs initiated
	// because the leader judged itself fail-slow.
	Transfers *Counter
	// QuarantinesEntered counts peers placed in quarantine.
	QuarantinesEntered *Counter
	// QuarantinesExited counts peers rehabilitated out of quarantine
	// (role-change resets do not count).
	QuarantinesExited *Counter
	// BacklogDiscarded counts outbox messages dropped when a peer
	// entered quarantine.
	BacklogDiscarded *Counter
}

// NewMitigation returns a zeroed mitigation counter set.
func NewMitigation() *Mitigation {
	return &Mitigation{
		Transfers:          NewCounter("mitigation_transfers"),
		QuarantinesEntered: NewCounter("quarantines_entered"),
		QuarantinesExited:  NewCounter("quarantines_exited"),
		BacklogDiscarded:   NewCounter("backlog_discarded"),
	}
}
