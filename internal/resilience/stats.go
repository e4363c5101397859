package resilience

// Stats is a point-in-time snapshot of one backend's resilience
// counters — and, riding the same block, its snapshot mirror's —
// assembled by the owner of the breaker/retryer pair and
// surfaced through /healthz, /debug/metrics JSON, and the ocad_*
// Prometheus series. Counter fields are cumulative since process
// start; reads may tear across fields, which is fine for monitoring.
type Stats struct {
	// BreakerState is the breaker's position: closed, open, half_open.
	BreakerState string `json:"breaker_state"`
	// BreakerTrips counts transitions to open.
	BreakerTrips uint64 `json:"breaker_trips"`
	// BreakerFastFails counts requests rejected without touching the
	// backend while the breaker was open or half-open.
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
	// Retries counts retry attempts launched against the backend.
	Retries uint64 `json:"retries"`
	// RetryBudgetExhausted counts retries the token bucket refused.
	RetryBudgetExhausted uint64 `json:"retry_budget_exhausted"`
	// DeadlineExceeded counts RPCs abandoned because a deadline fired
	// or the caller hung up mid-flight.
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	// MirrorChainSyncs and MirrorFullSyncs count the snapshot syncs that
	// brought the backend's mirror forward by folding a chain of publishes
	// and by decoding a whole snapshot; MirrorBytes is what they read.
	// ChainMisses is the backend's own count of chain requests it had to
	// answer with a whole snapshot (as of its last health probe).
	MirrorChainSyncs uint64 `json:"mirror_chain_syncs"`
	MirrorFullSyncs  uint64 `json:"mirror_full_syncs"`
	MirrorBytes      uint64 `json:"mirror_bytes"`
	ChainMisses      uint64 `json:"chain_misses"`
}

// Add accumulates o's counters into s (for aggregating a replica
// set's members). BreakerState aggregates pessimistically: any open
// member reports open, else any half-open reports half_open.
func (s *Stats) Add(o Stats) {
	s.BreakerTrips += o.BreakerTrips
	s.BreakerFastFails += o.BreakerFastFails
	s.Retries += o.Retries
	s.RetryBudgetExhausted += o.RetryBudgetExhausted
	s.DeadlineExceeded += o.DeadlineExceeded
	s.MirrorChainSyncs += o.MirrorChainSyncs
	s.MirrorFullSyncs += o.MirrorFullSyncs
	s.MirrorBytes += o.MirrorBytes
	s.ChainMisses += o.ChainMisses
	switch {
	case s.BreakerState == Open.String() || o.BreakerState == Open.String():
		s.BreakerState = Open.String()
	case s.BreakerState == HalfOpen.String() || o.BreakerState == HalfOpen.String():
		s.BreakerState = HalfOpen.String()
	default:
		s.BreakerState = Closed.String()
	}
}
