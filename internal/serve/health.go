package serve

// Server.Health: the observability surface of the self-healing layer
// (DESIGN.md §17). Stats counts requests; Health reports the state
// machines — breaker positions, lane quarantine, failure streaks — so
// operators (and the tests) can watch the server heal without reaching
// into its internals.

import "gowool/internal/resilience"

// LaneHealth is one lane's self-healing state in a Health snapshot.
type LaneHealth struct {
	// Lane is the global lane index; Tenant is its home team.
	Lane   int
	Tenant string
	// State is "serving" or "quarantined" (out of rotation, replacing
	// and probing its pool).
	State string
	// Poisoned reports a request-scoped poison currently on the lane's
	// pool — normally transient, visible between an abort landing and
	// the lane's Reset.
	Poisoned bool
	// FailureStreak is the lane's current run of consecutive
	// failure-class requests (quarantine trigger, see
	// resilience.QuarantineConfig).
	FailureStreak int
	// Quarantines counts quarantine entries; Replacements counts pool
	// replacements (one per quarantine round, or per failed Reset when
	// quarantine is disabled); Probes/ProbeFailures count quarantine
	// health probes.
	Quarantines   int64
	Replacements  int64
	Probes        int64
	ProbeFailures int64
}

// TenantHealth is one tenant's resilience state in a Health snapshot.
type TenantHealth struct {
	Name string
	// Breaker is the circuit breaker snapshot, nil when breaking is
	// disabled.
	Breaker *resilience.BreakerHealth
	// RetryTokens is the remaining retry budget, -1 when retries are
	// disabled.
	RetryTokens float64
}

// Health is a point-in-time self-healing snapshot.
type Health struct {
	Lanes   []LaneHealth
	Tenants []TenantHealth
}

// Health snapshots the resilience state machines. Safe to call
// concurrently with submissions and while lanes are serving.
func (s *Server) Health() Health {
	var h Health
	for _, l := range s.lanes {
		_, poisoned := l.pool.Load().Poisoned()
		state := "serving"
		if l.quarantined.Load() {
			state = "quarantined"
		}
		h.Lanes = append(h.Lanes, LaneHealth{
			Lane:          l.idx,
			Tenant:        l.tn.name,
			State:         state,
			Poisoned:      poisoned,
			FailureStreak: int(l.streak.Load()),
			Quarantines:   l.quarantines.Load(),
			Replacements:  l.replacements.Load(),
			Probes:        l.probes.Load(),
			ProbeFailures: l.probeFailures.Load(),
		})
	}
	for _, tn := range s.tenants {
		th := TenantHealth{Name: tn.name, RetryTokens: -1}
		if tn.breaker != nil {
			bh := tn.breaker.Health()
			th.Breaker = &bh
		}
		if tn.retrier != nil {
			th.RetryTokens = tn.retrier.Tokens()
		}
		h.Tenants = append(h.Tenants, th)
	}
	return h
}
