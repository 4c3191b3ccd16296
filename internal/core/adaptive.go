package core

import (
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// This file implements the adaptive response to gray failures (slow-but-
// alive nodes, asymmetric loss, flapping links), gated on Config.Adaptive.
// The per-host slot array s.adapt exists exactly when the switch is set
// (New), so every gate reads s.adapt != nil:
//
//   - per-host EWMA RTT + variance tracking (Jacobson/Karels integer form)
//     over each host's own observed exchange round trips, feeding adaptive
//     failure-detection deadlines in place of the fixed 2·RTT+50ms form and
//     adaptive lookup-retry deadlines in place of the fixed 10s→80s ladder;
//   - hedged directory lookups: when the adaptive deadline's tail quantile
//     passes without an answer, a second lookup races through another
//     D-ring entry point, first answer wins;
//   - a per-holder health score with a circuit breaker, so holders that
//     repeatedly time out are demoted from redirect candidate lists until
//     a cooldown passes instead of costing every query a timeout.
//
// Every estimator slot is observer-indexed; no path here draws RNG except
// the lookup-delay jitter, which replaces (not augments) the fixed ladder's
// draw.

// adaptiveWarmup is the sample count below which estimators fall back to
// the fixed deadlines: the first exchanges of a host's life carry no
// history to adapt to.
const adaptiveWarmup = 4

// Holder circuit breaker: strikes consecutive timeouts until the breaker
// opens for a cooldown. Any response from the holder resets the count.
const (
	holderStrikeLimit = 3
	breakerCooldown   = 60 * simkernel.Second
)

// adaptiveSlot is one host's gray-failure state; System.adapt holds one per
// underlay node, one array allocated by New only under Config.Adaptive
// (other runs pay a nil check), so the host record stays free of it.
// rttEwma/rttVar is the host's Jacobson estimator over its own observed
// exchange round trips (keepalive acks, query completions) and kaSentAt
// stamps its outstanding keepalive probe — observer-indexed, so every write
// happens in the owning host's execution context. holderStrikes/breakerUntil
// is the per-holder health score: consecutive redirect/peer-query timeouts
// trip a cooldown circuit breaker that demotes the holder from candidate
// lists.
type adaptiveSlot struct {
	rttEwma, rttVar, kaSentAt, breakerUntil simkernel.Time
	rttSamples                              uint32
	holderStrikes                           uint8
}

// observeRTT feeds one measured round trip into a host's estimator
// (integer Jacobson: gain 1/8 on the mean, 1/4 on the deviation).
func (s *System) observeRTT(a simnet.NodeID, sample simkernel.Time) {
	if s.adapt == nil || sample < 0 {
		return
	}
	e := &s.adapt[a]
	if e.rttSamples == 0 {
		e.rttEwma = sample
		e.rttVar = sample / 2
	} else {
		err := sample - e.rttEwma
		e.rttEwma += err >> 3
		if err < 0 {
			err = -err
		}
		e.rttVar += (err - e.rttVar) >> 2
	}
	if e.rttSamples != ^uint32(0) {
		e.rttSamples++
	}
}

// stamp opens a round-trip measurement on q's current attempt and sample
// closes it into the origin's estimator; stampKeepalive and sampleKeepalive
// do the same for a's keepalive probes, the steady drip that keeps every
// member's estimator warm even when it issues no queries. Fixed-ladder runs
// never stamp, so their samples find nothing to close.
func (s *System) stamp(q *Query) {
	if s.adapt != nil {
		q.sentAt = s.k.Now()
	}
}

func (s *System) sample(q *Query) {
	if q.sentAt > 0 {
		s.observeRTT(q.Origin, s.k.Now()-q.sentAt)
		q.sentAt = 0
	}
}

func (s *System) stampKeepalive(a simnet.NodeID) {
	if s.adapt != nil {
		s.adapt[a].kaSentAt = s.k.Now()
	}
}

func (s *System) sampleKeepalive(a simnet.NodeID) {
	if s.adapt != nil && s.adapt[a].kaSentAt > 0 {
		s.observeRTT(a, s.k.Now()-s.adapt[a].kaSentAt)
		s.adapt[a].kaSentAt = 0
	}
}

// lookupAttemptLimit is how many D-ring lookup attempts a new-client query
// makes before degrading to the origin tier. Adaptive runs retry on
// RTT-scale deadlines, so they afford more attempts without queueing —
// and need them, or the faster ladder would reach the origin fallback
// before a gray-degraded directory plane gets a fair chance.
func (s *System) lookupAttemptLimit() int {
	if s.adapt != nil {
		return 5
	}
	return 3
}

// lookupRetryDelay is the deadline for one D-ring lookup attempt: a flat
// 10 s on clean networks (the pinned-golden behaviour), exponential backoff
// with deterministic per-origin jitter when hardened, so retry storms
// spread out instead of re-colliding with a lossy window.
func (s *System) lookupRetryDelay(q *Query, attempt int) simkernel.Time {
	if !s.Hardened() {
		return 10 * simkernel.Second
	}
	if s.adapt != nil {
		// Adaptive ladder: deadlines scale with the origin's measured round
		// trips (a few × the RTO) instead of the fixed 10s rungs, so a lost
		// lookup is retried on the network's own timescale. A cold estimator
		// (brand-new client) starts at 4s, well under the fixed first rung.
		// Warm rungs are floored at 2s — lost-lookup recovery rides the
		// hedges, the ladder only needs to stay patient enough to ride out
		// flap down-phases — and capped so a truly dark path still degrades
		// within the fixed ladder's horizon.
		base := 4 * simkernel.Second
		if e := s.adapt[q.Origin]; e.rttSamples >= adaptiveWarmup {
			base = 4 * (e.rttEwma + 4*e.rttVar)
			if base < 2*simkernel.Second {
				base = 2 * simkernel.Second
			}
			if base > 10*simkernel.Second {
				base = 10 * simkernel.Second
			}
		}
		d := backoffDelay(base, attempt, 80*simkernel.Second)
		return d + simkernel.Time(s.rng.Int63n(int64(d/4+1)))
	}
	d := backoffDelay(10*simkernel.Second, attempt, 80*simkernel.Second)
	return d + simkernel.Time(s.rng.Int63n(int64(2*simkernel.Second)))
}

// exchangeTimeout is the adaptive-aware failure-detection deadline for an
// exchange a→b: the fixed 2·RTT+50ms floor, raised to mean+4·deviation of
// a's observed round trips once warmed up (so a degraded-but-alive
// partner is tolerated instead of evicted), capped so true death is still
// detected within seconds.
func (s *System) exchangeTimeout(a, b simnet.NodeID) simkernel.Time {
	fixed := s.timeout(a, b)
	if s.adapt == nil || s.adapt[a].rttSamples < adaptiveWarmup {
		return fixed
	}
	rto := s.adapt[a].rttEwma + 4*s.adapt[a].rttVar + 50*simkernel.Millisecond
	if rto < fixed {
		return fixed
	}
	return min(rto, maxExchangeTimeout)
}

// maxExchangeTimeout caps the adaptive failure-detection timeout; the fixed
// one, two link latencies and 50 ms, stays far below it. No round period
// may be shorter (Config.Validate).
const maxExchangeTimeout = 10 * simkernel.Second

// hedgeDelay is the tail quantile after which a lookup hedges: roughly
// the estimator's mean+2·deviation, scaled for the multi-hop route,
// floored well above one link RTT and capped at half the full retry
// deadline so the hedge always fires meaningfully before the retry.
// A cold estimator (the common case for a brand-new client, which has no
// keepalive history yet) hedges at a conservative 1s — an order of
// magnitude above any clean lookup completion, an order below the fixed
// ladder's first rung. ok=false means no hedge (adaptive off).
func (s *System) hedgeDelay(q *Query, full simkernel.Time) (simkernel.Time, bool) {
	if s.adapt == nil {
		return 0, false
	}
	hd := simkernel.Second
	if e := s.adapt[q.Origin]; e.rttSamples >= adaptiveWarmup {
		hd = 2 * (e.rttEwma + 2*e.rttVar)
		if hd < 200*simkernel.Millisecond {
			hd = 200 * simkernel.Millisecond
		}
	}
	if hd > full/2 {
		hd = full / 2
	}
	if hd <= 0 {
		return 0, false
	}
	return hd, true
}

// escalationTimeout is the deadline on a member's view-miss escalation to
// its directory (fixed 8s when non-adaptive or cold). The escalation hides
// a whole redirect chain behind one await, so the adaptive form budgets
// several estimator RTOs plus constant slack: a member watching a
// degraded directory has an inflated estimator and keeps the long leash,
// everyone else stops paying 8s for a lost escalation message.
func (s *System) escalationTimeout(q *Query) simkernel.Time {
	const fixed = 8 * simkernel.Second
	if s.adapt == nil || s.adapt[q.Origin].rttSamples < adaptiveWarmup {
		return fixed
	}
	d := 3*(s.adapt[q.Origin].rttEwma+4*s.adapt[q.Origin].rttVar) + simkernel.Second
	if d < 2*simkernel.Second {
		d = 2 * simkernel.Second
	}
	if d > fixed {
		d = fixed
	}
	return d
}

// redirectTimeout is the directory-side deadline on a redirect to a
// believed holder. The directory cannot measure its own outbound
// degradation (nothing round-trips through it on its own initiative), so
// under Adaptive the leash is a constant 4× the fixed form: a gray node
// slowed several-fold still completes its redirects instead of having
// every holder falsely struck and evicted, while a genuinely dead holder
// is still detected in well under a second. Repeat offenders are the
// circuit breaker's job, not the deadline's.
func (s *System) redirectTimeout(a, b simnet.NodeID) simkernel.Time {
	d := s.timeout(a, b)
	if s.adapt != nil {
		d *= 4
	}
	return d
}

// holderTripped reports whether a holder's circuit breaker is open: open
// holders are skipped by candidate selection exactly like already-failed
// ones.
func (s *System) holderTripped(holder simnet.NodeID) bool {
	return s.adapt != nil && s.adapt[holder].breakerUntil > s.k.Now()
}

// noteHolderTimeout strikes a holder after an unanswered redirect or peer
// query; holderStrikeLimit consecutive strikes open the breaker for
// breakerCooldown.
func (s *System) noteHolderTimeout(holder simnet.NodeID) {
	if s.adapt == nil {
		return
	}
	e := &s.adapt[holder]
	e.holderStrikes++
	if e.holderStrikes >= holderStrikeLimit {
		e.holderStrikes = 0
		e.breakerUntil = s.k.Now() + breakerCooldown
		s.mets.RecordBreakerTrip()
	}
}

// noteHolderAlive resets a holder's strike count on any response.
func (s *System) noteHolderAlive(holder simnet.NodeID) {
	if s.adapt != nil {
		s.adapt[holder].holderStrikes = 0
	}
}
