package core

import (
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// This file implements the adaptive response to gray failures (slow-but-
// alive nodes, asymmetric loss, flapping links), gated on Config.Adaptive:
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

// enableAdaptive allocates the gray-failure estimator state (called from
// New only when Config.Adaptive, so non-adaptive runs pay a nil check).
func (hs *hostSoA) enableAdaptive(n int) {
	hs.rttEwma = make([]simkernel.Time, n)
	hs.rttVar = make([]simkernel.Time, n)
	hs.rttSamples = make([]uint32, n)
	hs.kaSentAt = make([]simkernel.Time, n)
	hs.holderStrikes = make([]uint8, n)
	hs.breakerUntil = make([]simkernel.Time, n)
}

// observeRTT feeds one measured round trip into a host's estimator
// (integer Jacobson: gain 1/8 on the mean, 1/4 on the deviation).
func (s *System) observeRTT(a simnet.NodeID, sample simkernel.Time) {
	if s.hs.rttEwma == nil || sample < 0 {
		return
	}
	if s.hs.rttSamples[a] == 0 {
		s.hs.rttEwma[a] = sample
		s.hs.rttVar[a] = sample / 2
	} else {
		err := sample - s.hs.rttEwma[a]
		s.hs.rttEwma[a] += err >> 3
		if err < 0 {
			err = -err
		}
		s.hs.rttVar[a] += (err - s.hs.rttVar[a]) >> 2
	}
	if s.hs.rttSamples[a] != ^uint32(0) {
		s.hs.rttSamples[a]++
	}
}

// resetAdaptive clears a host's estimator and health state (revival: the
// new life measures its own network).
func (hs *hostSoA) resetAdaptive(a simnet.NodeID) {
	if hs.rttEwma == nil {
		return
	}
	hs.rttEwma[a], hs.rttVar[a], hs.rttSamples[a] = 0, 0, 0
	hs.kaSentAt[a] = 0
	hs.holderStrikes[a], hs.breakerUntil[a] = 0, 0
}

// exchangeTimeout is the adaptive-aware failure-detection deadline for an
// exchange a→b: the fixed 2·RTT+50ms floor, raised to mean+4·deviation of
// a's observed round trips once warmed up (so a degraded-but-alive
// partner is tolerated instead of evicted), capped so true death is still
// detected within seconds.
func (s *System) exchangeTimeout(a, b simnet.NodeID) simkernel.Time {
	fixed := s.timeout(a, b)
	if s.hs.rttEwma == nil || s.hs.rttSamples[a] < adaptiveWarmup {
		return fixed
	}
	rto := s.hs.rttEwma[a] + 4*s.hs.rttVar[a] + 50*simkernel.Millisecond
	if rto < fixed {
		return fixed
	}
	if rto > 10*simkernel.Second {
		rto = 10 * simkernel.Second
	}
	return rto
}

// hedgeDelay is the tail quantile after which a lookup hedges: roughly
// the estimator's mean+2·deviation, scaled for the multi-hop route,
// floored well above one link RTT and capped at half the full retry
// deadline so the hedge always fires meaningfully before the retry.
// A cold estimator (the common case for a brand-new client, which has no
// keepalive history yet) hedges at a conservative 1s — an order of
// magnitude above any clean lookup completion, an order below the fixed
// ladder's first rung. ok=false means no hedge (adaptive off).
func (s *System) hedgeDelay(q *Query, full simkernel.Time) (simkernel.Time, bool) {
	if !s.cfg.Adaptive || s.hs.rttEwma == nil {
		return 0, false
	}
	hd := simkernel.Second
	if s.hs.rttSamples[q.Origin] >= adaptiveWarmup {
		hd = 2 * (s.hs.rttEwma[q.Origin] + 2*s.hs.rttVar[q.Origin])
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
	if !s.cfg.Adaptive || s.hs.rttEwma == nil || s.hs.rttSamples[q.Origin] < adaptiveWarmup {
		return fixed
	}
	d := 3*(s.hs.rttEwma[q.Origin]+4*s.hs.rttVar[q.Origin]) + simkernel.Second
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
	if s.cfg.Adaptive {
		d *= 4
	}
	return d
}

// holderTripped reports whether a holder's circuit breaker is open: open
// holders are skipped by candidate selection exactly like already-failed
// ones.
func (s *System) holderTripped(holder simnet.NodeID) bool {
	return s.hs.breakerUntil != nil && s.hs.breakerUntil[holder] > s.k.Now()
}

// noteHolderTimeout strikes a holder after an unanswered redirect or peer
// query; holderStrikeLimit consecutive strikes open the breaker for
// breakerCooldown.
func (s *System) noteHolderTimeout(holder simnet.NodeID) {
	if s.hs.holderStrikes == nil {
		return
	}
	s.hs.holderStrikes[holder]++
	if s.hs.holderStrikes[holder] >= holderStrikeLimit {
		s.hs.holderStrikes[holder] = 0
		s.hs.breakerUntil[holder] = s.k.Now() + breakerCooldown
		s.mets.RecordBreakerTrip()
	}
}

// noteHolderAlive resets a holder's strike count on any response.
func (s *System) noteHolderAlive(holder simnet.NodeID) {
	if s.hs.holderStrikes != nil {
		s.hs.holderStrikes[holder] = 0
	}
}
