package main

import (
	"fmt"
	"math"

	"flowercdn"
)

// The paper's section 6 operating point (L=10, T=30 min, V=50): hit ratio
// 0.86 and 74 bps of background traffic per peer.
const (
	paperHitRatio      = 0.86
	paperBackgroundBps = 74.0
	paperHitTolerance  = 0.03
)

// checkResults applies the output checks that hold for every run: the
// report's counters are mutually consistent, and a clean workload never
// retries, hedges, escalates to a directory or trips a breaker. The
// paper-conformance check applies to the full-size paper24h only.
func checkResults(w workload, results []flowercdn.Result, points []flowercdn.Point, quick bool) []string {
	var failures []string
	fail := func(i int, format string, args ...any) {
		failures = append(failures, fmt.Sprintf("%s[%s]: ", w.name, points[i].Label)+fmt.Sprintf(format, args...))
	}
	for i, r := range results {
		rep := r.Report
		var bySource int64
		for _, s := range servedSources {
			bySource += rep.BySource[s]
		}
		if bySource != rep.TotalQueries {
			fail(i, "served-by-source sums to %d, TotalQueries is %d", bySource, rep.TotalQueries)
		}
		if want := rep.TotalQueries - rep.BySource["server"]; rep.Hits != want {
			fail(i, "Hits is %d, total minus server-served is %d", rep.Hits, want)
		}
		if sub := submitted(points[i].Params); rep.TotalQueries > sub || rep.TotalQueries <= 0 {
			fail(i, "resolved %d queries of %d submitted", rep.TotalQueries, sub)
		}
		if r.MessagesSent < r.MessagesDropped+r.FaultDrops {
			fail(i, "sent %d messages but dropped %d dead + %d faulted", r.MessagesSent, r.MessagesDropped, r.FaultDrops)
		}
		if w.clean {
			if n := rep.Retries + rep.Hedges + rep.DirFallbacks + rep.BreakerTrips + int64(r.Stats.QueriesRetried); n != 0 {
				fail(i, "clean workload shows %d retries, %d hedges, %d directory fallbacks, %d breaker trips, %d re-submitted queries",
					rep.Retries, rep.Hedges, rep.DirFallbacks, rep.BreakerTrips, r.Stats.QueriesRetried)
			}
			if r.FaultDrops != 0 {
				fail(i, "clean workload dropped %d messages in the fault plane", r.FaultDrops)
			}
		}
		for name, v := range map[string]float64{
			"HitRatio": rep.HitRatio, "AvgLookupMs": rep.AvgLookupMs, "P99": rep.LookupPercentiles.P99,
			"AvgTransferMs": rep.AvgTransferMs, "BackgroundBps": rep.BackgroundBps,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				fail(i, "%s is %v", name, v)
			}
		}
	}
	if w.name == "paper24h" && !quick {
		if hr := results[0].Report.HitRatio; math.Abs(hr-paperHitRatio) > paperHitTolerance {
			failures = append(failures, fmt.Sprintf("paper24h: hit ratio %.4f is outside the paper's %.2f ± %.2f", hr, paperHitRatio, paperHitTolerance))
		}
	}
	return failures
}

// checkFinite rejects NaN and infinities in reported values.
func checkFinite(workloadName string, specs []spec, values []summary) []string {
	var failures []string
	for i, v := range values {
		for _, x := range []float64{v.Value, v.Min, v.Max} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				failures = append(failures, fmt.Sprintf("%s: %s is %v", workloadName, specs[i].Name, x))
				break
			}
		}
	}
	return failures
}
