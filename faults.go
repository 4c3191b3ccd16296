package flowercdn

import (
	"fmt"

	"flowercdn/internal/core"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// This file holds the fault-injection presets and the loss-rate degradation
// sweep behind `flowersim -exp faults`: the robustness counterpart of the
// clean-network scenarios. Everything here is deterministic per seed — the
// fault plane draws from kernel-derived streams and partitions are a fixed
// schedule.

// FaultStormParams is the kitchen-sink robustness scenario: the laptop-scale
// population under 5% uniform message loss, latency jitter with occasional
// spikes, and two scheduled locality partitions (cut and heal mid-run), with
// the invariant auditor sweeping the system every simulated minute. It is
// the fixture behind the faulted golden-equivalence section and the
// campaign worker-invariance fault scenarios.
func FaultStormParams(seed int64) Params {
	p := ScaledParams(seed)
	p.Duration = 30 * simkernel.Minute
	p.BucketWidth = 10 * simkernel.Minute
	p.Faults = &simnet.FaultConfig{
		LossProb:    0.05,
		JitterProb:  0.2,
		JitterMaxMs: 120,
		SpikeProb:   0.02,
		SpikeMs:     400,
		// The windows land in the bootstrap phase on purpose: that is when
		// cross-locality traffic (D-ring joins and lookups, origin fetches)
		// is densest, so a cut actually wounds the partitioned localities and
		// the post-heal recovery probe has directory-mediated hits to observe.
		Partitions: []simnet.PartitionWindow{
			{Locality: 0, Start: 60 * simkernel.Second, End: 150 * simkernel.Second},
			{Locality: 2, Start: 90 * simkernel.Second, End: 180 * simkernel.Second},
		},
	}
	p.AuditEvery = simkernel.Minute
	return p
}

// DirCrashStormParams is the crash-failover scenario behind `-exp
// dircrash`: the laptop-scale population under light loss and jitter,
// with every active site's directory in two localities crashed during the
// bootstrap phase (when new-client queries still route through the
// directory plane, so the crash→first-local-directory-hit probe has
// observations on both sides). Warm standbys are armed; the cold §5.2
// rebuild baseline is the same preset with StandbyFailover off.
func DirCrashStormParams(seed int64) Params {
	p := ScaledParams(seed)
	p.Duration = 30 * simkernel.Minute
	p.BucketWidth = 10 * simkernel.Minute
	p.Faults = &simnet.FaultConfig{
		LossProb:    0.02,
		JitterProb:  0.1,
		JitterMaxMs: 80,
	}
	p.AuditEvery = simkernel.Minute
	p.StandbyFailover = true
	// Members escalate view misses to their directory: with the paper's
	// view-only policy the directory plane goes quiet once bootstrap
	// joining ends, and a crash after that point would be invisible to
	// the crash→first-local-directory-hit probe on both sides.
	p.QueryPolicy = core.PolicyViewThenDirectory
	// Crash every active site's directory in two localities so the whole
	// locality-wide directory plane takes the hit at once; the times sit
	// past the first standby-sync rounds but inside dense bootstrap.
	for si := 0; si < p.ActiveSites; si++ {
		p.DirCrashes = append(p.DirCrashes,
			DirCrash{SiteIdx: si, Locality: 0, At: 120 * simkernel.Second},
			DirCrash{SiteIdx: si, Locality: 2, At: 150 * simkernel.Second},
		)
	}
	return p
}

// GrayStormParams is the gray-failure scenario behind `-exp gray`: nodes
// that are slow rather than dead, links that lose traffic in one direction
// only, and links that flap up and down — the failure modes a binary
// alive/dead detector mishandles. Every active site's directory in
// locality 1 is degraded (answers, late) for most of the run, locality
// 0→1 traffic loses a third of its messages one-way, locality 2's uplink
// flaps, and a light uniform loss floor keeps retry paths warm. The same
// Params runs twice from `-exp gray` — fixed ladder vs Adaptive — so the
// comparison shares seed, topology and fault schedule byte-for-byte.
func GrayStormParams(seed int64) Params {
	p := ScaledParams(seed)
	p.Duration = 30 * simkernel.Minute
	p.BucketWidth = 10 * simkernel.Minute
	p.Faults = &simnet.FaultConfig{
		LossProb:    0.02,
		JitterProb:  0.2,
		JitterMaxMs: 80,
		AsymLoss: []simnet.AsymLossRule{
			{FromLoc: 0, ToLoc: 1, Prob: 0.35},
		},
		Flap: []simnet.FlapWindow{
			{Locality: 2, Start: 200 * simkernel.Second, End: 500 * simkernel.Second,
				Period: 30 * simkernel.Second, DownFor: 10 * simkernel.Second},
		},
	}
	// Keepalives every minute keep the estimators warm and make the gray
	// directory's slowness visible to its members between queries.
	p.TKeepalive = simkernel.Minute
	p.QueryPolicy = core.PolicyViewThenDirectory
	// Mild permanent churn seeds the overlays with genuinely dead holders
	// (stale view contacts and index entries): the prey of the holder
	// circuit breaker, which the gray nodes — slow but alive — are not.
	p.ChurnPerHour = 20
	for si := 0; si < p.ActiveSites; si++ {
		p.DirDegrades = append(p.DirDegrades, DirDegrade{
			SiteIdx: si, Locality: 1,
			Start: 120 * simkernel.Second, End: 10 * simkernel.Minute, Factor: 8,
		})
	}
	p.AuditEvery = simkernel.Minute
	return p
}

// grayPoints is base twice on the same seed: the fixed timeout ladder, then
// the adaptive plane (EWMA deadlines + hedged lookups + holder breaker). The
// fault schedule, topology and workload are identical; only the response
// differs.
func grayPoints(base Params) []Point {
	fixed, adaptive := base, base
	fixed.Adaptive = false
	adaptive.Adaptive = true
	return []Point{{Label: "fixed", Params: fixed}, {Label: "adaptive", Params: adaptive}}
}

// DefaultLossRates is the sweep grid for `-exp faults`.
var DefaultLossRates = []float64{0, 0.01, 0.02, 0.05, 0.10, 0.20}

// lossPoints is base once per uniform loss rate (nil = DefaultLossRates),
// labelled by the rate in percent. Rate 0 runs with the fault plane disabled
// outright, pinning the baseline to the exact clean-network event stream.
func lossPoints(base Params, rates []float64) []Point {
	if rates == nil {
		rates = DefaultLossRates
	}
	points := make([]Point, len(rates))
	for i, rate := range rates {
		p := base
		p.Faults = nil
		if rate > 0 {
			fc := simnet.FaultConfig{}
			if base.Faults != nil {
				fc = *base.Faults
			}
			fc.LossProb = rate
			p.Faults = &fc
		}
		points[i] = Point{Label: fmt.Sprintf("%.0f%%", 100*rate), Params: p}
	}
	return points
}
