package main

import (
	"fmt"
	"math"
	"time"

	"flowercdn"
	"flowercdn/internal/trace"
)

// traceCapacity bounds the protocol trace of one run; the largest workload
// records about 2.4 M events. trace.dropped reports any overflow.
const traceCapacity = 4_000_000

// budget sets how much work attribution does. The full command spends
// what the numbers deserve; a single-workload --trace 1 run has to fit
// beside the timed runs, so it takes one profiled pass and shorter drivers.
type budget struct {
	profileSamples int64         // profile passes accumulate until this many samples
	profilePasses  int           // ... or this many passes
	driverMin      time.Duration // minimum timed batch of a layer driver
}

var (
	fullBudget   = budget{profileSamples: 2000, profilePasses: 6, driverMin: 200 * time.Millisecond}
	singleBudget = budget{profileSamples: 1, profilePasses: 1, driverMin: 100 * time.Millisecond}
	quickBudget  = budget{profileSamples: 1, profilePasses: 1, driverMin: 2 * time.Millisecond}
)

// attribution is the outcome of the traced part of a workload.
type attribution struct {
	values   map[string]float64 // per-layer metrics by name
	stages   map[string]stageStats
	failures []string
}

func (a *attribution) fail(format string, args ...any) {
	a.failures = append(a.failures, fmt.Sprintf(format, args...))
}

// attribute runs the three traced passes of a workload — CPU-profiled,
// protocol-traced, audited — on the Params the timed reps used, checks
// that tracing did not perturb the simulation, and assembles the
// per-layer metrics from the passes, the timed reps m and the
// workload-independent driver and calibration results.
func attribute(w workload, m *measured, drivers map[string]float64, calibrationNs float64, b budget, spans *spanLog, parent int) (*attribution, error) {
	a := &attribution{values: map[string]float64{}}
	v := a.values
	refWall := summarize(m.column(func(s hostSample) float64 { return s.wall })).Value

	// Pass 1: CPU profile, tracer off.
	var samples []stackSample
	var sampleCount int64
	profiledWall, passes := 0.0, 0
	for ; passes < b.profilePasses && (passes == 0 || sampleCount < b.profileSamples); passes++ {
		sp := spans.begin(fmt.Sprintf("profiled[%d]", passes), parent)
		var host hostSample
		var results []flowercdn.Result
		raw, err := cpuProfile(func() (err error) {
			host, results, err = timedRep(m.points, m.rounds)
			return err
		})
		spans.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s profiled pass: %w", w.name, err)
		}
		if d := digest(results); d != m.digest {
			a.fail("%s: profiled pass digest %s differs from the timed reps' %s", w.name, d, m.digest)
		}
		parsed, err := parseProfile(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		samples = append(samples, parsed...)
		for _, s := range parsed {
			sampleCount += s.count
		}
		profiledWall += host.wall
	}
	shares, total := cpuShares(samples)
	sum := 0.0
	for _, l := range cpuLayers {
		v["cpu_share."+l] = shares[l]
		sum += shares[l]
	}
	v["cpu_share.samples"] = float64(total)
	if total == 0 {
		a.fail("%s: the CPU profile holds no samples", w.name)
	} else if math.Abs(sum-1) > 0.01 {
		a.fail("%s: cpu_share sums to %.4f", w.name, sum)
	}
	v["trace.profile_overhead_frac"] = profiledWall/float64(passes)/refWall - 1

	// Pass 2: protocol trace, one round of every point.
	sp := spans.begin("protocol-traced", parent)
	var stages stageCollector
	var traced []flowercdn.Result
	var recorded, retained uint64
	start := time.Now()
	for _, pt := range m.points {
		res, buf, err := flowercdn.RunFlowerTraced(pt.Params, traceCapacity)
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
		}
		traced = append(traced, res)
		recorded += buf.Total()
		retained += uint64(buf.Len())
		stages.add(buf.Events())
	}
	tracedWall := time.Since(start).Seconds()
	spans.end(sp)
	if d := digest(traced); d != m.digest {
		a.fail("%s: protocol-traced pass digest %s differs from the timed reps' %s: tracing perturbed the simulation", w.name, d, m.digest)
	}
	v["trace.events"] = float64(recorded)
	v["trace.dropped"] = float64(recorded - retained)
	if recorded != retained {
		a.fail("%s: the trace buffer dropped %d of %d events", w.name, recorded-retained, recorded)
	}
	v["trace.overhead_frac"] = tracedWall/(refWall/float64(m.rounds)) - 1
	a.stages = stages.stats()
	for _, name := range stageNames {
		v["core.stage."+name+"_ms_p50"] = a.stages[name].P50Ms
		v["core.stage."+name+"_ms_p99"] = a.stages[name].P99Ms
	}
	counts := &stages.counts
	v["dring.route_hops_per_lookup"] = ratio(counts.of(trace.RouteHop), float64(counts.newClients))
	v["dring.dir_process"] = counts.of(trace.DirProcess)
	v["dring.redirects"] = counts.of(trace.Redirect)
	v["dring.sibling_forwards"] = counts.of(trace.ForwardedToSibling)
	v["core.peer_nack_frac"] = ratio(counts.of(trace.PeerNack), counts.of(trace.PeerQuery))

	// Pass 3: the invariant auditor every ten simulated minutes, point 0.
	// Reported, not gated: see bench/README.md on graychurn20k.
	sp = spans.begin("audited", parent)
	p0 := m.points[0].Params
	p0.AuditEvery = min(10*flowercdn.Minute, p0.Duration/2)
	audited, err := flowercdn.RunFlower(p0)
	spans.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s audited pass: %w", w.name, err)
	}
	v["core.audit_violations"] = float64(len(audited.AuditViolations))

	// Counts of one round, from the timed reps' (deterministic) results.
	var events, sent, dead, faulted float64
	var hedges, hedgeWins float64
	for _, r := range m.results {
		rep := r.Report
		events += float64(r.Events)
		sent += float64(r.MessagesSent)
		dead += float64(r.MessagesDropped)
		faulted += float64(r.FaultDrops)
		for _, t := range rep.Traffic {
			v["simnet.msgs."+t.Category.String()] += float64(t.Messages)
		}
		for _, s := range servedSources {
			v["core.served."+s] += float64(rep.BySource[s])
		}
		v["core.joins"] += float64(r.Stats.Joins)
		v["core.dir_replacements"] += float64(r.Stats.DirReplacements)
		v["core.queries_retried"] += float64(r.Stats.QueriesRetried)
		v["core.retries"] += float64(rep.Retries)
		v["core.dir_fallbacks"] += float64(rep.DirFallbacks)
		v["core.origin_fallbacks"] += float64(rep.OriginFallbacks)
		v["core.breaker_trips"] += float64(rep.BreakerTrips)
		v["core.redirect_failures"] += float64(rep.RedirectFailures)
		hedges += float64(rep.Hedges)
		hedgeWins += float64(rep.HedgeWins)
	}
	v["core.hedges"] = hedges
	v["core.hedge_win_frac"] = ratio(hedgeWins, hedges)
	v["simkernel.events"] = events
	v["simkernel.events_per_query"] = events / float64(m.resolved)
	kernelWall := summarize(m.column(func(s hostSample) float64 { return s.kernelWall })).Value
	v["simkernel.events_per_s"] = events * float64(m.rounds) / kernelWall
	v["simkernel.ns_per_event"] = 1e9 * kernelWall / (events * float64(m.rounds))
	v["simnet.msgs_sent"] = sent
	v["simnet.msgs_per_query"] = sent / float64(m.resolved)
	v["simnet.dead_drops"] = dead
	v["simnet.fault_drops"] = faulted

	v["runtime.gc_cpu_frac"] = summarize(m.column(func(s hostSample) float64 { return ratio(s.gcCPU, s.busyCPU) })).Value
	v["runtime.gc_cycles"] = summarize(m.column(func(s hostSample) float64 { return s.gcCycles })).Value
	v["runtime.gc_pause_ms"] = summarize(m.column(func(s hostSample) float64 { return s.gcPauseMs })).Value

	// The paper's Fig. 7 and Fig. 8 quantities: exact per seed, too
	// seed-sensitive to carry an end-to-end bound (see spec.go).
	v["harness.sim_lookup_mean_ms"] = m.meanOver(func(r flowercdn.Report) float64 { return r.AvgLookupMs })
	v["harness.sim_lookup_p99_ms"] = m.meanOver(func(r flowercdn.Report) float64 { return r.LookupPercentiles.P99 })
	v["harness.sim_transfer_mean_ms"] = m.meanOver(func(r flowercdn.Report) float64 { return r.AvgTransferMs })
	// Distance from the paper's operating point; a conformance figure on
	// paper24h only (the other workloads simulate different set-ups).
	v["harness.paper_hit_ratio_err"] = m.meanOver(func(r flowercdn.Report) float64 { return r.HitRatio }) - paperHitRatio
	v["harness.paper_bps_rel_err"] = m.meanOver(func(r flowercdn.Report) float64 { return r.BackgroundBps })/paperBackgroundBps - 1
	v["host.calibration_ns"] = calibrationNs
	for name, value := range drivers {
		v[name] = value
	}
	return a, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayerValues returns the per-layer metrics in spec order; a metric the
// attribution did not produce is a bug, reported as a failure.
func (a *attribution) perLayerValues(workloadName string) []summary {
	out := make([]summary, len(perLayer))
	for i, s := range perLayer {
		value, ok := a.values[s.Name]
		if !ok {
			a.fail("%s: per-layer metric %s was not measured", workloadName, s.Name)
		}
		out[i] = exact(value)
	}
	return out
}

// calibrationSpins is sized so the spin lasts about 200 ms on the
// reference box.
const calibrationSpins = 100_000_000

// calibrate times a fixed integer-hash spin: no memory traffic, no
// allocation, so its duration moves only with the machine (frequency,
// a noisy neighbour). Run before and after the workloads, it is the
// canary that says whether two sets of timings saw the same machine.
func calibrate() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < calibrationSpins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += x
	return float64(time.Since(start).Nanoseconds())
}
