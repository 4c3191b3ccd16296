package main

import (
	"fmt"

	"flowercdn"
)

// workload is one named set of inputs. Simulated clients are an open loop
// in simulated time (fixed-rate arrivals, Params.Poisson=false); on the
// host a rep is a closed batch: one facade call after another from one
// goroutine.
type workload struct {
	name string
	// rounds is how many times a rep runs the point list (the campaign
	// repeats its nine short points so a rep lasts seconds, not 0.1 s).
	rounds int
	// clean marks a workload with no fault plane and no churn, on which
	// retries, hedges, directory fallbacks and breaker trips must be zero.
	clean bool
	// points builds the facade inputs from the seed. quick divides
	// simulated durations by 20 and populations by 10: a smoke-test size
	// whose numbers are not comparable with a full run's.
	points func(seed int64, quick bool) []flowercdn.Point
}

func single(p flowercdn.Params) []flowercdn.Point {
	return []flowercdn.Point{{Label: "run", Params: p}}
}

func scaleDuration(d flowercdn.Time, quick bool) flowercdn.Time {
	if quick {
		return d / 20
	}
	return d
}

func scalePopulation(n int, quick bool) int {
	if quick {
		return n / 10
	}
	return n
}

// grayFaults is the graychurn20k fault plane; the simnet faulted-send
// driver installs the same config so its ns/op is the per-send cost this
// workload pays.
func grayFaults() *flowercdn.FaultConfig {
	return &flowercdn.FaultConfig{
		LossProb:    0.02,
		JitterProb:  0.1,
		JitterMaxMs: 60,
		AsymLoss:    []flowercdn.AsymLossRule{{FromLoc: 0, ToLoc: 1, Prob: 0.2}},
		Flap: []flowercdn.FlapWindow{{
			Locality: 2,
			Start:    10 * flowercdn.Minute, End: 100 * flowercdn.Minute,
			Period: 30 * flowercdn.Second, DownFor: 10 * flowercdn.Second,
		}},
	}
}

// table2Params is the bench-scale shape of the root bench_test.go's
// benchParams: 30 simulated minutes, 3 localities, 3 active websites.
func table2Params(seed int64, quick bool) flowercdn.Params {
	p := flowercdn.ScaledParams(seed)
	p.Duration = scaleDuration(30*flowercdn.Minute, quick)
	p.QueryRate = 3
	p.TGossip = 3 * flowercdn.Minute
	p.TKeepalive = 3 * flowercdn.Minute
	p.BucketWidth = 10 * flowercdn.Minute
	return p
}

// table2Points is the nine-point Table 2 grid: L_gossip 5/10/20 at V=24,
// T_gossip 1/5/15 min, V_gossip 6/12/24.
func table2Points(seed int64, quick bool) []flowercdn.Point {
	var points []flowercdn.Point
	add := func(label string, mod func(*flowercdn.Params)) {
		p := table2Params(flowercdn.PointSeed(seed, len(points)), quick)
		mod(&p)
		points = append(points, flowercdn.Point{Label: label, Params: p})
	}
	for _, l := range []int{5, 10, 20} {
		add(fmt.Sprintf("L=%d", l), func(p *flowercdn.Params) { p.ViewSize = 24; p.GossipLen = l })
	}
	for _, t := range []flowercdn.Time{flowercdn.Minute, 5 * flowercdn.Minute, 15 * flowercdn.Minute} {
		add(fmt.Sprintf("T=%s", t), func(p *flowercdn.Params) { p.TGossip = t; p.TKeepalive = t })
	}
	for _, v := range []int{6, 12, 24} {
		add(fmt.Sprintf("V=%d", v), func(p *flowercdn.Params) { p.ViewSize = v })
	}
	return points
}

// workloads is the benchmark's input set; BENCHMARK.json carries each one's
// "why" and bench/README.md the long form. The sizes were measured on the
// reference box (2 cores, Go 1.24): each rep lasts 2–4 s.
var workloads = []workload{
	{
		// Query-lifecycle bound: the paper's section 6 set-up, sparse gossip,
		// every query probes view summaries.
		name:   "paper24h",
		rounds: 1,
		clean:  true,
		points: func(seed int64, quick bool) []flowercdn.Point {
			p := flowercdn.DefaultParams(seed)
			p.Duration = scaleDuration(p.Duration, quick)
			return single(p)
		},
	},
	{
		// Control-plane bound: one 2100-member overlay on 1-minute ticks.
		name:   "dirstress6h",
		rounds: 1,
		clean:  true,
		points: func(seed int64, quick bool) []flowercdn.Point {
			p := flowercdn.DirStressParams(seed)
			p.Duration = scaleDuration(6*flowercdn.Hour, quick)
			return single(p)
		},
	},
	{
		// Scale and memory: join storm, deep event heap, heap beyond cache.
		name:   "pop100k",
		rounds: 1,
		clean:  true,
		points: func(seed int64, quick bool) []flowercdn.Point {
			p := flowercdn.PopulationParams(seed, scalePopulation(100000, quick))
			p.Duration = scaleDuration(60*flowercdn.Minute, quick)
			return single(p)
		},
	},
	{
		// The send path, timers and query path under faults and churn.
		name:   "graychurn20k",
		rounds: 1,
		points: func(seed int64, quick bool) []flowercdn.Point {
			p := flowercdn.WithMassiveChurn(flowercdn.PopulationParams(seed, scalePopulation(20000, quick)))
			p.Duration = scaleDuration(2*flowercdn.Hour, quick)
			p.Adaptive = true
			p.Faults = grayFaults()
			return single(p)
		},
	},
	{
		// Cache-resident points and 180 constructions per rep.
		name:   "table2_campaign",
		rounds: 20,
		clean:  true,
		points: table2Points,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// submitted is the number of queries the fixed-rate generator issues
// within the run: the denominator of sim_resolved_frac.
func submitted(p flowercdn.Params) int64 {
	return int64(p.QueryRate * p.Duration.Seconds())
}

// clients is the potential client population of a run (all pools).
func clients(p flowercdn.Params) int {
	total := 0
	for _, row := range p.BuildPools() {
		for _, n := range row {
			total += n
		}
	}
	return total
}
