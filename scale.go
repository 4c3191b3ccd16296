package flowercdn

// This file holds the population-scale experiments: the
// events/sec-vs-population chart behind the 100k-client preset. Unlike
// the paper-reproduction presets these do not model a figure; they
// measure how simulator throughput holds up as the peer population
// grows, which is the repository's scale north-star.

import (
	"strconv"

	"flowercdn/internal/simkernel"
)

// WithMassiveChurn returns p with the §5 failure model wired in at scale:
// a Poisson failure process sized to the population (2% of the potential
// clients per hour), directory peers included so §5.2 replacement runs,
// and exponential rejoins with a 15-minute mean downtime (revived clients
// return stateless). Apply it to Massive100kParams or ShrunkMassiveParams
// to measure recovery cost at 10^5 peers: events/sec with failures vs the
// stable network.
func WithMassiveChurn(p Params) Params {
	clients := p.ClientsPerSite * p.ActiveSites
	p.ChurnPerHour = float64(clients) / 50
	p.ChurnIncludesDirs = true
	p.ChurnMeanDowntime = 15 * simkernel.Minute
	return p
}

// DirStressParams is the dirTick-heavy preset: a single website whose
// whole population lands in one ~2100-member content overlay (the 100k
// preset's largest-overlay shape) with a 1-minute gossip period, so the
// directory's periodic index sweep — age every entry, scan for evictions
// — dominates steady-state simulator cost. The preset is the workload
// behind BenchmarkDirectoryTick's slab-sweep numbers at system level.
func DirStressParams(seed int64) Params {
	p := DefaultParams(seed)
	p.Duration = simkernel.Hour
	p.QueryRate = 20
	p.Localities = 2
	p.Websites = 4
	p.ActiveSites = 1
	p.ObjectsPerSite = 100
	p.MaxOverlaySize = 2100
	p.ClientsPerSite = 2100
	p.LocalityWeights = []float64{1, 0} // one overlay takes the whole site
	p.TopoNodes = 2800
	p.UniformNodes = 100
	p.TGossip = simkernel.Minute
	p.TKeepalive = simkernel.Minute
	p.ViewSize = 8
	p.GossipLen = 3
	p.BucketWidth = 10 * simkernel.Minute
	return p
}

// PopulationParams scales the shrunk 100k-preset shape to a total client
// population: the per-site pools, overlay capacity and topology budget
// grow linearly with the population while every protocol knob (sparse
// views, gossip cadence) stays fixed, so a sweep varies
// exactly one thing.
func PopulationParams(seed int64, clients int) Params {
	p := ShrunkMassiveParams(seed)
	if clients < p.ActiveSites {
		clients = p.ActiveSites
	}
	p.ClientsPerSite = clients / p.ActiveSites
	// The largest per-locality pool is ~29% of a site's clients under the
	// default weight skew; 40% headroom keeps every pool admissible.
	p.MaxOverlaySize = p.ClientsPerSite*2/5 + 8
	p.TopoNodes = clients + clients/8 + 600
	p.UniformNodes = 200
	return p
}

// populationPoints is PopulationParams at each requested population (nil
// defaults to 1k/2k/5k/10k), labelled by it, with the heap footprint
// measured: the sweep charts bytes/client alongside events/sec.
func populationPoints(seed int64, populations []int) []Point {
	if len(populations) == 0 {
		populations = []int{1000, 2000, 5000, 10000}
	}
	points := make([]Point, len(populations))
	for i, pop := range populations {
		p := PopulationParams(PointSeed(seed, i), pop)
		p.MeasureMemory = true
		points[i] = Point{Label: strconv.Itoa(pop), Params: p}
	}
	return points
}
