package flowercdn

import (
	"fmt"
	"math"

	"flowercdn/internal/core"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/squirrel"
	"flowercdn/internal/topology"
)

// Params is the experiment-level configuration: Table 1 of the paper plus
// harness knobs (duration, seeds, churn, scaling).
type Params struct {
	Seed     int64
	Duration simkernel.Time

	// Workload (§6.1).
	QueryRate float64 // aggregate queries/second
	ZipfAlpha float64

	// Population.
	Localities      int
	Websites        int
	ActiveSites     int
	ObjectsPerSite  int
	MaxOverlaySize  int
	ClientsPerSite  int       // potential clients per active website (spread over localities)
	LocalityWeights []float64 // nil = topology default skew

	// Topology.
	TopoNodes    int
	UniformNodes int

	// Gossip (Table 2 sweeps).
	TGossip       simkernel.Time
	TKeepalive    simkernel.Time
	ViewSize      int
	GossipLen     int
	PushThreshold float64

	// Protocol variants.
	QueryPolicy  core.QueryPolicy
	InstanceBits uint // §5.3 scale-up

	// Squirrel baseline.
	SquirrelHomeStore bool

	// Churn: expected peer failures per hour (0 = stable network). When
	// positive, Chord maintenance runs every 30 s (maintenancePeriod).
	ChurnPerHour      float64
	ChurnIncludesDirs bool
	// ChurnRejoin revives each crashed client after an exponentially
	// distributed downtime with this mean (0 = failures are permanent).
	// Revived clients return stateless, as new clients.
	ChurnMeanDowntime simkernel.Time

	// Metrics resolution.
	BucketWidth simkernel.Time

	// MeasureMemory computes Result.BytesPerClient after the run (a forced
	// GC plus ReadMemStats). Off by default so timing benchmarks never pay
	// for the collection.
	MeasureMemory bool

	// Faults enables the deterministic fault-injection plane (message loss,
	// latency jitter/spikes, locality-scale partitions; see
	// simnet.FaultConfig). Nil or all-zero disables it — the network send
	// path then costs one nil check and runs byte-identically to a build
	// without the plane. When enabled, the system runs hardened
	// (core.System.Hardened) and Chord maintenance runs.
	Faults *simnet.FaultConfig

	// AuditEvery runs the core invariant auditor (ring successorship,
	// directory-index ↔ stash consistency, timer plane) at this period,
	// plus once at end of run; 0 disables it.
	AuditEvery simkernel.Time

	// StandbyFailover arms the warm-standby directory extension
	// (core.Config.StandbyFailover): designated standbys, sent their
	// directory's whole index every standby round, that promote on
	// directory silence.
	StandbyFailover bool
	// DirCrashes schedules deterministic directory crashes: at each entry's
	// time the current holder of d(active-site SiteIdx, Locality) is
	// crashed and the locality's crash-recovery probe armed.
	DirCrashes []DirCrash

	// Adaptive arms the gray-failure response (core.Config.Adaptive):
	// EWMA-driven exchange and lookup deadlines, hedged directory lookups
	// and the per-holder circuit breaker. The system runs hardened with it.
	Adaptive bool
	// DirDegrades schedules gray degradations of directory positions: at
	// run start each entry is resolved to the node currently holding
	// d(active-site SiteIdx, Locality) and a simnet.DegradeWindow with the
	// given span and factor is appended to the fault plane for that node.
	// Unlike DirCrashes the node stays alive — it answers, slowly.
	DirDegrades []DirDegrade
}

// DirCrash is one scheduled directory crash (see Params.DirCrashes).
type DirCrash struct {
	SiteIdx  int // active-site index
	Locality int
	At       simkernel.Time
}

// DirDegrade is one scheduled gray degradation of a directory position
// (see Params.DirDegrades): the holder of d(SiteIdx, Locality) has its
// outbound latency multiplied by Factor during [Start, End).
type DirDegrade struct {
	SiteIdx  int // active-site index
	Locality int
	Start    simkernel.Time
	End      simkernel.Time
	Factor   float64
}

// DefaultParams returns the paper's full-scale setup (Table 1, §6.1/§6.2):
// 5000-node topology, k=6, |W|=100 with 6 active, S_co=100, 6 queries/s,
// 24 hours, T_gossip=30 min, L_gossip=10, V_gossip=50.
func DefaultParams(seed int64) Params {
	return Params{
		Seed:           seed,
		Duration:       24 * simkernel.Hour,
		QueryRate:      6,
		ZipfAlpha:      0.8,
		Localities:     6,
		Websites:       100,
		ActiveSites:    6,
		ObjectsPerSite: 500,
		MaxOverlaySize: 100,
		ClientsPerSite: 600,
		TopoNodes:      5000,
		UniformNodes:   200,
		TGossip:        30 * simkernel.Minute,
		TKeepalive:     30 * simkernel.Minute,
		ViewSize:       50,
		GossipLen:      10,
		PushThreshold:  0.1,
		QueryPolicy:    core.PolicyViewOnly,
		BucketWidth:    30 * simkernel.Minute,
	}
}

// maintenancePeriod is the Chord stabilization period under churn or faults.
const maintenancePeriod = 30 * simkernel.Second

// ScaledParams returns a laptop-scale configuration with the same shape
// (used by unit tests, quick benchmark runs and examples): 3 localities,
// 12 websites (3 active), smaller overlays, 2 simulated hours.
func ScaledParams(seed int64) Params {
	p := DefaultParams(seed)
	p.Duration = 2 * simkernel.Hour
	p.QueryRate = 4
	p.Localities = 3
	p.Websites = 12
	p.ActiveSites = 3
	p.ObjectsPerSite = 60
	p.MaxOverlaySize = 20
	p.ClientsPerSite = 45
	p.TopoNodes = 800
	p.UniformNodes = 60
	p.TGossip = 5 * simkernel.Minute
	p.TKeepalive = 5 * simkernel.Minute
	p.ViewSize = 12
	p.GossipLen = 4
	p.BucketWidth = 15 * simkernel.Minute
	return p
}

// Massive100kParams returns the 100,000-client stress preset: an order of
// magnitude past the paper's §6 evaluation (5000 nodes), aimed at the
// control-plane scale wall rather than at reproducing a figure. The shape
// trades per-peer state for population: sparse gossip views (V_gossip=8,
// L_gossip=3), lazily rebuilt summaries over a compact object universe,
// and S_co sized so whole pools can join; the O(L_gossip) directory view
// seed keeps admissions constant-work as overlays grow to thousands of
// members. Topology generation and system construction are
// O(population); nothing touches an all-pairs structure.
func Massive100kParams(seed int64) Params {
	p := DefaultParams(seed)
	p.Duration = 2 * simkernel.Hour
	p.QueryRate = 100
	p.Localities = 10
	p.Websites = 20
	p.ActiveSites = 10
	p.ObjectsPerSite = 100
	p.MaxOverlaySize = 2100 // above the largest per-(site,loc) pool: all may join
	p.ClientsPerSite = 10000
	p.TopoNodes = 102000
	p.UniformNodes = 500
	p.TGossip = 30 * simkernel.Minute
	p.TKeepalive = 30 * simkernel.Minute
	p.ViewSize = 8 // sparse views: per-peer gossip state stays tiny
	p.GossipLen = 3
	p.BucketWidth = 30 * simkernel.Minute
	return p
}

// ShrunkMassiveParams is the CI-runnable shrunk variant of
// Massive100kParams: the same shape and knobs (sparse views, compact
// object universe) at 5,000 clients and 30 simulated
// minutes, so the preset's code paths are exercised — and pinned by the
// equivalence fixture — in seconds.
func ShrunkMassiveParams(seed int64) Params {
	p := Massive100kParams(seed)
	p.Duration = 30 * simkernel.Minute
	p.QueryRate = 30
	p.Localities = 5
	p.Websites = 10
	p.ActiveSites = 5
	p.ClientsPerSite = 1000
	p.MaxOverlaySize = 300
	p.TopoNodes = 5800
	p.UniformNodes = 200
	p.TGossip = 5 * simkernel.Minute
	p.TKeepalive = 5 * simkernel.Minute
	p.BucketWidth = 10 * simkernel.Minute
	return p
}

// BuildPools apportions each active website's potential clients over the
// localities by weight, capping each pool at S_co. This reproduces §6.1:
// "content overlays of a given website evolve at different rhythms and
// sizes", with the non-uniform locality population.
func (p Params) BuildPools() [][]int {
	weights := p.LocalityWeights
	if weights == nil {
		weights = topology.DefaultWeights(p.Localities)
	}
	// Under the §5.3 scale-up, each (website, locality) slot has 2^b
	// directory instances and can absorb that many overlays' worth of
	// clients.
	capacity := p.MaxOverlaySize << p.InstanceBits
	pools := make([][]int, p.ActiveSites)
	for si := range pools {
		pools[si] = make([]int, p.Localities)
		total := 0.0
		for _, w := range weights {
			total += w
		}
		for loc := 0; loc < p.Localities; loc++ {
			n := int(float64(p.ClientsPerSite)*weights[loc]/total + 0.5)
			if n > capacity {
				n = capacity
			}
			if n < 1 {
				n = 1
			}
			pools[si][loc] = n
		}
	}
	return pools
}

// TopologyConfig derives the underlay configuration, guaranteeing each
// locality holds enough nodes for its directories and pools.
func (p Params) TopologyConfig(pools [][]int) topology.Config {
	cfg := topology.DefaultConfig(p.Seed)
	cfg.Localities = p.Localities
	cfg.TotalNodes = p.TopoNodes
	cfg.UniformNodes = p.UniformNodes
	cfg.Weights = p.LocalityWeights
	minCount := make([]int, p.Localities)
	for loc := 0; loc < p.Localities; loc++ {
		need := p.Websites << p.InstanceBits // directories per website (×2^b under §5.3)
		for si := range pools {
			need += pools[si][loc]
		}
		// Slack for landmark-measurement spill between clusters.
		minCount[loc] = need + need/10 + 8
	}
	cfg.MinCount = minCount
	return cfg
}

// CoreConfig derives the Flower-CDN configuration.
func (p Params) CoreConfig(pools [][]int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Localities = p.Localities
	cfg.Websites = p.Websites
	cfg.ActiveSites = p.ActiveSites
	cfg.ObjectsPerSite = p.ObjectsPerSite
	cfg.MaxOverlaySize = p.MaxOverlaySize
	cfg.PoolSizes = pools
	cfg.InstanceBits = p.InstanceBits
	cfg.Gossip.ViewSize = p.ViewSize
	cfg.Gossip.GossipLen = p.GossipLen
	cfg.Gossip.PushThreshold = p.PushThreshold
	cfg.Gossip.SummaryCapacity = p.ObjectsPerSite
	cfg.TGossip = p.TGossip
	cfg.TKeepalive = p.TKeepalive
	cfg.QueryPolicy = p.QueryPolicy
	cfg.StandbyFailover = p.StandbyFailover
	if p.ChurnPerHour > 0 || p.Faults.Enabled() {
		// Churn breaks the ring, and a lossy/partitioned transport needs ring
		// maintenance as the vehicle of the hardened stabilization retry.
		cfg.MaintenancePeriod = maintenancePeriod
	}
	cfg.Adaptive = p.Adaptive
	return cfg
}

// SquirrelConfig derives the baseline configuration. The baseline gets the
// same client pools plus the same per-locality "infrastructure" budget
// Flower-CDN spends on directory peers, so both systems have comparable
// populations.
func (p Params) SquirrelConfig(pools [][]int) squirrel.Config {
	cfg := squirrel.DefaultConfig()
	cfg.Sites = model.MakeSites(p.Websites)[:p.ActiveSites]
	cfg.ObjectsPerSite = p.ObjectsPerSite
	cfg.PoolSizes = pools
	cfg.ExtraPerLocality = p.Websites
	if p.SquirrelHomeStore {
		cfg.Strategy = squirrel.StrategyHomeStore
	}
	return cfg
}

// Validate sanity-checks the harness parameters and the core config they
// derive.
func (p Params) Validate() error {
	if p.Duration <= 0 {
		return fmt.Errorf("flowercdn: duration must be positive")
	}
	// The rate tests are negated so that NaN fails them too.
	if !(p.QueryRate > 0) || math.IsInf(p.QueryRate, 1) {
		return fmt.Errorf("flowercdn: query rate %v is not a positive finite number", p.QueryRate)
	}
	if !(p.ChurnPerHour >= 0) || math.IsInf(p.ChurnPerHour, 1) {
		return fmt.Errorf("flowercdn: churn rate %v is not a non-negative finite number", p.ChurnPerHour)
	}
	// Rejoins are scheduled only for a positive downtime: a negative one
	// would run as permanent failures.
	if p.ChurnMeanDowntime < 0 {
		return fmt.Errorf("flowercdn: churn mean downtime %s is negative", p.ChurnMeanDowntime)
	}
	// NeedPush compares with >=, which no change ratio passes against a NaN
	// or infinite threshold: no member would ever push.
	if !(math.Abs(p.PushThreshold) <= math.MaxFloat64) {
		return fmt.Errorf("flowercdn: push threshold %v is not a finite number", p.PushThreshold)
	}
	if p.ClientsPerSite <= 0 {
		return fmt.Errorf("flowercdn: clients per site must be positive")
	}
	if p.Localities <= 0 {
		return fmt.Errorf("flowercdn: localities must be positive")
	}
	if err := p.Faults.Validate(p.Localities); err != nil {
		return err
	}
	// BuildPools indexes the weights by locality and divides by their sum.
	if n := len(p.LocalityWeights); n != 0 && n != p.Localities {
		return fmt.Errorf("flowercdn: %d locality weights for %d localities", n, p.Localities)
	}
	sum := 0.0
	for _, w := range p.LocalityWeights {
		if !(w >= 0) {
			return fmt.Errorf("flowercdn: locality weight %v is not a non-negative number", w)
		}
		sum += w
	}
	if len(p.LocalityWeights) > 0 && !(sum > 0) {
		return fmt.Errorf("flowercdn: locality weights sum to zero")
	}
	// A schedule entry that cannot act is refused, not skipped: a run that
	// silently lost its crash or its slowdown would measure the wrong thing.
	for _, dc := range p.DirCrashes {
		if !p.isDirPosition(dc.SiteIdx, dc.Locality) || dc.At < 0 || dc.At >= p.Duration {
			return fmt.Errorf("flowercdn: directory crash %+v names no directory or falls outside the run [0, %s)", dc, p.Duration)
		}
	}
	for _, dd := range p.DirDegrades {
		if !p.isDirPosition(dd.SiteIdx, dd.Locality) || dd.End <= dd.Start || !(dd.Factor > 1) {
			return fmt.Errorf("flowercdn: directory degrade %+v names no directory, an empty window or a factor ≤ 1", dd)
		}
	}
	// The protocol's own checks (key space, periods, negative values), before
	// anything is sized by these parameters.
	cfg := p.CoreConfig(p.BuildPools())
	return cfg.Validate()
}

// isDirPosition reports whether d(active site si, locality loc) exists.
func (p Params) isDirPosition(si, loc int) bool {
	return si >= 0 && si < p.ActiveSites && loc >= 0 && loc < p.Localities
}
