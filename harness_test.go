package flowercdn

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"flowercdn/internal/core"
	"flowercdn/internal/metrics"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

// tinyParams is even smaller than ScaledParams (and than fastParams), for
// unit-test speed.
func tinyParams(seed int64) Params {
	p := ScaledParams(seed)
	p.Duration = 30 * simkernel.Minute
	p.QueryRate = 2
	p.Websites = 8
	p.ActiveSites = 2
	p.ObjectsPerSite = 30
	p.ClientsPerSite = 24
	p.MaxOverlaySize = 10
	p.TopoNodes = 500
	p.TGossip = 3 * simkernel.Minute
	p.TKeepalive = 3 * simkernel.Minute
	return p
}

func TestBuildPools(t *testing.T) {
	p := tinyParams(1)
	pools := p.BuildPools()
	if len(pools) != p.ActiveSites {
		t.Fatalf("pool rows = %d", len(pools))
	}
	for _, row := range pools {
		if len(row) != p.Localities {
			t.Fatalf("pool cols = %d", len(row))
		}
		total := 0
		for _, n := range row {
			if n < 1 || n > p.MaxOverlaySize {
				t.Fatalf("pool size %d outside [1,%d]", n, p.MaxOverlaySize)
			}
			total += n
		}
		if total == 0 {
			t.Fatal("empty site pools")
		}
	}
	// Non-uniform: locality 0 (largest weight) ≥ last locality.
	if pools[0][0] < pools[0][p.Localities-1] {
		t.Fatalf("pools not weight-ordered: %v", pools[0])
	}
}

func TestRunFlowerSmoke(t *testing.T) {
	res, err := RunFlower(tinyParams(2))
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.TotalQueries < 1000 {
		t.Fatalf("too few queries: %d", r.TotalQueries)
	}
	if r.HitRatio <= 0 || r.HitRatio > 1 {
		t.Fatalf("hit ratio = %v", r.HitRatio)
	}
	if r.BackgroundBps <= 0 {
		t.Fatal("no background traffic")
	}
	if r.RouteTTLExpiry != 0 {
		t.Fatalf("route TTL expiries on a stable ring: %d", r.RouteTTLExpiry)
	}
	if res.Stats.Joins == 0 {
		t.Fatal("nobody joined")
	}
	if res.Kind != KindFlower {
		t.Fatal("wrong kind")
	}
}

// TestScaledRunRecyclesQueryRecords: Query records are pooled, so a clean
// ScaledParams run makes only as many as were alive at once — fewer than 1 %
// of the queries it submits. The run ends with an audit pass, and every live
// directory's index must be self-consistent in it.
func TestScaledRunRecyclesQueryRecords(t *testing.T) {
	p := ScaledParams(1)
	p.AuditEvery = p.Duration
	res, err := RunFlower(p)
	if err != nil {
		t.Fatal(err)
	}
	if n, q := res.Stats.QueryRecords, res.Report.TotalQueries; n == 0 || 100*int64(n) >= q {
		t.Fatalf("%d query records made for %d queries, want fewer than 1 %%", n, q)
	}
	if res.AuditChecks == 0 {
		t.Fatal("no audit ran")
	}
	for _, v := range res.AuditViolations {
		if strings.HasPrefix(v, "dring ") {
			t.Errorf("directory index: %s", v)
		}
	}
}

func TestRunSquirrelSmoke(t *testing.T) {
	res, err := RunSquirrel(tinyParams(3))
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.TotalQueries < 1000 {
		t.Fatalf("too few queries: %d", r.TotalQueries)
	}
	if r.HitRatio <= 0 {
		t.Fatal("no hits")
	}
	// Squirrel routes everything through the DHT: lookups must be slower
	// than the intra-locality scale.
	if r.AvgLookupMs < 100 {
		t.Fatalf("squirrel lookup too fast: %v", r.AvgLookupMs)
	}
}

// TestRunSquirrelRefusesFlowerInputs: the fault plane, scheduled directory
// crashes and degradations, the auditor, the adaptive plane, standbys and
// the directory query policy act on Flower-CDN's directories and overlays,
// and Squirrel never revives a failed peer; a Squirrel run given one fails
// naming the field instead of running without it.
func TestRunSquirrelRefusesFlowerInputs(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Params)
	}{
		{"Faults", func(p *Params) { p.Faults = &simnet.FaultConfig{LossProb: 0.05} }},
		{"DirDegrades", func(p *Params) { p.DirDegrades = []DirDegrade{{End: simkernel.Minute, Factor: 4}} }},
		{"DirCrashes", func(p *Params) { p.DirCrashes = []DirCrash{{At: simkernel.Minute}} }},
		{"AuditEvery", func(p *Params) { p.AuditEvery = simkernel.Minute }},
		{"Adaptive", func(p *Params) { p.Adaptive = true }},
		{"StandbyFailover", func(p *Params) { p.StandbyFailover = true }},
		{"QueryPolicy", func(p *Params) { p.QueryPolicy = core.PolicyViewThenDirectory }},
		{"ChurnMeanDowntime", func(p *Params) { p.ChurnPerHour, p.ChurnMeanDowntime = 30, simkernel.Minute }},
	} {
		t.Run(c.field, func(t *testing.T) {
			p := tinyParams(3)
			c.set(&p)
			if _, err := RunSquirrel(p); err == nil || !strings.Contains(err.Error(), "Params."+c.field) {
				t.Fatalf("RunSquirrel with %s set: error %v, want one naming the field", c.field, err)
			}
		})
	}
}

// TestRunSquirrelMeasuresMemory: MeasureMemory fills BytesPerClient for the
// baseline as it does for Flower-CDN, and changes nothing else.
func TestRunSquirrelMeasuresMemory(t *testing.T) {
	p := tinyParams(3)
	p.Duration = 5 * simkernel.Minute
	plain, err := RunSquirrel(p)
	if err != nil {
		t.Fatal(err)
	}
	p.MeasureMemory = true
	measured, err := RunSquirrel(p)
	if err != nil {
		t.Fatal(err)
	}
	if plain.BytesPerClient != 0 || measured.BytesPerClient <= 0 {
		t.Fatalf("bytes per client %v unmeasured, %v measured", plain.BytesPerClient, measured.BytesPerClient)
	}
	if plain.Report.String() != measured.Report.String() {
		t.Fatal("measuring memory changed the run")
	}
}

func TestComparisonShape(t *testing.T) {
	// The paper's headline shape at reduced scale: Flower-CDN must beat
	// Squirrel clearly on lookup latency and transfer distance, while
	// Squirrel's hit ratio is at least Flower's.
	p := tinyParams(4)
	p.Duration = simkernel.Hour
	res, err := RunCampaign(comparisonPoints(p, Options{}), 2)
	if err != nil {
		t.Fatal(err)
	}
	h := ComputeHeadline(res[0], res[1])
	if h.LookupFactor < 2 {
		t.Fatalf("lookup improvement only %.2fx (flower %.0fms, squirrel %.0fms)",
			h.LookupFactor, h.FlowerLookupMs, h.SquirrelLookupMs)
	}
	if h.TransferFactor < 1.2 {
		t.Fatalf("transfer improvement only %.2fx", h.TransferFactor)
	}
	if h.SquirrelHit+1e-9 < h.FlowerHit-0.05 {
		t.Fatalf("hit ratios off: flower %.3f squirrel %.3f", h.FlowerHit, h.SquirrelHit)
	}
	if h.FlowerDistWithin100ms <= h.SquirrelDistWithin100ms {
		t.Fatalf("flower transfers should be closer: %.2f vs %.2f within 100 ms",
			h.FlowerDistWithin100ms, h.SquirrelDistWithin100ms)
	}
}

func TestChurnRun(t *testing.T) {
	res, err := RunCampaign(churnSweep.points(tinyParams(5), []float64{0, 60}), 2)
	if err != nil {
		t.Fatal(err)
	}
	calm, churned := res[0].Report, res[1].Report
	// Churn must not destroy the system: most queries still resolve.
	if calm.TotalQueries == 0 || churned.TotalQueries < 1000 {
		t.Fatalf("resolved %d queries without churn and %d under churn", calm.TotalQueries, churned.TotalQueries)
	}
	// Churn should not raise the hit ratio.
	if churned.HitRatio > calm.HitRatio+0.03 {
		t.Fatalf("churn improved hit ratio? %v vs %v", churned.HitRatio, calm.HitRatio)
	}
}

func TestChurnWithRejoin(t *testing.T) {
	p := tinyParams(13)
	p.Duration = simkernel.Hour
	p.ChurnPerHour = 120
	p.ChurnMeanDowntime = 5 * simkernel.Minute
	res, err := RunFlower(p)
	if err != nil {
		t.Fatal(err)
	}
	// With rejoin, the same client can join multiple times: total joins
	// should exceed the no-churn population's single joins eventually, or
	// at least the run must stay healthy.
	if res.Report.TotalQueries < 1000 {
		t.Fatalf("too few queries under churn+rejoin: %d", res.Report.TotalQueries)
	}
	if res.Report.HitRatio <= 0 {
		t.Fatal("no hits under churn+rejoin")
	}
	// Compare against permanent churn: rejoin should retain at least as
	// good a hit ratio.
	pPerm := p
	pPerm.ChurnMeanDowntime = 0
	perm, err := RunFlower(pPerm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.HitRatio+0.05 < perm.Report.HitRatio {
		t.Fatalf("rejoin churn markedly worse than permanent churn: %.3f vs %.3f",
			res.Report.HitRatio, perm.Report.HitRatio)
	}
}

func TestTable2Sweeps(t *testing.T) {
	p := tinyParams(6)
	p.Duration = 20 * simkernel.Minute
	res, err := RunCampaign(slices.Concat(gossipLenSweep.points(p, []int{2, 6}),
		gossipPeriodSweep.points(p, []simkernel.Time{2 * simkernel.Minute, 10 * simkernel.Minute}),
		viewSizeSweep.points(p, []int{4, 16})), 2)
	if err != nil {
		t.Fatal(err)
	}
	bps := func(i int) float64 { return res[i].Report.BackgroundBps }
	// More gossip per round ⇒ more background bandwidth.
	if bps(1) <= bps(0) {
		t.Fatalf("L_gossip sweep: bps %v then %v, want increasing", bps(0), bps(1))
	}
	// Longer period ⇒ less background bandwidth.
	if bps(3) >= bps(2) {
		t.Fatalf("T_gossip sweep: bps %v then %v, want decreasing", bps(2), bps(3))
	}
	// View size barely affects bandwidth (paper: unchanged), and larger
	// views do not hurt the hit ratio.
	if lo, hi := bps(4), bps(5); lo == 0 || hi/lo > 1.5 || lo/hi > 1.5 {
		t.Fatalf("V_gossip should not change bandwidth much: %v vs %v", lo, hi)
	}
	if small, large := res[4].Report.HitRatio, res[5].Report.HitRatio; small > large+0.05 {
		t.Fatalf("larger views should not hurt hit ratio: %v vs %v", small, large)
	}
}

func TestConditionalRoutingAblation(t *testing.T) {
	res, err := AblationConditionalRouting(7, 30, 6, 0.2, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedDirectories == 0 || res.Lookups != 400 {
		t.Fatalf("bad experiment setup: %+v", res)
	}
	// Algorithm 2 must dominate Algorithm 1 on same-website delivery and
	// be (near-)perfect.
	if res.SameWebsiteAlg2 < res.SameWebsiteAlg1 {
		t.Fatalf("conditional routing worse than standard: %+v", res)
	}
	if res.SameWebsiteAlg2 < 0.99 {
		t.Fatalf("Algorithm 2 delivery rate %.3f, want ≥0.99", res.SameWebsiteAlg2)
	}
}

func TestTrafficBytesHelper(t *testing.T) {
	res, err := RunFlower(tinyParams(8))
	if err != nil {
		t.Fatal(err)
	}
	var gossipBytes int64
	for _, ts := range res.Report.Traffic {
		if ts.Category == simnet.CatGossip {
			gossipBytes = ts.Bytes
		}
	}
	if gossipBytes <= 0 {
		t.Fatal("gossip bytes missing")
	}
	if res.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestRunFlowerReplay(t *testing.T) {
	p := tinyParams(10)
	p.Duration = 10 * simkernel.Minute
	// A replayable trace: two clients of site 0, same object.
	qs, err := ParseWorkloadTrace(stringsReader("1000,0,0,0,1\n120000,0,0,1,1\n"), MakeSites(p.ActiveSites))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFlowerReplay(p, qs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.TotalQueries != 2 {
		t.Fatalf("replayed %d queries", res.Report.TotalQueries)
	}
	// Second request for the same object in the same locality: peer hit.
	if res.Report.BySource["peer"] != 1 {
		t.Fatalf("second request should hit the first downloader: %v", res.Report.BySource)
	}
	// Coordinate validation.
	bad := []workload.Query{{SiteIdx: 99}}
	if _, err := RunFlowerReplay(p, bad); err == nil {
		t.Fatal("bad site accepted")
	}
	bad = []workload.Query{{Locality: 99}}
	if _, err := RunFlowerReplay(p, bad); err == nil {
		t.Fatal("bad locality accepted")
	}
	bad = []workload.Query{{Member: 9999}}
	if _, err := RunFlowerReplay(p, bad); err == nil {
		t.Fatal("bad member accepted")
	}
}

// recordedStream drains the generator RunFlower(p) would pump.
func recordedStream(t *testing.T, p Params) []workload.Query {
	t.Helper()
	gen, err := newGenerator(p, p.BuildPools(), sharedInterner(p.Websites, p.ObjectsPerSite))
	if err != nil {
		t.Fatal(err)
	}
	var qs []workload.Query
	for src := gen.AsSource(); ; {
		q, ok := src.Next()
		if !ok || q.At > p.Duration {
			return qs
		}
		qs = append(qs, q)
	}
}

// Replay and generated runs share one scaffold: replaying the generator's
// own stream is the generated run, and a replay honours the fault plane.
func TestReplayMatchesGeneratedRun(t *testing.T) {
	p := tinyParams(12)
	want, err := RunFlower(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFlowerReplay(p, recordedStream(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Report, want.Report) || got.Stats != want.Stats || got.Events != want.Events {
		t.Fatalf("replay of the generated stream diverged from RunFlower:\nreplay: %d events, %+v, %v\n   run: %d events, %+v, %v",
			got.Events, got.Stats, got.Report, want.Events, want.Stats, want.Report)
	}
}

func TestReplayAppliesFaults(t *testing.T) {
	p := tinyParams(13)
	p.Faults = &simnet.FaultConfig{LossProb: 0.1}
	res, err := RunFlowerReplay(p, recordedStream(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultDrops == 0 {
		t.Fatalf("replay under 10%% loss dropped nothing (%d messages sent)", res.MessagesSent)
	}
}

func TestCompareSubstrates(t *testing.T) {
	res, err := CompareSubstrates(3, 25, 6, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes == 0 || res.Lookups != 400 {
		t.Fatalf("setup wrong: %+v", res)
	}
	if res.ChordExact < 0.999 || res.PastryExact < 0.999 {
		t.Fatalf("delivery must be exact on stable rings: %+v", res)
	}
	// Both must route in logarithmic hops.
	if res.ChordAvgHops <= 0 || res.PastryAvgHops <= 0 || res.ChordAvgHops > 8 || res.PastryAvgHops > 8 {
		t.Fatalf("hop counts too high: %+v", res)
	}
}

func TestAblationScaleUpAdmitsOverflow(t *testing.T) {
	p := tinyParams(11)
	p.Duration = 20 * simkernel.Minute
	p.MaxOverlaySize = 4
	p.ClientsPerSite = 24
	res, err := RunCampaign(scaleUpSweep.points(p, []uint{0, 1}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Stats.Joins <= res[0].Stats.Joins {
		t.Fatalf("scale-up should admit more clients: %d vs %d", res[1].Stats.Joins, res[0].Stats.Joins)
	}
}

// TestTimeoutAtReleasedIndex: a crashed directory gives its index back at
// the crash, yet a redirect or sibling timeout it armed before the crash
// still fires at it. The storm at seed 14 (the only one of
// seeds 1–40) reaches such a timeout, whose handler dereferenced the
// released index and panicked.
func TestTimeoutAtReleasedIndex(t *testing.T) {
	if _, err := RunFlower(DirCrashStormParams(14)); err != nil {
		t.Fatal(err)
	}
}

// TestHardenedFollowsHarnessRule: the system a point builds is hardened
// exactly when the point's fault plane is enabled or its gray-failure
// response armed — the rule the harness used to write into the core config —
// for every Flower point of every registry experiment at -scale small and
// for every preset. Populations are shrunk: the rule reads no size.
func TestHardenedFollowsHarnessRule(t *testing.T) {
	var points []Point
	o := Options{Churn: true}
	for _, e := range Experiments() {
		if e.Points != nil {
			points = append(points, e.Points(o.preset(ScaledParams(1)), o)...)
		}
	}
	for _, p := range []Params{DefaultParams(1), ScaledParams(1), Massive100kParams(1), ShrunkMassiveParams(1),
		WithMassiveChurn(ShrunkMassiveParams(1)), FaultStormParams(1), DirCrashStormParams(1), GrayStormParams(1),
		DirStressParams(1), PopulationParams(1, 1000)} {
		adaptive := p
		adaptive.Adaptive = true
		points = append(points, Point{Label: "preset", Params: p}, Point{Label: "preset+adaptive", Params: adaptive})
	}
	built, hardened := 0, 0
	for _, pt := range points {
		if pt.Kind == KindSquirrel {
			continue
		}
		built++
		p := pt.Params
		p.ClientsPerSite, p.TopoNodes = min(p.ClientsPerSite, 60), min(p.TopoNodes, 1500)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", pt.Label, err)
		}
		pools := p.BuildPools()
		k := simkernel.New(p.Seed)
		topo, err := topology.Generate(p.TopologyConfig(pools))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.New(p.CoreConfig(pools), core.Deps{Kernel: k, Topo: topo, Metrics: metrics.New(p.metricsConfig())})
		if err != nil {
			t.Fatal(err)
		}
		applyFaultPlane(k, sys, p)
		want := p.Faults.Enabled() || p.Adaptive
		if sys.Hardened() != want {
			t.Errorf("%s (seed %d): Hardened() = %v, Faults.Enabled() || Adaptive = %v", pt.Label, p.Seed, sys.Hardened(), want)
		}
		if want {
			hardened++
		}
	}
	if hardened == 0 || hardened == built {
		t.Fatalf("%d of %d points hardened: the rule was not exercised both ways", hardened, built)
	}
}
