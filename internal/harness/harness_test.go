package harness

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"flowercdn/internal/core"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/squirrel"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

// fastParams is even smaller than ScaledParams, for unit-test speed.
func fastParams(seed int64) Params {
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
	p := fastParams(1)
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
	res, err := RunFlower(fastParams(2))
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
	res, err := RunSquirrel(fastParams(3))
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
// crashes and degradations and the auditor act on Flower-CDN's directories
// and overlays; a Squirrel run given one fails naming the field instead of
// running without it.
func TestRunSquirrelRefusesFlowerInputs(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Params)
	}{
		{"Faults", func(p *Params) { p.Faults = &simnet.FaultConfig{LossProb: 0.05} }},
		{"DirDegrades", func(p *Params) { p.DirDegrades = []DirDegrade{{End: simkernel.Minute, Factor: 4}} }},
		{"DirCrashes", func(p *Params) { p.DirCrashes = []DirCrash{{At: simkernel.Minute}} }},
		{"AuditEvery", func(p *Params) { p.AuditEvery = simkernel.Minute }},
	} {
		t.Run(c.field, func(t *testing.T) {
			p := fastParams(3)
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
	p := fastParams(3)
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
	p := fastParams(4)
	p.Duration = simkernel.Hour
	flower, sq, err := Comparison(p)
	if err != nil {
		t.Fatal(err)
	}
	h := ComputeHeadline(flower, sq)
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
}

func TestChurnRun(t *testing.T) {
	p := fastParams(5)
	p.ChurnPerHour = 60
	p.ChurnIncludesDirs = true
	res, err := RunFlower(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.TotalQueries == 0 {
		t.Fatal("no queries under churn")
	}
	// Churn must not destroy the system: most queries still resolve.
	resolved := res.Report.TotalQueries
	if resolved < 1000 {
		t.Fatalf("resolved only %d queries under churn", resolved)
	}
}

func TestChurnWithRejoin(t *testing.T) {
	p := fastParams(13)
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
	p := fastParams(6)
	p.Duration = 20 * simkernel.Minute
	rows, err := Table2a(p, []int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More gossip per round ⇒ more background bandwidth.
	if rows[1].Report.BackgroundBps <= rows[0].Report.BackgroundBps {
		t.Fatalf("L_gossip sweep: bps %v then %v, want increasing",
			rows[0].Report.BackgroundBps, rows[1].Report.BackgroundBps)
	}
	rowsB, err := Table2b(p, []simkernel.Time{2 * simkernel.Minute, 10 * simkernel.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Longer period ⇒ less background bandwidth.
	if rowsB[1].Report.BackgroundBps >= rowsB[0].Report.BackgroundBps {
		t.Fatalf("T_gossip sweep: bps %v then %v, want decreasing",
			rowsB[0].Report.BackgroundBps, rowsB[1].Report.BackgroundBps)
	}
	rowsC, err := Table2c(p, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	// View size barely affects bandwidth (paper: unchanged).
	lo, hi := rowsC[0].Report.BackgroundBps, rowsC[1].Report.BackgroundBps
	if lo == 0 || hi/lo > 1.5 || lo/hi > 1.5 {
		t.Fatalf("V_gossip should not change bandwidth much: %v vs %v", lo, hi)
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
	res, err := RunFlower(fastParams(8))
	if err != nil {
		t.Fatal(err)
	}
	if TrafficBytes(res.Report, 0) <= 0 { // CatGossip
		t.Fatal("gossip bytes missing")
	}
	if res.Describe() == "" {
		t.Fatal("empty description")
	}
	_ = metrics.Report{}
}

func TestRunFlowerReplay(t *testing.T) {
	p := fastParams(10)
	p.Duration = 10 * simkernel.Minute
	sites := model.MakeSites(p.Websites)[:p.ActiveSites]
	qs := []workload.Query{
		{At: simkernel.Second, SiteIdx: 0, Site: sites[0], Locality: 0, Member: 0,
			Object: model.ObjectID{Site: sites[0], Num: 1}},
		{At: 2 * simkernel.Minute, SiteIdx: 0, Site: sites[0], Locality: 0, Member: 1,
			Object: model.ObjectID{Site: sites[0], Num: 1}},
	}
	res, err := RunFlowerReplay(p, qs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.TotalQueries != 2 {
		t.Fatalf("replayed %d queries", res.Report.TotalQueries)
	}
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
	p := fastParams(12)
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
	p := fastParams(13)
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
	if res.ChordAvgHops > 8 || res.PastryAvgHops > 8 {
		t.Fatalf("hop counts too high: %+v", res)
	}
}

func TestAblationScaleUpAdmitsOverflow(t *testing.T) {
	p := fastParams(11)
	p.Duration = 20 * simkernel.Minute
	p.MaxOverlaySize = 4
	p.ClientsPerSite = 24
	rows, err := AblationScaleUp(p, []uint{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Result.Stats.Joins <= rows[0].Result.Stats.Joins {
		t.Fatalf("scale-up should admit more clients: %d vs %d",
			rows[1].Result.Stats.Joins, rows[0].Result.Stats.Joins)
	}
}

func TestActiveReplicationHarness(t *testing.T) {
	p := fastParams(12)
	p.Duration = 20 * simkernel.Minute
	rows, err := AblationActiveReplication(p, []int{0, 8})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Result.Stats.Prefetches != 0 {
		t.Fatal("off-row prefetched")
	}
	if rows[1].Result.Stats.Prefetches == 0 {
		t.Fatal("on-row did not prefetch")
	}
}

// TestTimeoutAtReleasedIndex: a crashed directory whose position is taken
// over gives its index back, yet a redirect or sibling timeout it armed
// before the crash still fires at it. The storm at seed 14 (the only one of
// seeds 1–40) reaches such a timeout, whose handler dereferenced the
// released index and panicked.
func TestTimeoutAtReleasedIndex(t *testing.T) {
	if _, err := RunFlower(DirCrashStormParams(14)); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidation(t *testing.T) {
	p := fastParams(9)
	p.Duration = 0
	if _, err := RunFlower(p); err == nil {
		t.Fatal("zero duration accepted")
	}
	p = fastParams(9)
	p.QueryRate = 0
	if _, err := RunSquirrel(p); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// TestParamsValidate: every input BuildPools would mishandle is rejected up
// front, through the same door a run takes. At the parent commit the
// wrong-length weights panicked in BuildPools (index out of range) and the
// zero-sum weights divided by zero and ran one-client pools with a nil error.
// A directory crash or degrade that cannot act (no such position, a crash
// outside the run, an empty window, a factor ≤ 1) used to be skipped without
// a word, measuring a run without it. A NaN or infinite push threshold ran
// with no member ever pushing, and a negative mean downtime ran its churn as
// permanent failures. A content peer's round runs both periodic halves on
// one ticker, so the longer period must be a whole multiple of the shorter.
func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Params)
		ok   bool
	}{
		{"scaled preset", func(*Params) {}, true},
		{"explicit weights", func(p *Params) { p.LocalityWeights = []float64{3, 2, 1} }, true},
		{"a locality weighted zero", func(p *Params) { p.LocalityWeights = []float64{1, 0, 1} }, true},
		{"zero duration", func(p *Params) { p.Duration = 0 }, false},
		{"zero query rate", func(p *Params) { p.QueryRate = 0 }, false},
		{"more active sites than websites", func(p *Params) { p.ActiveSites = p.Websites + 1 }, false},
		{"no clients", func(p *Params) { p.ClientsPerSite = 0 }, false},
		{"no localities", func(p *Params) { p.Localities = 0 }, false},
		{"fewer weights than localities", func(p *Params) { p.LocalityWeights = []float64{1, 0} }, false},
		{"more weights than localities", func(p *Params) { p.LocalityWeights = []float64{1, 1, 1, 1} }, false},
		{"all-zero weights", func(p *Params) { p.LocalityWeights = []float64{0, 0, 0} }, false},
		{"a negative weight", func(p *Params) { p.LocalityWeights = []float64{2, -1, 1} }, false},
		{"a NaN weight", func(p *Params) { p.LocalityWeights = []float64{1, math.NaN(), 1} }, false},
		{"a directory crash", func(p *Params) { p.DirCrashes = []DirCrash{{SiteIdx: 1, Locality: 2, At: simkernel.Minute}} }, true},
		{"a crash of site ActiveSites", func(p *Params) { p.DirCrashes = []DirCrash{{SiteIdx: p.ActiveSites}} }, false},
		{"a crash of a negative site", func(p *Params) { p.DirCrashes = []DirCrash{{SiteIdx: -1}} }, false},
		{"a crash in locality Localities", func(p *Params) { p.DirCrashes = []DirCrash{{Locality: p.Localities}} }, false},
		{"a crash in a negative locality", func(p *Params) { p.DirCrashes = []DirCrash{{Locality: -1}} }, false},
		{"a crash at the end of the run", func(p *Params) { p.DirCrashes = []DirCrash{{At: p.Duration}} }, false},
		{"a crash before the run", func(p *Params) { p.DirCrashes = []DirCrash{{At: -1}} }, false},
		{"a directory degrade", func(p *Params) {
			p.DirDegrades = []DirDegrade{{SiteIdx: 1, Locality: 2, Start: simkernel.Minute, End: 5 * simkernel.Minute, Factor: 1.5}}
		}, true},
		{"a degrade of site ActiveSites", func(p *Params) { p.DirDegrades = []DirDegrade{{SiteIdx: p.ActiveSites, End: 1, Factor: 2}} }, false},
		{"a degrade in a negative locality", func(p *Params) { p.DirDegrades = []DirDegrade{{Locality: -1, End: 1, Factor: 2}} }, false},
		{"a degrade in locality Localities", func(p *Params) { p.DirDegrades = []DirDegrade{{Locality: p.Localities, End: 1, Factor: 2}} }, false},
		{"a degrade ending at its start", func(p *Params) { p.DirDegrades = []DirDegrade{{Start: 5, End: 5, Factor: 2}} }, false},
		{"a degrade ending before its start", func(p *Params) { p.DirDegrades = []DirDegrade{{Start: 5, End: 4, Factor: 2}} }, false},
		{"a degrade by factor 1", func(p *Params) { p.DirDegrades = []DirDegrade{{End: 1, Factor: 1}} }, false},
		{"a degrade by a NaN factor", func(p *Params) { p.DirDegrades = []DirDegrade{{End: 1, Factor: math.NaN()}} }, false},
		{"a NaN query rate", func(p *Params) { p.QueryRate = math.NaN() }, false},
		{"an infinite query rate", func(p *Params) { p.QueryRate = math.Inf(1) }, false},
		{"no objects per site", func(p *Params) { p.ObjectsPerSite = 0 }, false},
		{"churn", func(p *Params) { p.ChurnPerHour = 30 }, true},
		{"a negative churn rate", func(p *Params) { p.ChurnPerHour = -1 }, false},
		{"a NaN churn rate", func(p *Params) { p.ChurnPerHour = math.NaN() }, false},
		{"an infinite churn rate", func(p *Params) { p.ChurnPerHour = math.Inf(1) }, false},
		{"churn with rejoins", func(p *Params) { p.ChurnPerHour, p.ChurnMeanDowntime = 30, simkernel.Minute }, true},
		{"a negative mean downtime", func(p *Params) { p.ChurnPerHour, p.ChurnMeanDowntime = 30, -simkernel.Minute }, false},
		{"a push threshold of 0.9", func(p *Params) { p.PushThreshold = 0.9 }, true},
		{"a NaN push threshold", func(p *Params) { p.PushThreshold = math.NaN() }, false},
		{"an infinite push threshold", func(p *Params) { p.PushThreshold = math.Inf(1) }, false},
		{"a negative infinite push threshold", func(p *Params) { p.PushThreshold = math.Inf(-1) }, false},
		{"periods 5m/5m", func(p *Params) { p.TGossip, p.TKeepalive = 5*simkernel.Minute, 5*simkernel.Minute }, true},
		{"periods 5m/1m", func(p *Params) { p.TGossip, p.TKeepalive = 5*simkernel.Minute, simkernel.Minute }, true},
		{"periods 30s/1h", func(p *Params) { p.TGossip, p.TKeepalive = 30*simkernel.Second, simkernel.Hour }, true},
		{"periods 3m/2m, which do not nest", func(p *Params) { p.TGossip, p.TKeepalive = 3*simkernel.Minute, 2*simkernel.Minute }, false},
		{"periods 5s/1m, shorter than the failure-detection timeout", func(p *Params) { p.TGossip, p.TKeepalive = 5*simkernel.Second, simkernel.Minute }, false},
		{"periods 10s/1m", func(p *Params) { p.TGossip, p.TKeepalive = 10*simkernel.Second, simkernel.Minute }, true},
		{"zero keepalive period", func(p *Params) { p.TKeepalive = 0 }, true},
		{"a negative keepalive period", func(p *Params) { p.TKeepalive = -500 * simkernel.Millisecond }, false},
		{"zero dead age", func(p *Params) { p.TDead = 0 }, true},
		{"a negative dead age", func(p *Params) { p.TDead = -1 }, false},
		{"replication top-5", func(p *Params) { p.ReplicationTopK = 5 }, true},
		{"a negative replication top-K", func(p *Params) { p.ReplicationTopK = -1 }, false},
		{"instance bits 1", func(p *Params) { p.InstanceBits = 1 }, true},
		{"instance bits 40, beyond the key", func(p *Params) { p.InstanceBits = 40 }, false},
		{"instance bits 28, no room for a website id", func(p *Params) { p.InstanceBits = 28 }, false},
		{"instance bits 26, 12 websites in 2 id bits", func(p *Params) { p.Websites, p.InstanceBits = 12, 26 }, false},
		{"the fault storm", func(p *Params) { p.Faults = FaultStormParams(9).Faults }, true},
		{"the gray storm", func(p *Params) { p.Faults = GrayStormParams(9).Faults }, true},
		{"a NaN loss probability", func(p *Params) { p.Faults = &simnet.FaultConfig{LossProb: math.NaN()} }, false},
		{"a negative loss probability", func(p *Params) { p.Faults = &simnet.FaultConfig{LossProb: -0.5} }, false},
		{"a loss probability of 2", func(p *Params) { p.Faults = &simnet.FaultConfig{LossProb: 2} }, false},
		{"a negative jitter", func(p *Params) { p.Faults = &simnet.FaultConfig{JitterProb: 0.1, JitterMaxMs: -500} }, false},
		{"a negative spike", func(p *Params) { p.Faults = &simnet.FaultConfig{SpikeProb: 0.1, SpikeMs: -500} }, false},
		{"an infinite spike", func(p *Params) { p.Faults = &simnet.FaultConfig{SpikeProb: 0.1, SpikeMs: math.Inf(1)} }, false},
		{"an inverted partition window", func(p *Params) {
			p.Faults = &simnet.FaultConfig{Partitions: []simnet.PartitionWindow{{Start: simkernel.Minute, End: simkernel.Second}}}
		}, false},
		{"a partition of locality 9", func(p *Params) {
			p.Faults = &simnet.FaultConfig{Partitions: []simnet.PartitionWindow{{Locality: 9, End: simkernel.Minute}}}
		}, false},
		{"one-way loss to locality 9", func(p *Params) {
			p.Faults = &simnet.FaultConfig{AsymLoss: []simnet.AsymLossRule{{ToLoc: 9, Prob: 0.2}}}
		}, false},
		{"5 locality loss entries for 3 localities", func(p *Params) {
			p.Faults = &simnet.FaultConfig{LocalityLoss: []float64{0.1, 0.1, 0.1, 0.1, 0.1}}
		}, false},
		{"a flap of period 0", func(p *Params) {
			p.Faults = &simnet.FaultConfig{Flap: []simnet.FlapWindow{{End: simkernel.Minute, DownFor: simkernel.Second}}}
		}, false},
		{"a flap down for its whole period", func(p *Params) {
			p.Faults = &simnet.FaultConfig{Flap: []simnet.FlapWindow{{End: simkernel.Minute, Period: 10 * simkernel.Second, DownFor: 10 * simkernel.Second}}}
		}, false},
		{"a node degrade by factor 1", func(p *Params) {
			p.Faults = &simnet.FaultConfig{NodeDegrade: []simnet.DegradeWindow{{End: simkernel.Minute, Factor: 1}}}
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := fastParams(9)
			p.Duration = 2 * simkernel.Minute
			c.edit(&p)
			// Under a deadline, so a value that hangs or panics the run fails
			// its row rather than the whole test binary.
			done := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("panic: %v", r)
					}
				}()
				if err := p.Validate(); (err == nil) != c.ok {
					done <- fmt.Errorf("Validate() = %v, want ok=%v", err, c.ok)
					return
				}
				// RunFlower must agree with Validate: no panic, no silent success.
				if _, err := RunFlower(p); (err == nil) != c.ok {
					done <- fmt.Errorf("RunFlower() error = %v, want ok=%v", err, c.ok)
					return
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Validate and RunFlower did not return within 30 s")
			}
		})
	}
}

// TestSettableValues pins how many independently settable values the
// configuration surface has. Every field is a value tests and benchmarks
// must cover: a new knob has to raise a number here on purpose (and a value
// that only ever holds one setting belongs in a constant, which lowers it).
func TestSettableValues(t *testing.T) {
	for _, c := range []struct {
		name   string
		config any
		fields int
	}{
		{"harness.Params", Params{}, 36},
		{"core.Config", core.Config{}, 18},
		{"squirrel.Config", squirrel.Config{}, 7},
		{"overlay.Config", overlay.Config{}, 4},
		{"metrics.Config", metrics.Config{}, 6},
		{"harness.Result", Result{}, 18},
	} {
		if got := reflect.TypeOf(c.config).NumField(); got != c.fields {
			t.Errorf("%s has %d fields, pinned at %d", c.name, got, c.fields)
		}
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
