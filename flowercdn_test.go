package flowercdn

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// small aliases keeping the test bodies readable
type bytesBuffer = bytes.Buffer

func stringsReader(s string) *strings.Reader { return strings.NewReader(s) }

// The public-API tests exercise the package end to end at small scale and
// assert the paper's qualitative claims hold; the full-scale numbers come
// from `flowersim -exp <table|figure> -scale paper`.

func fastParams(seed int64) Params {
	p := ScaledParams(seed)
	p.Duration = 30 * Minute
	p.QueryRate = 3
	p.TGossip = 3 * Minute
	p.TKeepalive = 3 * Minute
	return p
}

func TestPublicQuickstart(t *testing.T) {
	res, err := RunFlower(fastParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindFlower {
		t.Fatalf("kind = %v", res.Kind)
	}
	r := res.Report
	if r.TotalQueries == 0 || r.HitRatio <= 0 || r.BackgroundBps <= 0 {
		t.Fatalf("degenerate report: %s", r.String())
	}
	if len(r.Series) == 0 || len(r.LatencyHist) == 0 || len(r.DistanceHist) == 0 {
		t.Fatal("report missing series/histograms")
	}
}

func TestPublicComparisonShape(t *testing.T) {
	res, err := RunCampaign(comparisonPoints(fastParams(2), Options{}), 2)
	if err != nil {
		t.Fatal(err)
	}
	h := ComputeHeadline(res[0], res[1])
	// The paper's qualitative claims, scale-independent:
	if h.LookupFactor <= 1.5 {
		t.Fatalf("flower should win lookups clearly, factor %.2f", h.LookupFactor)
	}
	if h.TransferFactor <= 1.0 {
		t.Fatalf("flower should win transfer distance, factor %.2f", h.TransferFactor)
	}
	if h.SquirrelHit < h.FlowerHit-0.05 {
		t.Fatalf("squirrel hit %.3f should be >= flower %.3f", h.SquirrelHit, h.FlowerHit)
	}
	if h.FlowerWithin150ms <= 0 {
		t.Fatal("no flower lookup within 150 ms")
	}
	if h.FlowerDistWithin100ms <= h.SquirrelDistWithin100ms {
		t.Fatalf("flower transfers should be closer: %.2f vs %.2f",
			h.FlowerDistWithin100ms, h.SquirrelDistWithin100ms)
	}
}

func TestPublicTableSweeps(t *testing.T) {
	p := fastParams(3)
	p.Duration = 20 * Minute
	res, err := RunCampaign(slices.Concat(gossipLenSweep.points(p, []int{2, 8}),
		gossipPeriodSweep.points(p, []Time{2 * Minute, 10 * Minute}),
		viewSizeSweep.points(p, []int{4, 16})), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Report.BackgroundBps <= res[0].Report.BackgroundBps {
		t.Fatalf("L_gossip bandwidth not increasing: %v, %v",
			res[0].Report.BackgroundBps, res[1].Report.BackgroundBps)
	}
	if res[2].Report.BackgroundBps <= res[3].Report.BackgroundBps {
		t.Fatalf("T_gossip bandwidth not decreasing: %v, %v",
			res[2].Report.BackgroundBps, res[3].Report.BackgroundBps)
	}
	if res[4].Report.HitRatio > res[5].Report.HitRatio+0.05 {
		t.Fatalf("larger views should not hurt hit ratio: %v vs %v",
			res[4].Report.HitRatio, res[5].Report.HitRatio)
	}
}

func TestPublicFig5Series(t *testing.T) {
	res, err := RunFlower(fastParams(4))
	if err != nil {
		t.Fatal(err)
	}
	series := res.Report.Series
	if len(series) < 2 {
		t.Fatalf("series too short: %d", len(series))
	}
	// Hit ratio rises during warm-up (first window below last window).
	if series[0].HitRatio >= series[len(series)-1].CumHitRatio+0.2 {
		t.Fatalf("no warm-up visible: first=%v last-cum=%v",
			series[0].HitRatio, series[len(series)-1].CumHitRatio)
	}
}

func TestPublicAblations(t *testing.T) {
	p := fastParams(5)
	p.Duration = 15 * Minute
	res, err := RunCampaign(slices.Concat(queryPolicyPoints(p, Options{}),
		pushThresholdSweep.points(p, []float64{0.1, 0.7}), homeStorePoints(p, Options{})), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Directory fallback can only help the hit ratio.
	if viewOnly, viaDir := res[0], res[1]; viaDir.Report.HitRatio+0.02 < viewOnly.Report.HitRatio {
		t.Fatalf("directory fallback hurt hit ratio: %v vs %v",
			viaDir.Report.HitRatio, viewOnly.Report.HitRatio)
	}
	// §6.2: thresholds barely matter.
	if d := res[2].Report.HitRatio - res[3].Report.HitRatio; d > 0.15 || d < -0.15 {
		t.Fatalf("push threshold changed hit ratio too much: %v", d)
	}
	if dir, hs := res[4], res[5]; dir.Report.TotalQueries == 0 || hs.Report.TotalQueries == 0 {
		t.Fatal("home-store ablation produced empty runs")
	}
	cr, err := AblationConditionalRouting(5, 30, 6, 0.15, 300)
	if err != nil {
		t.Fatal(err)
	}
	if cr.SameWebsiteAlg2 < cr.SameWebsiteAlg1 {
		t.Fatalf("Algorithm 2 should dominate: %+v", cr)
	}
}

func TestPublicChurn(t *testing.T) {
	p := fastParams(6)
	p.Duration = 20 * Minute
	res, err := RunCampaign(churnSweep.points(p, []float64{0, 120}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Report.TotalQueries == 0 || res[1].Report.TotalQueries == 0 {
		t.Fatal("churn runs empty")
	}
	// Churn should not raise the hit ratio.
	if res[1].Report.HitRatio > res[0].Report.HitRatio+0.03 {
		t.Fatalf("churn improved hit ratio? %v vs %v", res[1].Report.HitRatio, res[0].Report.HitRatio)
	}
}

func TestPublicReplay(t *testing.T) {
	p := fastParams(10)
	p.Duration = 10 * Minute
	// Hand-craft a replayable trace: two clients of site 0, same object.
	src := "1000,0,0,0,3\n120000,0,0,1,3\n"
	qs, err := ParseWorkloadTrace(stringsReader(src), MakeSites(p.ActiveSites))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFlowerReplay(p, qs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.TotalQueries != 2 {
		t.Fatalf("replayed %d queries, want 2", res.Report.TotalQueries)
	}
	// Second request for the same object in the same locality: peer hit.
	if res.Report.BySource["peer"] != 1 {
		t.Fatalf("sources: %v", res.Report.BySource)
	}
	// Out-of-range member must be rejected.
	bad := []WorkloadQuery{{Member: 9999}}
	if _, err := RunFlowerReplay(p, bad); err == nil {
		t.Fatal("invalid replay accepted")
	}
}

func TestPublicTracedRun(t *testing.T) {
	p := fastParams(11)
	p.Duration = 10 * Minute
	res, buf, err := RunFlowerTraced(p, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.TotalQueries == 0 || buf == nil || buf.Len() == 0 {
		t.Fatal("traced run produced nothing")
	}
	if FormatTrace(buf.QueryTrace(1)) == "" {
		t.Fatal("query 1 trace empty")
	}
}

func TestPublicTraceRoundTrip(t *testing.T) {
	qs := []WorkloadQuery{
		{At: 5, SiteIdx: 0, Site: MakeSites(1)[0], Locality: 1, Member: 2},
	}
	qs[0].Object.Site = qs[0].Site
	qs[0].Object.Num = 9
	// The trace format carries no interned refs; parsed queries come back
	// explicitly un-interned and consumers re-intern from (SiteIdx, Num).
	qs[0].Ref = NoRef
	var buf bytesBuffer
	if err := WriteWorkloadTrace(&buf, qs); err != nil {
		t.Fatal(err)
	}
	back, err := ParseWorkloadTrace(&buf, MakeSites(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != qs[0] {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, qs)
	}
}

func TestPublicSubstrates(t *testing.T) {
	res, err := CompareSubstrates(1, 20, 6, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChordExact < 0.999 || res.PastryExact < 0.999 {
		t.Fatalf("both substrates must deliver exactly: %+v", res)
	}
	if res.ChordAvgHops <= 0 || res.PastryAvgHops <= 0 {
		t.Fatalf("hop counts missing: %+v", res)
	}
}

func TestPublicDeterminism(t *testing.T) {
	a, err := RunFlower(fastParams(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFlower(fastParams(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.String() != b.Report.String() {
		t.Fatalf("public API runs not reproducible:\n%s\n%s",
			a.Report.String(), b.Report.String())
	}
}
