package flowercdn

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"flowercdn/internal/metrics"
)

// The equivalence fixture locks the simulator's observable outputs — hit
// ratios, latency/distance distributions, traffic accounting, time series,
// protocol counters and trace transcripts — to a golden file, per seed.
// Performance refactors (dense object interning, zero-alloc paths) must
// keep every byte of this file unchanged: regenerate with
//
//	go test -run TestEquivalenceFixture -update-fixture .
//
// and inspect the diff; any change means behaviour drifted.
var updateFixture = flag.Bool("update-fixture", false, "rewrite testdata/equivalence.golden")

func fixtureParams(seed int64) Params {
	p := ScaledParams(seed)
	p.Duration = 30 * Minute
	p.BucketWidth = 10 * Minute
	return p
}

// churnFixtureParams is the churn + rejoin + view-then-directory scenario of
// the fixture.
func churnFixtureParams(seed int64) Params {
	p := fixtureParams(seed)
	p.ChurnPerHour = 120
	p.ChurnIncludesDirs = true
	p.ChurnMeanDowntime = 10 * Minute
	p.QueryPolicy = PolicyViewThenDirectory
	return p
}

// scaleUpFixtureParams is the §5.3 scale-up scenario of the fixture.
func scaleUpFixtureParams(seed int64) Params {
	p := fixtureParams(seed)
	p.MaxOverlaySize = 8
	p.ClientsPerSite = 60
	p.InstanceBits = 1
	return p
}

// firstDiff names the first line at which two transcripts part.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("length: got %d lines, want %d", len(gl), len(wl))
}

func formatReport(sb *strings.Builder, label string, r Report) {
	fmt.Fprintf(sb, "== %s ==\n", label)
	fmt.Fprintf(sb, "queries=%d hits=%d hit_ratio=%.6f\n", r.TotalQueries, r.Hits, r.HitRatio)
	fmt.Fprintf(sb, "avg_lookup_ms=%.4f avg_transfer_ms=%.4f p2p_lookup_ms=%.4f p2p_transfer_ms=%.4f\n",
		r.AvgLookupMs, r.AvgTransferMs, r.P2PAvgLookupMs, r.P2PAvgTransferMs)
	srcs := make([]string, 0, len(r.BySource))
	for s := range r.BySource {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	for _, s := range srcs {
		fmt.Fprintf(sb, "source %s count=%d avg_lookup=%.4f\n", s, r.BySource[s], r.AvgLookupBySource[s])
	}
	fmt.Fprintf(sb, "lookup_pct p50=%.2f p90=%.2f p95=%.2f p99=%.2f max=%.2f\n",
		r.LookupPercentiles.P50, r.LookupPercentiles.P90, r.LookupPercentiles.P95,
		r.LookupPercentiles.P99, r.LookupPercentiles.Max)
	fmt.Fprintf(sb, "transfer_pct p50=%.2f p90=%.2f p95=%.2f p99=%.2f max=%.2f\n",
		r.TransferPercentiles.P50, r.TransferPercentiles.P90, r.TransferPercentiles.P95,
		r.TransferPercentiles.P99, r.TransferPercentiles.Max)
	fmt.Fprintf(sb, "background_bps=%.6f peer_seconds=%.2f redirect_failures=%d ttl_expiry=%d\n",
		r.BackgroundBps, r.PeerSecondsTotal, r.RedirectFailures, r.RouteTTLExpiry)
	for _, ts := range r.Traffic {
		fmt.Fprintf(sb, "traffic %s bytes=%d msgs=%d\n", ts.Category, ts.Bytes, ts.Messages)
	}
	sb.WriteString("series:\n")
	sb.WriteString(r.SeriesCSV())
	sb.WriteString("latency_hist:\n")
	sb.WriteString(metrics.HistCSV(r.LatencyHist))
	sb.WriteString("distance_hist:\n")
	sb.WriteString(metrics.HistCSV(r.DistanceHist))
}

func formatStats(sb *strings.Builder, res Result) {
	fmt.Fprintf(sb, "stats joins=%d dir_replacements=%d dir_bootstraps=%d gossip_rejects=%d retried=%d\n",
		res.Stats.Joins, res.Stats.DirReplacements, res.Stats.DirBootstraps,
		res.Stats.GossipRejects, res.Stats.QueriesRetried)
}

// checkReportIdentities asserts what a report owes its own counters: every
// query is counted once by source, by latency bin, by distance bin (each
// Flower and Squirrel resolution records a distance ≥ 0) and by time bucket;
// the hits are the queries the origin did not serve; both percentile sets
// are ordered.
func checkReportIdentities(t *testing.T, label string, r Report) {
	t.Helper()
	var bySource, latency, distance, series int64
	for _, n := range r.BySource {
		bySource += n
	}
	for _, b := range r.LatencyHist {
		latency += b.Count
	}
	for _, b := range r.DistanceHist {
		distance += b.Count
	}
	for _, b := range r.Series {
		series += b.Queries
	}
	for _, sum := range []struct {
		name string
		n    int64
	}{{"Σ BySource", bySource}, {"Σ LatencyHist", latency}, {"Σ DistanceHist", distance}, {"Σ Series.Queries", series}} {
		if sum.n != r.TotalQueries {
			t.Errorf("%s: %s = %d, want TotalQueries = %d", label, sum.name, sum.n, r.TotalQueries)
		}
	}
	if want := r.TotalQueries - r.BySource["server"]; r.Hits != want {
		t.Errorf("%s: Hits = %d, want TotalQueries − server = %d", label, r.Hits, want)
	}
	for _, p := range []metrics.Percentiles{r.LookupPercentiles, r.TransferPercentiles} {
		if !(p.P50 <= p.P90 && p.P90 <= p.P95 && p.P95 <= p.P99 && p.P99 <= p.Max) {
			t.Errorf("%s: percentiles out of order: %+v", label, p)
		}
	}
}

// buildFixture runs every scenario and renders the canonical transcript.
func buildFixture(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	report := func(label string, r Report) {
		checkReportIdentities(t, label, r)
		formatReport(&sb, label, r)
	}

	for _, seed := range []int64{1, 2} {
		res, err := RunFlower(fixtureParams(seed))
		if err != nil {
			t.Fatal(err)
		}
		report(fmt.Sprintf("flower seed=%d", seed), res.Report)
		formatStats(&sb, res)
	}

	res, err := RunSquirrel(fixtureParams(1))
	if err != nil {
		t.Fatal(err)
	}
	report("squirrel seed=1", res.Report)

	hp := fixtureParams(2)
	hp.SquirrelHomeStore = true
	res, err = RunSquirrel(hp)
	if err != nil {
		t.Fatal(err)
	}
	report("squirrel home-store seed=2", res.Report)

	res, err = RunFlower(churnFixtureParams(3))
	if err != nil {
		t.Fatal(err)
	}
	report("flower churn seed=3", res.Report)
	formatStats(&sb, res)

	res, err = RunFlower(scaleUpFixtureParams(4))
	if err != nil {
		t.Fatal(err)
	}
	report("flower scale-up seed=4", res.Report)
	formatStats(&sb, res)

	tres, buf, err := RunFlowerTraced(fixtureParams(5), 300)
	if err != nil {
		t.Fatal(err)
	}
	report("flower traced seed=5", tres.Report)
	formatStats(&sb, tres)
	sb.WriteString("trace:\n")
	sb.WriteString(FormatTrace(buf.Events()))

	// Eighth scenario: the 100k-preset's shrunk variant — sparse gossip
	// views, compact object universe — so refactors of the scale code paths
	// are pinned exactly like the paper-scale ones.
	mres, err := RunFlower(ShrunkMassiveParams(6))
	if err != nil {
		t.Fatal(err)
	}
	report("flower shrunk-massive seed=6", mres.Report)
	formatStats(&sb, mres)

	// Ninth scenario: churn at scale — the shrunk massive preset under the
	// population-scaled failure injector (failures include directories,
	// rejoins after exponential downtime), pinning the §5 recovery paths
	// through the slab/sharded directory index.
	cmres, err := RunFlower(WithMassiveChurn(ShrunkMassiveParams(7)))
	if err != nil {
		t.Fatal(err)
	}
	report("flower shrunk-massive-churn seed=7", cmres.Report)
	formatStats(&sb, cmres)

	// Tenth scenario: the fault storm — deterministic loss, jitter and
	// mid-bootstrap partition windows under the hardened protocol, with the
	// invariant auditor sweeping every minute. Pins the fault plane's entire
	// observable surface: faulted metrics, drop accounting, retry/fallback
	// counters, audit tally and per-locality recovery times.
	fres, err := RunFlower(FaultStormParams(9))
	if err != nil {
		t.Fatal(err)
	}
	report("flower fault-storm seed=9", fres.Report)
	formatStats(&sb, fres)
	formatFaultSummary(&sb, fres)

	// Eleventh scenario: the directory crash storm with warm standbys armed.
	// Pins the whole failover surface — replica designation and delta
	// cadence, deterministic promotion, takeover announcements, shedding
	// and the crash→first-local-directory-hit recovery rows.
	dres, err := RunFlower(DirCrashStormParams(10))
	if err != nil {
		t.Fatal(err)
	}
	report("flower dircrash seed=10", dres.Report)
	formatStats(&sb, dres)
	formatFaultSummary(&sb, dres)
	formatStandbySummary(&sb, dres)

	// Twelfth scenario: the gray storm with the adaptive plane armed.
	// Pins the gray fault machinery (degraded directories, asymmetric loss,
	// flapping uplink) and the whole adaptive response surface — estimator-
	// driven deadlines, hedged lookups with win accounting, and the holder
	// circuit breaker — in one transcript.
	gp := GrayStormParams(11)
	gp.Adaptive = true
	gres, err := RunFlower(gp)
	if err != nil {
		t.Fatal(err)
	}
	report("flower gray-storm adaptive seed=11", gres.Report)
	formatStats(&sb, gres)
	formatFaultSummary(&sb, gres)
	formatGraySummary(&sb, gres)

	return sb.String()
}

func TestEquivalenceFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("fixture runs several full simulations")
	}
	got := buildFixture(t)
	path := filepath.Join("testdata", "equivalence.golden")
	if *updateFixture {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("fixture rewritten: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-fixture): %v", err)
	}
	if got != string(want) {
		t.Fatalf("fixture diverged at %s", firstDiff(got, string(want)))
	}
}
