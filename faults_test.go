package flowercdn

import (
	"fmt"
	"strings"
	"testing"
)

// formatFaultSummary renders the fault-plane observables of a run — message
// accounting, protocol hardening counters, auditor tally and per-locality
// recovery times — for golden and invariance comparisons. It is additive:
// formatReport/formatStats stay byte-identical for clean runs.
func formatFaultSummary(sb *strings.Builder, res Result) {
	fmt.Fprintf(sb, "faults sent=%d dropped=%d fault_drops=%d retries=%d dir_fallbacks=%d origin_fallbacks=%d\n",
		res.MessagesSent, res.MessagesDropped, res.FaultDrops,
		res.Report.Retries, res.Report.DirFallbacks, res.Report.OriginFallbacks)
	fmt.Fprintf(sb, "audit checks=%d violations=%d\n", res.AuditChecks, len(res.AuditViolations))
	for _, v := range res.AuditViolations {
		fmt.Fprintf(sb, "audit_violation %s\n", v)
	}
	for _, r := range res.Recovery {
		fmt.Fprintf(sb, "recovery loc=%d heal=%d recover_ms=%.0f\n", r.Locality, int64(r.HealAt), r.RecoverMs)
	}
}

// formatGraySummary renders the adaptive plane's observables — hedge and
// circuit-breaker accounting — for golden and invariance comparisons.
func formatGraySummary(sb *strings.Builder, res Result) {
	fmt.Fprintf(sb, "gray hedges=%d hedge_wins=%d breaker_trips=%d\n",
		res.Report.Hedges, res.Report.HedgeWins, res.Report.BreakerTrips)
}

// TestAdaptiveDisabledIdentical pins the gray plane's zero-cost-off
// property: with Adaptive left false, neither the presence of the new
// estimator/hedging/breaker code paths nor empty (installed-but-zero)
// gray fault schedules may perturb a faulted run. The fault storm with
// zero-length NodeDegrade/AsymLoss/Flap slices must produce a transcript
// byte-identical to the plain storm — the gray checks draw no RNG, stamp
// no timestamps and arm no extra timers unless actually configured.
func TestAdaptiveDisabledIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full faulted simulation")
	}
	render := func(p Params) string {
		res, err := RunFlower(p)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		formatReport(&sb, "gray-off", res.Report)
		formatStats(&sb, res)
		formatFaultSummary(&sb, res)
		formatGraySummary(&sb, res)
		return sb.String()
	}
	base := FaultStormParams(1)
	gray := FaultStormParams(1)
	fc := *gray.Faults
	fc.NodeDegrade = []DegradeWindow{}
	fc.AsymLoss = []AsymLossRule{}
	fc.Flap = []FlapWindow{}
	gray.Faults = &fc
	gray.Adaptive = false
	if a, b := render(gray), render(base); a != b {
		t.Fatalf("empty gray config (got; want: plain) changed behaviour at %s", firstDiff(a, b))
	}
}

// TestGrayStormAdaptiveWins pins the headline acceptance claim behind
// `-exp gray`: on the same seed, topology and fault schedule, the
// adaptive plane must beat the fixed timeout ladder by ≥2× on p99 lookup
// latency with a hit ratio no worse, zero auditor violations on both
// sides, and the hedge/breaker machinery actually engaged.
func TestGrayStormAdaptiveWins(t *testing.T) {
	if testing.Short() {
		t.Skip("two full gray-storm simulations")
	}
	rows, err := runRows(grayPoints(GrayStormParams(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	fixed, adaptive := rows[0].Report, rows[1].Report
	if rows[0].Label != "fixed" || rows[0].Params.Adaptive || rows[1].Label != "adaptive" || !rows[1].Params.Adaptive {
		t.Fatalf("sides mislabelled: %q (adaptive=%v), %q (adaptive=%v)",
			rows[0].Label, rows[0].Params.Adaptive, rows[1].Label, rows[1].Params.Adaptive)
	}
	fixedP99, adaptiveP99 := fixed.LookupPercentiles.P99, adaptive.LookupPercentiles.P99
	if adaptiveP99 <= 0 || fixedP99 < 2*adaptiveP99 {
		t.Fatalf("adaptive p99 not ≥2× better: fixed=%.0fms adaptive=%.0fms", fixedP99, adaptiveP99)
	}
	if adaptive.HitRatio < fixed.HitRatio {
		t.Fatalf("adaptive hit ratio regressed: fixed=%.4f adaptive=%.4f", fixed.HitRatio, adaptive.HitRatio)
	}
	if len(rows[0].AuditViolations) != 0 || len(rows[1].AuditViolations) != 0 {
		t.Fatalf("auditor violations: fixed=%d adaptive=%d",
			len(rows[0].AuditViolations), len(rows[1].AuditViolations))
	}
	if adaptive.Hedges == 0 || adaptive.HedgeWins == 0 || adaptive.BreakerTrips == 0 {
		t.Fatalf("adaptive machinery idle: hedges=%d wins=%d trips=%d",
			adaptive.Hedges, adaptive.HedgeWins, adaptive.BreakerTrips)
	}
	if fixed.Hedges != 0 || fixed.BreakerTrips != 0 {
		t.Fatalf("fixed side ran adaptive machinery: hedges=%d trips=%d", fixed.Hedges, fixed.BreakerTrips)
	}
}

// TestFaultsDisabledIdentical pins the fault plane's zero-cost-off
// property at the behaviour level: a run with Params.Faults nil and one
// with an installed-but-all-zero FaultConfig must produce byte-identical
// transcripts — the disabled plane draws no RNG, arms no timers and
// changes no protocol path.
func TestFaultsDisabledIdentical(t *testing.T) {
	render := func(p Params) string {
		res, err := RunFlower(p)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		formatReport(&sb, "fault-off", res.Report)
		formatStats(&sb, res)
		formatFaultSummary(&sb, res)
		return sb.String()
	}
	base := fixtureParams(1)
	off := fixtureParams(1)
	off.Faults = &FaultConfig{}
	if a, b := render(off), render(base); a != b {
		t.Fatalf("zero fault config (got; want: nil) changed behaviour at %s", firstDiff(a, b))
	}
}

// TestPartitionedLocalityTerminates is the satellite regression for bounded
// retry state: a locality partitioned for the whole run can never reach its
// origin servers or the D-ring, and every query from it must still
// terminate through the capped origin-retry chain instead of looping or
// accumulating unbounded per-query state. The auditor sweeps throughout:
// abandoned optimistic admissions and parked join retries must not read as
// corruption.
func TestPartitionedLocalityTerminates(t *testing.T) {
	if testing.Short() {
		t.Skip("full faulted simulation")
	}
	p := fixtureParams(11)
	p.Faults = &FaultConfig{Partitions: []PartitionWindow{
		{Locality: 0, Start: 0, End: p.Duration + Hour},
	}}
	p.AuditEvery = 5 * Minute
	res, err := RunFlower(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultDrops == 0 {
		t.Fatal("no messages dropped; the partition never engaged")
	}
	if res.Report.Retries == 0 || res.Report.OriginFallbacks == 0 {
		t.Fatalf("hardened fallback chain never ran: retries=%d origin_fallbacks=%d",
			res.Report.Retries, res.Report.OriginFallbacks)
	}
	if len(res.AuditViolations) != 0 {
		t.Fatalf("auditor found %d violations under a permanent partition:\n%s",
			len(res.AuditViolations), strings.Join(res.AuditViolations, "\n"))
	}
	if res.AuditChecks == 0 {
		t.Fatal("auditor never ran")
	}
	// The partition never heals inside the run, so no recovery may be
	// reported for locality 0.
	for _, r := range res.Recovery {
		if r.Locality == 0 && r.RecoverMs >= 0 {
			t.Fatalf("recovery reported for a never-healed partition: %+v", r)
		}
	}
	// Sanity: the rest of the system kept working.
	if res.Report.HitRatio <= 0 {
		t.Fatal("whole system starved; partition should only wound one locality")
	}
}

// TestFaultRecoveryObserved pins the cut→heal→re-converge loop end to end:
// the fault-storm preset partitions two localities during bootstrap, and
// after each heal the harness must report a finite recovery time (the first
// directory-mediated P2P hit proves the locality's directory plane works
// again), with a violation-free audit trail.
func TestFaultRecoveryObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("full faulted simulation")
	}
	res, err := RunFlower(FaultStormParams(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recovery) != 2 {
		t.Fatalf("recovery rows = %d, want one per partitioned locality", len(res.Recovery))
	}
	for _, r := range res.Recovery {
		if r.RecoverMs < 0 {
			t.Fatalf("locality %d never recovered after heal at %d", r.Locality, int64(r.HealAt))
		}
	}
	if len(res.AuditViolations) != 0 {
		t.Fatalf("auditor found violations in the fault storm:\n%s", strings.Join(res.AuditViolations, "\n"))
	}
	if res.FaultDrops == 0 || res.Report.Retries == 0 {
		t.Fatalf("storm did not engage: drops=%d retries=%d", res.FaultDrops, res.Report.Retries)
	}
}
