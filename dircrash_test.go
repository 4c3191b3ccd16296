package flowercdn

import (
	"fmt"
	"strings"
	"testing"
)

// formatStandbySummary renders the warm-failover observables of a run —
// designation, snapshot-sync and promotion counters — for golden and
// invariance comparisons. Additive, like
// formatFaultSummary: all-zero for runs that never arm StandbyFailover.
func formatStandbySummary(sb *strings.Builder, res Result) {
	fmt.Fprintf(sb, "standby assigns=%d syncs=%d promotions=%d\n",
		res.Stats.StandbyAssigns, res.Stats.StandbySyncs, res.Stats.StandbyPromotions)
}

// renderDirCrash is the full transcript of a crash-storm run: base report,
// protocol counters, fault plane and standby observables.
func renderDirCrash(t *testing.T, p Params) string {
	t.Helper()
	res, err := RunFlower(p)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	formatReport(&sb, "dircrash", res.Report)
	formatStats(&sb, res)
	formatFaultSummary(&sb, res)
	formatStandbySummary(&sb, res)
	return sb.String()
}

// TestStandbyDisabledIdentical pins the standby subsystem's
// zero-cost-off property at the behaviour level: the crash-storm preset
// with StandbyFailover and the crash schedule stripped must
// produce a byte-identical transcript to the same scenario assembled
// without the feature ever existing — the disabled subsystem draws no
// RNG, arms no timers, sends no messages and changes no protocol path.
func TestStandbyDisabledIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full faulted simulation")
	}
	stripped := DirCrashStormParams(1)
	stripped.StandbyFailover = false
	stripped.DirCrashes = nil

	bare := ScaledParams(1)
	bare.Duration = stripped.Duration
	bare.BucketWidth = stripped.BucketWidth
	bare.Faults = stripped.Faults
	bare.AuditEvery = stripped.AuditEvery
	bare.QueryPolicy = stripped.QueryPolicy

	if a, b := renderDirCrash(t, stripped), renderDirCrash(t, bare); a != b {
		t.Fatalf("disabled standby (got: stripped, want: bare) changed behaviour at %s", firstDiff(a, b))
	}
}

// TestDirCrashWarmRecovery pins the tentpole claim end to end: under the
// crash-storm preset, warm-standby promotion must restore each crashed
// locality's directory plane at least 5x faster (mean crash→first
// local-directory-mediated-hit) than the cold §5.2 rebuild, with real
// promotions, a fresh replica and a violation-free audit trail on both
// sides.
func TestDirCrashWarmRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("two full faulted simulations")
	}
	warm := DirCrashStormParams(1)
	cold := warm
	cold.StandbyFailover = false

	cres, err := RunFlower(cold)
	if err != nil {
		t.Fatal(err)
	}
	wres, err := RunFlower(warm)
	if err != nil {
		t.Fatal(err)
	}

	if cres.Stats.StandbyPromotions != 0 || cres.Stats.StandbyAssigns != 0 {
		t.Fatalf("cold baseline ran standby machinery: promotions=%d assigns=%d",
			cres.Stats.StandbyPromotions, cres.Stats.StandbyAssigns)
	}
	if wres.Stats.StandbyPromotions == 0 {
		t.Fatal("warm run promoted no standby")
	}
	if wres.Stats.StandbyAssigns == 0 || wres.Stats.StandbySyncs == 0 {
		t.Fatalf("replica maintenance never ran: assigns=%d syncs=%d",
			wres.Stats.StandbyAssigns, wres.Stats.StandbySyncs)
	}
	for _, res := range []Result{cres, wres} {
		if len(res.AuditViolations) != 0 {
			t.Fatalf("auditor found violations:\n%s", strings.Join(res.AuditViolations, "\n"))
		}
	}

	byLoc := func(rows []LocalityRecovery) map[int]float64 {
		m := make(map[int]float64)
		for _, r := range rows {
			m[r.Locality] = r.RecoverMs
		}
		return m
	}
	coldMs, warmMs := byLoc(cres.Recovery), byLoc(wres.Recovery)
	var coldSum, warmSum float64
	for loc, w := range warmMs {
		c, ok := coldMs[loc]
		if !ok {
			t.Fatalf("locality %d has warm but no cold recovery row", loc)
		}
		if w < 0 {
			t.Fatalf("locality %d never recovered in the warm run", loc)
		}
		if c >= 0 && w > c {
			t.Fatalf("locality %d recovered slower warm (%.0f ms) than cold (%.0f ms)", loc, w, c)
		}
		if c < 0 {
			// Cold never recovered inside the run: score it at the full
			// remaining duration, the most conservative finite penalty.
			c = float64((warm.Duration - 120*Second) / Millisecond)
		}
		coldSum += c
		warmSum += w
	}
	if len(warmMs) == 0 {
		t.Fatal("no crash recovery rows at all")
	}
	if warmSum <= 0 {
		t.Fatalf("degenerate warm recovery total %.0f", warmSum)
	}
	if ratio := coldSum / warmSum; ratio < 5 {
		t.Fatalf("warm promotion only %.1fx faster than cold rebuild (want >=5x): cold=%v warm=%v",
			ratio, coldMs, warmMs)
	}
}
