package flowercdn

import (
	"strings"
	"testing"
)

// TestCampaignWorkerInvariance pins the parallelism the repo keeps: the
// same points through RunCampaign with one worker and with four must give
// equal transcripts (report, protocol counters, fault / gray / standby
// summaries) — on the churn, fault, standby and adaptive planes, not only
// on clean ScaledParams points. CI runs it under -race, where the workers'
// shared interner cache and any package-level state would show.
func TestCampaignWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eleven scenarios twice")
	}
	lossy := fixtureParams(9)
	lossy.Faults = &FaultConfig{LossProb: 0.08, JitterProb: 0.25, JitterMaxMs: 90, SpikeProb: 0.02, SpikeMs: 300}
	gray := GrayStormParams(15)
	gray.Adaptive = true
	points := []Point{
		{Label: "flower seed=1", Params: fixtureParams(1)},
		{Label: "flower seed=2", Params: fixtureParams(2)},
		{Label: "flower churn seed=3", Params: churnFixtureParams(3)},
		{Label: "flower scale-up seed=4", Params: scaleUpFixtureParams(4)},
		{Label: "flower seed=5", Params: fixtureParams(5)}, // the traced fixture's scenario
		{Label: "flower shrunk-massive seed=6", Params: ShrunkMassiveParams(6)},
		{Label: "flower shrunk-massive-churn seed=7", Params: WithMassiveChurn(ShrunkMassiveParams(7))},
		{Label: "flower loss+jitter seed=9", Params: lossy},
		{Label: "flower partition-storm seed=10", Params: FaultStormParams(10)},
		{Label: "flower dircrash seed=11", Params: DirCrashStormParams(11)},
		{Label: "flower gray-storm adaptive seed=15", Params: gray},
	}
	render := func(workers int) []string {
		results, err := RunCampaign(points, workers)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(results))
		for i, res := range results {
			var sb strings.Builder
			formatReport(&sb, points[i].Label, res.Report)
			formatStats(&sb, res)
			formatFaultSummary(&sb, res)
			formatGraySummary(&sb, res)
			formatStandbySummary(&sb, res)
			out[i] = sb.String()
		}
		return out
	}
	one, four := render(1), render(4)
	for i, pt := range points {
		t.Run(pt.Label, func(t *testing.T) {
			if one[i] != four[i] {
				t.Fatalf("4 workers (got) vs 1 (want) diverged at %s", firstDiff(four[i], one[i]))
			}
		})
	}
}
