package flowercdn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flowercdn/internal/simnet"
)

// The seed-spread equivalence gate: a change that moves the RNG stream
// cannot keep the goldens' bytes, but it can show that what the runs measure
// did not move beyond seed-to-seed spread. Both sides run N seeds; every
// quantity below is judged by a permutation test on the difference of means,
// and the sides are equivalent when no quantity's p falls below 0.01/k.
// This is how Pathan & Buyya check a model against simulation.

// spreadShuffles is the number of label shuffles behind each p-value.
const spreadShuffles = 5000

// spreadQuantity is one per-run number the gate compares.
type spreadQuantity struct {
	name string
	of   func(Result) float64
}

// spreadQuantities: the hit ratio and each P2P tier's served share (the
// origin's share is one minus the hit ratio), the lookup mean and p99, the
// transfer mean, redirect failures per thousand queries, background traffic
// per peer, messages per query of each category a query, a join or a
// gossip round spends, and, in runs with directory crashes or partitions,
// the localities' recovery.
var spreadQuantities = []spreadQuantity{
	{"hit_ratio", func(r Result) float64 { return r.Report.HitRatio }},
	servedShare("local"), servedShare("peer"), servedShare("remote-overlay"),
	{"lookup_ms_mean", func(r Result) float64 { return r.Report.AvgLookupMs }},
	{"lookup_ms_p99", func(r Result) float64 { return r.Report.LookupPercentiles.P99 }},
	{"transfer_ms_mean", func(r Result) float64 { return r.Report.AvgTransferMs }},
	{"redirect_fail_per_kq", func(r Result) float64 {
		return 1000 * perQuery(r, float64(r.Report.RedirectFailures))
	}},
	{"background_bps", func(r Result) float64 { return r.Report.BackgroundBps }},
	msgsPerQuery(simnet.CatGossip), msgsPerQuery(simnet.CatPush), msgsPerQuery(simnet.CatKeepalive),
	msgsPerQuery(simnet.CatQuery), msgsPerQuery(simnet.CatTransfer),
	{"recovery_ms_mean", func(r Result) float64 { ms, _ := recovery(r); return ms }},
	{"unrecovered", func(r Result) float64 { _, n := recovery(r); return float64(n) }},
}

// recovery returns the mean, over the localities of r that recovered, of the
// time from a directory crash or a partition heal to the first hit their own
// directory mediated, and the number that never saw one. A run without
// crashes or partitions reads 0, 0.
func recovery(r Result) (meanMs float64, unrecovered int) {
	n := 0
	for _, rec := range r.Recovery {
		if rec.RecoverMs < 0 {
			unrecovered++
			continue
		}
		meanMs += rec.RecoverMs
		n++
	}
	if n > 0 {
		meanMs /= float64(n)
	}
	return meanMs, unrecovered
}

func perQuery(r Result, v float64) float64 {
	if r.Report.TotalQueries == 0 {
		return 0
	}
	return v / float64(r.Report.TotalQueries)
}

func servedShare(tier string) spreadQuantity {
	return spreadQuantity{"share." + tier, func(r Result) float64 {
		return perQuery(r, float64(r.Report.BySource[tier]))
	}}
}

func msgsPerQuery(cat simnet.Category) spreadQuantity {
	return spreadQuantity{"msgs_per_q." + cat.String(), func(r Result) float64 {
		for _, ts := range r.Report.Traffic {
			if ts.Category == cat {
				return perQuery(r, float64(ts.Messages))
			}
		}
		return 0
	}}
}

// spreadRow is one quantity's verdict: each side's mean and sample standard
// deviation, the standardized effect (b − a over the pooled sd) and the
// permutation p-value.
type spreadRow struct {
	name           string
	meanA, sdA     float64
	meanB, sdB     float64
	effect, p      float64
	differentSides bool // p < the report's alpha
}

// spreadReport is the gate's verdict on one pair of sides.
type spreadReport struct {
	label string
	n     [2]int
	alpha float64
	rows  []spreadRow
}

// different names the quantities whose p fell below alpha.
func (r spreadReport) different() []string {
	var out []string
	for _, row := range r.rows {
		if row.differentSides {
			out = append(out, row.name)
		}
	}
	return out
}

// equivalent reports whether every quantity passed.
func (r spreadReport) equivalent() bool { return len(r.different()) == 0 }

// String renders the report as a Markdown table.
func (r spreadReport) String() string {
	var sb strings.Builder
	verdict := "equivalent"
	if !r.equivalent() {
		verdict = "DIFFERENT: " + strings.Join(r.different(), ", ")
	}
	fmt.Fprintf(&sb, "%s (N = %d vs %d; p < %.2g fails): %s\n\n", r.label, r.n[0], r.n[1], r.alpha, verdict)
	sb.WriteString("| quantity | A mean ± sd | B mean ± sd | effect | p |\n|---|---:|---:|---:|---:|\n")
	for _, row := range r.rows {
		fmt.Fprintf(&sb, "| %s | %.4g ± %.2g | %.4g ± %.2g | %+.2f | %.4f |\n",
			row.name, row.meanA, row.sdA, row.meanB, row.sdB, row.effect, row.p)
	}
	return sb.String()
}

// seeded returns preset at seeds first, first+1, …, first+n−1, each edited
// by edit when it is non-nil.
func seeded(preset func(int64) Params, first, n int, edit func(*Params)) []Params {
	out := make([]Params, n)
	for i := range out {
		out[i] = preset(int64(first + i))
		if edit != nil {
			edit(&out[i])
		}
	}
	return out
}

// seedSpread runs every Params of both sides through RunCampaign and judges
// each spreadQuantity by a permutation test on the difference of means.
func seedSpread(label string, a, b []Params, parallel int) (spreadReport, error) {
	points := make([]Point, 0, len(a)+len(b))
	for _, p := range slices.Concat(a, b) {
		points = append(points, Point{Label: label, Params: p})
	}
	results, err := RunCampaign(points, parallel)
	if err != nil {
		return spreadReport{}, err
	}
	rep := spreadReport{label: label, n: [2]int{len(a), len(b)}, alpha: 0.01 / float64(len(spreadQuantities))}
	for _, q := range spreadQuantities {
		vals := make([]float64, len(results))
		for i, res := range results {
			vals[i] = q.of(res)
		}
		va, vb := vals[:len(a)], vals[len(a):]
		row := spreadRow{name: q.name, p: permutationP(va, vb, rand.New(rand.NewSource(1)))}
		row.meanA, row.sdA = meanSD(va)
		row.meanB, row.sdB = meanSD(vb)
		diff, pooled := row.meanB-row.meanA, math.Sqrt((row.sdA*row.sdA+row.sdB*row.sdB)/2)
		if diff != 0 {
			row.effect = diff / pooled // ±Inf when neither side varies
		}
		row.differentSides = row.p < rep.alpha
		rep.rows = append(rep.rows, row)
	}
	return rep, nil
}

// meanSD returns the mean and the sample standard deviation of v.
func meanSD(v []float64) (mean, sd float64) {
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	if len(v) < 2 {
		return mean, 0
	}
	for _, x := range v {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(v)-1))
}

// permutationP is the two-sided permutation p-value of the difference of the
// means of a and b: the share of spreadShuffles random relabellings of the
// pooled values, counting the observed labelling once, whose difference is
// at least as large as the observed one.
func permutationP(a, b []float64, rng *rand.Rand) float64 {
	pool := slices.Concat(a, b)
	gap := func() float64 {
		sa, sb := 0.0, 0.0
		for _, x := range pool[:len(a)] {
			sa += x
		}
		for _, x := range pool[len(a):] {
			sb += x
		}
		return math.Abs(sa/float64(len(a)) - sb/float64(len(b)))
	}
	observed := gap()
	// Summation order differs between labellings, so equal gaps may differ in
	// their last bits; they count as reaching the observed one.
	scale := 0.0
	for _, x := range pool {
		scale = max(scale, math.Abs(x))
	}
	observed -= 1e-9 * scale
	hits := 1
	for range spreadShuffles {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		if gap() >= observed {
			hits++
		}
	}
	return float64(hits) / float64(spreadShuffles+1)
}

// TestSeedSpreadGateCalibrated: the gate passes two disjoint seed ranges of
// one configuration and fails two known effects on the quantity each moves —
// a quarter of the view size on the hit ratio, a nine-fold push threshold on
// push messages per query.
func TestSeedSpreadGateCalibrated(t *testing.T) {
	cases := []struct {
		label      string
		a, b       []Params
		wantDiffer string // "" = the sides must be equivalent
	}{
		{"ScaledParams seeds 1–20 vs 21–40",
			seeded(ScaledParams, 1, 20, nil), seeded(ScaledParams, 21, 20, nil), ""},
		{"ViewSize 6 vs 24",
			seeded(ScaledParams, 1, 10, func(p *Params) { p.ViewSize = 6 }),
			seeded(ScaledParams, 1, 10, func(p *Params) { p.ViewSize = 24 }), "hit_ratio"},
		{"PushThreshold 0.1 vs 0.9",
			seeded(ScaledParams, 1, 10, func(p *Params) { p.PushThreshold = 0.1 }),
			seeded(ScaledParams, 1, 10, func(p *Params) { p.PushThreshold = 0.9 }), "msgs_per_q.push"},
	}
	for _, c := range cases {
		rep, err := seedSpread(c.label, c.a, c.b, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s", rep)
		if c.wantDiffer == "" && !rep.equivalent() {
			t.Errorf("%s: the gate told one configuration from itself on %v", c.label, rep.different())
		}
		if c.wantDiffer != "" && !slices.Contains(rep.different(), c.wantDiffer) {
			t.Errorf("%s: the gate missed the effect on %s", c.label, c.wantDiffer)
		}
	}
}
