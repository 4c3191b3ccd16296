// Command flowersim regenerates the evaluation of the Flower-CDN paper
// (EDBT 2009): every table and figure, the headline comparison against
// Squirrel, and the ablations documented in DESIGN.md.
//
// Usage:
//
//	flowersim -exp table2a                 # full paper scale (24 simulated hours)
//	flowersim -exp fig6 -scale small       # laptop-scale shape check
//	flowersim -exp all -hours 6 -seed 7    # shorter day, different seed
//	flowersim -exp table2b -parallel 4     # fan sweep points over 4 workers
//	flowersim -exp sweep -parallel -1      # scenario grid, one worker per CPU
//	flowersim -exp fig5 -cpuprofile cpu.pprof -memprofile mem.pprof
//	flowersim -list                        # enumerate experiments
//
// Experiments: table2a table2b table2c fig5 fig6 fig7 fig8 headline
// push-threshold query-policy churn home-store conditional-routing sweep all,
// plus the scale experiments "population" (events/sec-vs-population chart),
// "massive" (the 100,000-client stress preset; add -churn to rerun it under
// the population-scaled failure injector and compare events/sec),
// "dirstress" (one ~2100-member overlay on a 1-minute gossip period — the
// directory-sweep-dominated shape), "faults" (the deterministic
// fault-storm scenario — loss, jitter, locality partitions — with the
// invariant auditor, per-locality recovery times, and a loss-rate
// degradation sweep; -loss overrides the sweep grid), "dircrash"
// (scheduled directory crashes comparing warm-standby promotion against
// the cold §5.2 rebuild) and "gray" (gray failures — degraded-but-alive
// directories, one-way loss, a flapping uplink — comparing the fixed
// timeout ladder against the adaptive plane of EWMA deadlines, hedged
// lookups and the holder circuit breaker) — all outside "all" because
// they measure the simulator, not the paper.
//
// Sweep-style experiments run one full simulation per point; -parallel N
// executes points on N workers (results are identical to the sequential
// run — every point owns its kernel, topology and metrics stack).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"flowercdn"
)

var experiments = map[string]func(w *writer, p flowercdn.Params) error{
	"table2a":             runTable2a,
	"table2b":             runTable2b,
	"table2c":             runTable2c,
	"fig5":                runFig5,
	"fig6":                runFig6,
	"fig7":                runFig7,
	"fig8":                runFig8,
	"headline":            runHeadline,
	"push-threshold":      runPushThreshold,
	"query-policy":        runQueryPolicy,
	"churn":               runChurn,
	"home-store":          runHomeStore,
	"conditional-routing": runConditionalRouting,
	"substrates":          runSubstrates,
	"active-replication":  runActiveReplication,
	"scale-up":            runScaleUp,
	"sweep":               runSweep,
	"trace":               runTrace,
	"population":          runPopulation,
	"massive":             runMassive,
	"dirstress":           runDirStress,
	"faults":              runFaults,
	"dircrash":            runDirCrash,
	"gray":                runGray,
}

// massiveChurn is set by the -churn flag: the massive experiment then
// runs the preset twice — stable and with the population-scaled failure
// injector — and reports events/sec for both.
var massiveChurn bool

// hoursOverride carries an explicit -hours value (0 when the flag was
// not passed) so preset experiments that own their duration (massive,
// dirstress) honour -hours without guessing it from p.Duration — which
// would misfire under -scale small.
var hoursOverride flowercdn.Time

// lossOverride carries the -loss grid (nil when the flag was not passed)
// so `-exp faults` can sweep custom loss rates instead of the default
// 0/1/2/5/10/20% ladder.
var lossOverride []float64

func main() {
	// The profile defers must run even on failure (os.Exit skips them, and
	// a truncated CPU profile is unreadable), so the real work returns an
	// exit code instead of exiting.
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "headline", "experiment to run (see -list)")
		scale      = flag.String("scale", "paper", "paper | small")
		seed       = flag.Int64("seed", 1, "simulation seed")
		hours      = flag.Int("hours", 0, "override simulated duration in hours")
		parallel   = flag.Int("parallel", 1, "sweep workers: 1 = sequential, N>1 = N workers, -1 = one per CPU")
		churn      = flag.Bool("churn", false, "massive: also run with the population-scaled failure injector")
		loss       = flag.String("loss", "", "faults: comma-separated loss fractions for the sweep (e.g. 0,0.05,0.15; default 0,0.01,0.02,0.05,0.1,0.2)")
		list       = flag.Bool("list", false, "list experiments and exit")
		quiet      = flag.Bool("quiet", false, "suppress progress notes on stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	massiveChurn = *churn
	if *hours > 0 {
		hoursOverride = flowercdn.Time(*hours) * flowercdn.Hour
	}
	if *loss != "" {
		for _, tok := range strings.Split(*loss, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil || r < 0 || r > 1 {
				fmt.Fprintf(os.Stderr, "-loss: %q is not a loss fraction in [0,1]\n", tok)
				return 2
			}
			lossOverride = append(lossOverride, r)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retained heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		names := make([]string, 0, len(experiments)+1)
		for n := range experiments {
			names = append(names, n)
		}
		names = append(names, "all")
		sort.Strings(names)
		fmt.Println(strings.Join(names, "\n"))
		return 0
	}

	var p flowercdn.Params
	switch *scale {
	case "paper":
		p = flowercdn.DefaultParams(*seed)
	case "small":
		p = flowercdn.ScaledParams(*seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		return 2
	}
	if hoursOverride > 0 {
		p.Duration = hoursOverride
	}
	p.Parallel = *parallel

	w := &writer{quiet: *quiet}
	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table2a", "table2b", "table2c", "fig5", "fig6", "fig7", "fig8",
			"headline", "push-threshold", "query-policy", "churn", "home-store",
			"conditional-routing", "substrates", "active-replication", "scale-up", "sweep"}
	}
	for _, name := range names {
		fn, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", name)
			return 2
		}
		w.notef("=== %s (scale=%s, %s simulated) ===", name, *scale, p.Duration)
		start := time.Now()
		if err := fn(w, p); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
		w.notef("--- %s done in %s wall-clock", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

type writer struct{ quiet bool }

func (w *writer) printf(format string, args ...any) { fmt.Printf(format+"\n", args...) }
func (w *writer) notef(format string, args ...any) {
	if !w.quiet {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

func runTable2a(w *writer, p flowercdn.Params) error {
	rows, err := flowercdn.Table2a(p, nil)
	if err != nil {
		return err
	}
	w.printf("Table 2(a) — varying L_gossip (T_gossip=%s, V_gossip=%d)", p.TGossip, p.ViewSize)
	w.printf("%-10s %-10s %-14s", "L_gossip", "Hit ratio", "Background BW")
	for _, r := range rows {
		w.printf("%-10s %-10.3f %8.1f bps", r.Label, r.HitRatio, r.BackgroundBps)
	}
	w.printf("(paper: 5→0.823/37bps, 10→0.86/74bps, 20→0.89/147bps)")
	return nil
}

func runTable2b(w *writer, p flowercdn.Params) error {
	rows, err := flowercdn.Table2b(p, nil)
	if err != nil {
		return err
	}
	w.printf("Table 2(b) — varying T_gossip (L_gossip=%d, V_gossip=%d)", p.GossipLen, p.ViewSize)
	w.printf("%-10s %-10s %-14s", "T_gossip", "Hit ratio", "Background BW")
	for _, r := range rows {
		w.printf("%-10s %-10.3f %8.1f bps", r.Label, r.HitRatio, r.BackgroundBps)
	}
	w.printf("(paper: 1m→0.94/2239bps, 30m→0.86/74bps, 1h→0.81/37bps)")
	return nil
}

func runTable2c(w *writer, p flowercdn.Params) error {
	rows, err := flowercdn.Table2c(p, nil)
	if err != nil {
		return err
	}
	w.printf("Table 2(c) — varying V_gossip (L_gossip=%d, T_gossip=%s)", p.GossipLen, p.TGossip)
	w.printf("%-10s %-10s %-14s", "V_gossip", "Hit ratio", "Background BW")
	for _, r := range rows {
		w.printf("%-10s %-10.3f %8.1f bps", r.Label, r.HitRatio, r.BackgroundBps)
	}
	w.printf("(paper: 20→0.78/74bps, 50→0.86/74bps, 70→0.863/74bps)")
	return nil
}

func runFig5(w *writer, p flowercdn.Params) error {
	res, err := flowercdn.Fig5(p)
	if err != nil {
		return err
	}
	w.printf("Figure 5 — hit ratio and background traffic vs time")
	w.printf("%-8s %-10s %-12s %-14s", "hour", "hit(win)", "hit(cum)", "background")
	for _, b := range res.Report.Series {
		w.printf("%-8.1f %-10.3f %-12.3f %8.1f bps",
			float64(b.Start)/float64(flowercdn.Hour), b.HitRatio, b.CumHitRatio, b.BackgroundBps)
	}
	w.printf("final: hit=%.3f background=%.1f bps (paper: →0.86, 74 bps stable after ~5h)",
		res.Report.HitRatio, res.Report.BackgroundBps)
	return nil
}

func runFig6(w *writer, p flowercdn.Params) error {
	f, s, err := flowercdn.Comparison(p)
	if err != nil {
		return err
	}
	w.printf("Figure 6 — hit ratio vs time, Flower-CDN vs Squirrel")
	w.printf("%-8s %-14s %-14s", "hour", "flower(cum)", "squirrel(cum)")
	n := len(f.Report.Series)
	if len(s.Report.Series) < n {
		n = len(s.Report.Series)
	}
	for i := 0; i < n; i++ {
		w.printf("%-8.1f %-14.3f %-14.3f",
			float64(f.Report.Series[i].Start)/float64(flowercdn.Hour),
			f.Report.Series[i].CumHitRatio, s.Report.Series[i].CumHitRatio)
	}
	w.printf("final: flower=%.3f squirrel=%.3f (paper: flower ≈13%% below squirrel at 24h, both →1)",
		f.Report.HitRatio, s.Report.HitRatio)
	return nil
}

func runFig7(w *writer, p flowercdn.Params) error {
	f, s, err := flowercdn.Comparison(p)
	if err != nil {
		return err
	}
	w.printf("Figure 7(a) — Flower-CDN average lookup latency vs time")
	w.printf("%-8s %-12s", "hour", "lookup(ms)")
	for _, b := range f.Report.Series {
		w.printf("%-8.1f %-12.0f", float64(b.Start)/float64(flowercdn.Hour), b.AvgLookupMs)
	}
	w.printf("")
	w.printf("Figure 7(b) — lookup latency distribution")
	w.printf("%-16s %-10s %-10s", "bin", "flower", "squirrel")
	for i := range f.Report.LatencyHist {
		fb, sb := f.Report.LatencyHist[i], s.Report.LatencyHist[i]
		label := fmt.Sprintf("%4.0f-%4.0f ms", fb.LoMs, fb.HiMs)
		if fb.Overflow {
			label = fmt.Sprintf(">%4.0f ms", fb.LoMs)
		}
		w.printf("%-16s %8.2f%% %8.2f%%", label, 100*fb.Frac, 100*sb.Frac)
	}
	w.printf("flower ≤150ms: %.1f%% (paper 87%%); squirrel >1050ms: %.1f%% (paper 61%%)",
		100*flowercdn.FracWithin(f.Report.LatencyHist, 150),
		100*flowercdn.FracBeyond(s.Report.LatencyHist, 1050))
	return nil
}

func runFig8(w *writer, p flowercdn.Params) error {
	f, s, err := flowercdn.Comparison(p)
	if err != nil {
		return err
	}
	w.printf("Figure 8(a) — Flower-CDN average transfer distance vs time")
	w.printf("%-8s %-12s", "hour", "distance(ms)")
	for _, b := range f.Report.Series {
		w.printf("%-8.1f %-12.0f", float64(b.Start)/float64(flowercdn.Hour), b.AvgTransferMs)
	}
	w.printf("")
	w.printf("Figure 8(b) — transfer distance distribution")
	w.printf("%-16s %-10s %-10s", "bin", "flower", "squirrel")
	for i := range f.Report.DistanceHist {
		fb, sb := f.Report.DistanceHist[i], s.Report.DistanceHist[i]
		label := fmt.Sprintf("%4.0f-%4.0f ms", fb.LoMs, fb.HiMs)
		if fb.Overflow {
			label = fmt.Sprintf(">%4.0f ms", fb.LoMs)
		}
		w.printf("%-16s %8.2f%% %8.2f%%", label, 100*fb.Frac, 100*sb.Frac)
	}
	w.printf("≤100ms: flower %.1f%% vs squirrel %.1f%% (paper: 59%% vs 17%%)",
		100*flowercdn.FracWithin(f.Report.DistanceHist, 100),
		100*flowercdn.FracWithin(s.Report.DistanceHist, 100))
	return nil
}

func runHeadline(w *writer, p flowercdn.Params) error {
	f, s, err := flowercdn.Comparison(p)
	if err != nil {
		return err
	}
	h := flowercdn.ComputeHeadline(f, s)
	w.printf("Headline comparison (paper §1/§6: lookup ×9, transfer ×2)")
	w.printf("%-28s %-12s %-12s", "metric", "flower", "squirrel")
	w.printf("%-28s %-12.3f %-12.3f", "hit ratio", h.FlowerHit, h.SquirrelHit)
	w.printf("%-28s %-12.0f %-12.0f", "avg lookup latency (ms)", h.FlowerLookupMs, h.SquirrelLookupMs)
	w.printf("%-28s %-12.0f %-12.0f", "avg transfer distance (ms)", h.FlowerTransferMs, h.SquirrelTransferMs)
	w.printf("lookup improvement: %.1fx   transfer improvement: %.1fx", h.LookupFactor, h.TransferFactor)
	w.printf("flower lookups ≤150ms: %.1f%%   squirrel lookups >1050ms: %.1f%%",
		100*h.FlowerWithin150ms, 100*h.SquirrelBeyond1050ms)
	w.printf("transfers ≤100ms: flower %.1f%% vs squirrel %.1f%%",
		100*h.FlowerDistWithin100ms, 100*h.SquirrelDistWithin100ms)
	w.printf("lookup percentiles (ms): flower p50=%.0f p95=%.0f p99=%.0f | squirrel p50=%.0f p95=%.0f p99=%.0f",
		f.Report.LookupPercentiles.P50, f.Report.LookupPercentiles.P95, f.Report.LookupPercentiles.P99,
		s.Report.LookupPercentiles.P50, s.Report.LookupPercentiles.P95, s.Report.LookupPercentiles.P99)
	w.printf("diagnostics: flower joins=%d replacements=%d ttl-expiry=%d",
		f.Stats.Joins, f.Stats.DirReplacements, f.Report.RouteTTLExpiry)
	return nil
}

func runPushThreshold(w *writer, p flowercdn.Params) error {
	rows, err := flowercdn.AblationPushThreshold(p, nil)
	if err != nil {
		return err
	}
	w.printf("Ablation — push threshold (§6.2: 0.1/0.5/0.7 behave almost identically)")
	w.printf("%-10s %-10s %-14s", "threshold", "Hit ratio", "Background BW")
	for _, r := range rows {
		w.printf("%-10s %-10.3f %8.1f bps", r.Label, r.HitRatio, r.BackgroundBps)
	}
	return nil
}

func runQueryPolicy(w *writer, p flowercdn.Params) error {
	viewOnly, viaDir, err := flowercdn.AblationQueryPolicy(p)
	if err != nil {
		return err
	}
	w.printf("Ablation — content-peer query policy")
	w.printf("%-22s hit=%.3f lookup=%.0fms", "view-only (paper)", viewOnly.Report.HitRatio, viewOnly.Report.AvgLookupMs)
	w.printf("%-22s hit=%.3f lookup=%.0fms", "view-then-directory", viaDir.Report.HitRatio, viaDir.Report.AvgLookupMs)
	return nil
}

func runChurn(w *writer, p flowercdn.Params) error {
	rows, err := flowercdn.AblationChurn(p, nil)
	if err != nil {
		return err
	}
	w.printf("Ablation — churn (peer failures per hour; §5 mechanisms)")
	w.printf("%-12s %-10s %-14s %-14s", "rate", "Hit ratio", "redirectFail", "replacements")
	for _, r := range rows {
		w.printf("%-12s %-10.3f %-14d %-14d", r.Label, r.HitRatio,
			r.Result.Report.RedirectFailures, r.Result.Stats.DirReplacements)
	}
	// Rejoin variant: failed clients return stateless after a mean
	// 30-minute downtime.
	pr := p
	pr.ChurnPerHour = 120
	pr.ChurnIncludesDirs = true
	pr.ChurnMeanDowntime = 30 * flowercdn.Minute
	res, err := flowercdn.RunFlower(pr)
	if err != nil {
		return err
	}
	w.printf("%-12s %-10.3f %-14d %-14d", "120/h+rejoin", res.Report.HitRatio,
		res.Report.RedirectFailures, res.Stats.DirReplacements)
	return nil
}

func runHomeStore(w *writer, p flowercdn.Params) error {
	dir, hs, err := flowercdn.AblationHomeStore(p)
	if err != nil {
		return err
	}
	w.printf("Ablation — Squirrel strategies (§7)")
	w.printf("%-12s hit=%.3f lookup=%.0fms transfer=%.0fms", "directory",
		dir.Report.HitRatio, dir.Report.AvgLookupMs, dir.Report.AvgTransferMs)
	w.printf("%-12s hit=%.3f lookup=%.0fms transfer=%.0fms", "home-store",
		hs.Report.HitRatio, hs.Report.AvgLookupMs, hs.Report.AvgTransferMs)
	return nil
}

func runSubstrates(w *writer, p flowercdn.Params) error {
	res, err := flowercdn.CompareSubstrates(p.Seed, p.Websites, p.Localities, 5000)
	if err != nil {
		return err
	}
	w.printf("D-ring over two DHT substrates (§3.1: \"any standard DHT (e.g., Chord, Pastry)\")")
	w.printf("directory peers: %d, lookups: %d", res.Nodes, res.Lookups)
	w.printf("%-10s %-12s %-16s", "substrate", "avg hops", "exact delivery")
	w.printf("%-10s %-12.2f %15.1f%%", "chord", res.ChordAvgHops, 100*res.ChordExact)
	w.printf("%-10s %-12.2f %15.1f%%", "pastry", res.PastryAvgHops, 100*res.PastryExact)
	return nil
}

func runActiveReplication(w *writer, p flowercdn.Params) error {
	rows, err := flowercdn.AblationActiveReplication(p, nil)
	if err != nil {
		return err
	}
	w.printf("Extension — active replication (§8 future work)")
	w.printf("%-10s %-10s %-14s %-12s", "top-K", "Hit ratio", "Background BW", "prefetches")
	for _, r := range rows {
		w.printf("%-10s %-10.3f %8.1f bps  %-12d", r.Label, r.HitRatio, r.BackgroundBps,
			r.Result.Stats.Prefetches)
	}
	return nil
}

func runScaleUp(w *writer, p flowercdn.Params) error {
	pv := p
	// Overflow the basic scheme's capacity so the extension matters.
	pv.ClientsPerSite = pv.ClientsPerSite * 2
	rows, err := flowercdn.AblationScaleUp(pv, []uint{0, 1})
	if err != nil {
		return err
	}
	w.printf("Extension — §5.3 scale-up (instance bits; clients 2× the basic capacity)")
	w.printf("%-10s %-10s %-14s %-10s", "bits", "Hit ratio", "Background BW", "joins")
	for _, r := range rows {
		w.printf("%-10s %-10.3f %8.1f bps  %-10d", r.Label, r.HitRatio, r.BackgroundBps,
			r.Result.Stats.Joins)
	}
	return nil
}

func runSweep(w *writer, p flowercdn.Params) error {
	rows, err := flowercdn.SweepGrid(p, nil, nil, nil)
	if err != nil {
		return err
	}
	w.printf("Scenario grid — localities × T_gossip × V_gossip (campaign seed %d, %d cells)",
		p.Seed, len(rows))
	w.printf("%-6s %-10s %-8s %-10s %-14s %-12s", "k", "T_gossip", "V", "Hit ratio", "Background BW", "lookup(ms)")
	for _, r := range rows {
		w.printf("%-6d %-10s %-8d %-10.3f %8.1f bps  %-12.0f",
			r.Localities, r.TGossip, r.ViewSize,
			r.Result.Report.HitRatio, r.Result.Report.BackgroundBps, r.Result.Report.AvgLookupMs)
	}
	return nil
}

func runTrace(w *writer, p flowercdn.Params) error {
	// Short traced run; print the full path of one new-client query and
	// one member query.
	pt := p
	if pt.Duration > flowercdn.Hour {
		pt.Duration = flowercdn.Hour
	}
	res, buf, err := flowercdn.RunFlowerTraced(pt, 200000)
	if err != nil {
		return err
	}
	w.printf("Protocol trace — %d events recorded, %d retained", buf.Total(), buf.Len())
	printQueryOfKind := func(title, detailPrefix string) {
		for _, e := range buf.Events() {
			if e.Kind.String() == "query-submitted" && len(e.Detail) >= len(detailPrefix) &&
				e.Detail[:len(detailPrefix)] == detailPrefix {
				w.printf("")
				w.printf("%s (query %d):", title, e.QueryID)
				w.printf("%s", flowercdn.FormatTrace(buf.QueryTrace(e.QueryID)))
				return
			}
		}
	}
	printQueryOfKind("First access through D-ring", "new-client")
	printQueryOfKind("Member lookup through the content overlay", "member")
	w.printf("run summary: %s", res.Report.String())
	return nil
}

func runPopulation(w *writer, p flowercdn.Params) error {
	// Populations by scale: the paper flag (-scale paper) climbs to the
	// full 100k, the small flag stays laptop-quick.
	pops := []int{1000, 2000, 5000, 10000}
	if paperScale(p) {
		pops = []int{1000, 10000, 50000, 100000}
	}
	points, err := flowercdn.PopulationSweep(p.Seed, pops)
	if err != nil {
		return err
	}
	w.printf("Scale chart — simulator throughput vs peer population (shrunk 100k-preset shape)")
	w.printf("%-12s %-12s %-12s %-12s %-10s %-12s %-10s %-10s %-12s %-14s %-10s %-8s %-12s", "clients", "events", "periodic", "one-shot", "elided", "near", "far", "far-peak", "wall(s)", "events/sec", "hit", "joins", "bytes/client")
	for _, pt := range points {
		w.printf("%-12d %-12d %-12d %-12d %-10d %-12d %-10d %-10d %-12.2f %-14.0f %-10.3f %-8d %-12.0f",
			pt.Clients, pt.Events, pt.PeriodicEvents, pt.Events-pt.PeriodicEvents, pt.ElidedEvents, pt.NearEvents, pt.FarEvents, pt.FarHeapPeak, pt.WallSeconds, pt.EventsPerSec, pt.HitRatio, pt.Joins, pt.BytesPerClient)
	}
	return nil
}

// paperScale detects the full-scale parameter set (ScaledParams shrinks
// the topology below the paper's 5000 nodes).
func paperScale(p flowercdn.Params) bool { return p.TopoNodes >= 5000 }

func runMassive(w *writer, p flowercdn.Params) error {
	mp := flowercdn.Massive100kParams(p.Seed)
	if hoursOverride > 0 {
		mp.Duration = hoursOverride
	}
	mp.MeasureMemory = true
	w.notef("massive: 100,000 potential clients, %s simulated — this is the stress preset, not a figure", mp.Duration)
	res, err := flowercdn.RunFlower(mp)
	if err != nil {
		return err
	}
	w.printf("100k-client preset (%s simulated)", mp.Duration)
	w.printf("clients joined: %d   queries: %d   hit ratio: %.3f", res.Stats.Joins, res.Report.TotalQueries, res.Report.HitRatio)
	printThroughput(w, "", res)
	w.printf("avg lookup: %.0f ms   background: %.1f bps/peer", res.Report.AvgLookupMs, res.Report.BackgroundBps)
	w.printf("heap: %.0f bytes/client", res.BytesPerClient)
	printMessageTotals(w, res)
	if !massiveChurn {
		return nil
	}
	// -churn: the same preset under the population-scaled failure model
	// (§5 recovery at 10^5 peers) — events/sec with failures vs without.
	cp := flowercdn.WithMassiveChurn(mp)
	w.notef("massive -churn: %.0f failures/hour (dirs included), 15 min mean rejoin downtime", cp.ChurnPerHour)
	cres, err := flowercdn.RunFlower(cp)
	if err != nil {
		return err
	}
	w.printf("with churn: joined: %d   queries: %d   hit ratio: %.3f   redirect failures: %d   dir replacements: %d",
		cres.Stats.Joins, cres.Report.TotalQueries, cres.Report.HitRatio,
		cres.Report.RedirectFailures, cres.Stats.DirReplacements)
	printThroughput(w, "with churn: ", cres)
	w.printf("events/sec stable vs churned: %.0f vs %.0f (%+.1f%%)",
		res.EventsPerSecond(), cres.EventsPerSecond(),
		100*(cres.EventsPerSecond()-res.EventsPerSecond())/res.EventsPerSecond())
	printMessageTotals(w, cres)
	return nil
}

// printMessageTotals reports the transport's delivery accounting: how many
// messages were sent, how many were dropped because the receiver was dead,
// and how many the fault plane discarded (zero unless Params.Faults is set).
func printMessageTotals(w *writer, res flowercdn.Result) {
	w.printf("messages: sent=%d dropped(dead)=%d dropped(faults)=%d",
		res.MessagesSent, res.MessagesDropped, res.FaultDrops)
}

func runDirStress(w *writer, p flowercdn.Params) error {
	dp := flowercdn.DirStressParams(p.Seed)
	if hoursOverride > 0 {
		dp.Duration = hoursOverride
	}
	w.notef("dirstress: one %d-member overlay, T_gossip=%s — the dirTick-dominated shape", dp.MaxOverlaySize, dp.TGossip)
	res, err := flowercdn.RunFlower(dp)
	if err != nil {
		return err
	}
	w.printf("dirTick-heavy preset (%s simulated, %s gossip period)", dp.Duration, dp.TGossip)
	w.printf("clients joined: %d   queries: %d   hit ratio: %.3f", res.Stats.Joins, res.Report.TotalQueries, res.Report.HitRatio)
	printThroughput(w, "", res)
	return nil
}

// printThroughput is the kernel line of the scale experiments: events by
// class (periodic firings / one-shots, and elided records) and by queue
// (wheel / far heap, the rest off the period lanes) beside events/sec.
func printThroughput(w *writer, prefix string, res flowercdn.Result) {
	w.printf("%skernel events: %d (%d periodic / %d one-shot, %d elided; %d near / %d far, far-heap peak %d)   wall: %.2fs   throughput: %.0f events/sec",
		prefix, res.Events, res.PeriodicEvents, res.Events-res.PeriodicEvents, res.ElidedEvents, res.NearEvents, res.FarEvents, res.FarHeapPeak, res.WallSeconds, res.EventsPerSecond())
}

func runFaults(w *writer, p flowercdn.Params) error {
	fp := flowercdn.FaultStormParams(p.Seed)
	if hoursOverride > 0 {
		fp.Duration = hoursOverride
	}
	fc := fp.Faults
	w.notef("faults: %.0f%% loss, jitter ≤%.0fms (p=%.2f), spikes %.0fms (p=%.2f), %d partition windows, audit every %s",
		100*fc.LossProb, fc.JitterMaxMs, fc.JitterProb, fc.SpikeMs, fc.SpikeProb, len(fc.Partitions), fp.AuditEvery)
	res, err := flowercdn.RunFlower(fp)
	if err != nil {
		return err
	}
	w.printf("Fault storm — %s simulated under loss+jitter+partitions (seed %d)", fp.Duration, fp.Seed)
	w.printf("hit ratio: %.3f   avg lookup: %.0f ms   queries: %d",
		res.Report.HitRatio, res.Report.AvgLookupMs, res.Report.TotalQueries)
	printMessageTotals(w, res)
	w.printf("protocol: retries=%d dir-fallbacks=%d origin-fallbacks=%d",
		res.Report.Retries, res.Report.DirFallbacks, res.Report.OriginFallbacks)
	for _, pw := range fc.Partitions {
		w.printf("partition: locality %d cut %s, healed %s",
			pw.Locality, pw.Start, pw.End)
	}
	for _, r := range res.Recovery {
		if r.RecoverMs >= 0 {
			w.printf("recovery: locality %d first directory-mediated hit %.0f ms after heal",
				r.Locality, r.RecoverMs)
		} else {
			w.printf("recovery: locality %d saw no directory-mediated hit after heal", r.Locality)
		}
	}
	w.printf("auditor: %d invariant checks, %d violations", res.AuditChecks, len(res.AuditViolations))
	for _, v := range res.AuditViolations {
		w.printf("  violation: %s", v)
	}

	// Degradation sweep: the same scenario minus partitions, across uniform
	// loss rates, to chart how hit ratio and latency decay with loss.
	base := fp
	base.Faults = nil
	base.AuditEvery = 0
	rows, err := flowercdn.LossRateSweep(base, lossOverride)
	if err != nil {
		return err
	}
	w.printf("")
	w.printf("Loss-rate degradation sweep (%s simulated per point)", base.Duration)
	w.printf("%-8s %-10s %-12s %-12s %-10s %-10s", "loss", "hit", "lookup(ms)", "drops", "retries", "to-origin")
	for _, r := range rows {
		w.printf("%-8s %-10.3f %-12.0f %-12d %-10d %-10d",
			fmt.Sprintf("%.0f%%", r.LossPct), r.HitRatio, r.AvgLookupMs, r.FaultDrops, r.Retries, r.OriginFallbacks)
	}
	return nil
}

func runGray(w *writer, p flowercdn.Params) error {
	gp := flowercdn.GrayStormParams(p.Seed)
	if hoursOverride > 0 {
		gp.Duration = hoursOverride
	}
	fc := gp.Faults
	w.notef("gray: %d degraded directories (×%.0f), %d asym-loss rules, %d flap windows, %.0f%% loss floor, churn %.0f/h",
		len(gp.DirDegrades), gp.DirDegrades[0].Factor, len(fc.AsymLoss), len(fc.Flap),
		100*fc.LossProb, gp.ChurnPerHour)

	fixed, adaptive, err := flowercdn.GrayComparison(gp)
	if err != nil {
		return err
	}

	w.printf("Gray-failure storm — %s simulated, seed %d", gp.Duration, gp.Seed)
	w.printf("gray schedule:")
	for _, dd := range gp.DirDegrades {
		w.printf("  directory site %d locality %d slowed ×%.0f during [%s, %s)",
			dd.SiteIdx, dd.Locality, dd.Factor, dd.Start, dd.End)
	}
	for _, r := range fc.AsymLoss {
		w.printf("  one-way loss locality %d→%d p=%.2f", r.FromLoc, r.ToLoc, r.Prob)
	}
	for _, f := range fc.Flap {
		w.printf("  locality %d uplink flaps %s down per %s during [%s, %s)",
			f.Locality, f.DownFor, f.Period, f.Start, f.End)
	}
	w.printf("")
	w.printf("%-22s %-12s %-12s", "metric", "fixed", "adaptive")
	w.printf("%-22s %-12.3f %-12.3f", "hit ratio", fixed.HitRatio, adaptive.HitRatio)
	w.printf("%-22s %-12.0f %-12.0f", "lookup p50 (ms)", fixed.P50Ms, adaptive.P50Ms)
	w.printf("%-22s %-12.0f %-12.0f", "lookup p99 (ms)", fixed.P99Ms, adaptive.P99Ms)
	w.printf("%-22s %-12d %-12d", "retries", fixed.Retries, adaptive.Retries)
	w.printf("%-22s %-12d %-12d", "origin fallbacks", fixed.OriginFallbacks, adaptive.OriginFallbacks)
	w.printf("%-22s %-12d %-12d", "hedged lookups", fixed.Hedges, adaptive.Hedges)
	w.printf("%-22s %-12d %-12d", "hedge wins", fixed.HedgeWins, adaptive.HedgeWins)
	w.printf("%-22s %-12d %-12d", "breaker trips", fixed.BreakerTrips, adaptive.BreakerTrips)
	w.printf("%-22s %-12d %-12d", "fault drops", fixed.FaultDrops, adaptive.FaultDrops)
	w.printf("%-22s %-12d %-12d", "audit checks", fixed.AuditChecks, adaptive.AuditChecks)
	w.printf("%-22s %-12d %-12d", "audit violations", len(fixed.AuditViolations), len(adaptive.AuditViolations))
	for _, v := range fixed.AuditViolations {
		w.printf("  fixed violation: %s", v)
	}
	for _, v := range adaptive.AuditViolations {
		w.printf("  adaptive violation: %s", v)
	}
	if adaptive.P99Ms > 0 {
		w.printf("")
		w.printf("tail latency: adaptive p99 %.1fx better than fixed (%.0f ms vs %.0f ms)",
			fixed.P99Ms/adaptive.P99Ms, adaptive.P99Ms, fixed.P99Ms)
	}
	return nil
}

func runDirCrash(w *writer, p flowercdn.Params) error {
	warm := flowercdn.DirCrashStormParams(p.Seed)
	if hoursOverride > 0 {
		warm.Duration = hoursOverride
	}
	cold := warm
	cold.StandbyFailover = false
	cold.ShedBudget = 0
	w.notef("dircrash: %d scheduled directory crashes, %.0f%% loss, warm standbys vs cold §5.2 rebuild",
		len(warm.DirCrashes), 100*warm.Faults.LossProb)

	cres, err := flowercdn.RunFlower(cold)
	if err != nil {
		return err
	}
	wres, err := flowercdn.RunFlower(warm)
	if err != nil {
		return err
	}

	w.printf("Directory crash storm — %s simulated, seed %d", warm.Duration, warm.Seed)
	w.printf("crash schedule:")
	for _, dc := range warm.DirCrashes {
		w.printf("  site %d locality %d at %s", dc.SiteIdx, dc.Locality, dc.At)
	}
	w.printf("")
	w.printf("%-22s %-12s %-12s", "metric", "cold", "warm")
	w.printf("%-22s %-12.3f %-12.3f", "hit ratio", cres.Report.HitRatio, wres.Report.HitRatio)
	w.printf("%-22s %-12d %-12d", "dir replacements", cres.Stats.DirReplacements, wres.Stats.DirReplacements)
	w.printf("%-22s %-12d %-12d", "standby promotions", cres.Stats.StandbyPromotions, wres.Stats.StandbyPromotions)
	w.printf("%-22s %-12d %-12d", "standby assigns", cres.Stats.StandbyAssigns, wres.Stats.StandbyAssigns)
	w.printf("%-22s %-12d %-12d", "standby deltas", cres.Stats.StandbyDeltas, wres.Stats.StandbyDeltas)
	w.printf("%-22s %-12d %-12d", "stale shards at promo", cres.Stats.StandbyStaleShards, wres.Stats.StandbyStaleShards)
	w.printf("%-22s %-12d %-12d", "shed queries", cres.Report.ShedQueries, wres.Report.ShedQueries)
	w.printf("%-22s %-12d %-12d", "origin fallbacks", cres.Report.OriginFallbacks, wres.Report.OriginFallbacks)
	w.printf("")
	w.printf("per-locality recovery (crash → first hit mediated by the locality's own directory):")
	w.printf("%-10s %-14s %-14s %-8s", "locality", "cold(ms)", "warm(ms)", "ratio")
	coldMs := recoveryByLocality(cres.Recovery)
	warmMs := recoveryByLocality(wres.Recovery)
	locs := make([]int, 0, len(coldMs))
	for loc := range coldMs {
		locs = append(locs, loc)
	}
	sort.Ints(locs)
	var coldSum, warmSum float64
	var n int
	for _, loc := range locs {
		c := coldMs[loc]
		wm, ok := warmMs[loc]
		cs, ws := fmtMs(c), fmtMs(wm)
		ratio := "-"
		if ok && c >= 0 && wm > 0 {
			ratio = fmt.Sprintf("%.1fx", c/wm)
		}
		w.printf("%-10d %-14s %-14s %-8s", loc, cs, ws, ratio)
		if ok && c >= 0 && wm >= 0 {
			coldSum += c
			warmSum += wm
			n++
		}
	}
	if n > 0 && warmSum > 0 {
		w.printf("mean recovery: cold %.0f ms, warm %.0f ms (%.1fx faster warm)",
			coldSum/float64(n), warmSum/float64(n), coldSum/warmSum)
	}
	w.printf("auditor: cold %d checks/%d violations, warm %d checks/%d violations",
		cres.AuditChecks, len(cres.AuditViolations), wres.AuditChecks, len(wres.AuditViolations))
	for _, v := range append(cres.AuditViolations, wres.AuditViolations...) {
		w.printf("  violation: %s", v)
	}
	return nil
}

// recoveryByLocality indexes Result.Recovery rows (crash datapoints) by
// locality; -1 marks a locality that never recovered inside the run.
func recoveryByLocality(rows []flowercdn.LocalityRecovery) map[int]float64 {
	m := make(map[int]float64)
	for _, r := range rows {
		m[r.Locality] = r.RecoverMs
	}
	return m
}

func fmtMs(ms float64) string {
	if ms < 0 {
		return "none"
	}
	return fmt.Sprintf("%.0f", ms)
}

func runConditionalRouting(w *writer, p flowercdn.Params) error {
	res, err := flowercdn.AblationConditionalRouting(p.Seed, p.Websites, p.Localities, 0.2, 2000)
	if err != nil {
		return err
	}
	w.printf("Ablation — D-ring conditional routing (Algorithm 2 vs Algorithm 1)")
	w.printf("failed directories: %d, lookups: %d", res.FailedDirectories, res.Lookups)
	w.printf("same-website delivery: standard %.1f%%, conditional %.1f%%",
		100*res.SameWebsiteAlg1, 100*res.SameWebsiteAlg2)
	return nil
}
