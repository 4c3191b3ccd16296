package flowercdn

import (
	"fmt"
	"slices"
	"strings"

	"flowercdn/internal/metrics"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/trace"
)

// This file is the registry: every experiment `flowersim` can run, said
// once. An experiment is data — how its points derive from the base
// parameters, and one or more named views that project the resulting rows
// into tables. The CLI looks names up here and renders the tables; it
// knows no experiment itself, so adding one is one entry below.

// Options carries the three CLI overrides that reach into experiments.
type Options struct {
	Hours simkernel.Time // -hours: the simulated duration, of the base parameters and of presets alike (0 = theirs)
	Loss  []float64      // -loss: the fault sweep's loss-rate grid (nil = DefaultLossRates)
	Churn bool           // -churn: also run the massive preset under population-scaled failures
}

// preset applies the duration override to a set of parameters.
func (o Options) preset(p Params) Params {
	if o.Hours > 0 {
		p.Duration = o.Hours
	}
	return p
}

// Table is the one shape every view produces: a title, a grid the renderer
// aligns (header and lines) and free-form notes. Any part may be empty.
type Table struct {
	Title  string
	Header []string
	Lines  [][]string
	Notes  []string
}

// View is one named projection of an experiment's rows: the name is what
// `-exp` selects, p the base parameters the points were derived from.
type View struct {
	Name, Doc string
	Tables    func(p Params, rows []Row) []Table
}

// Experiment is one registry entry. Its views share one set of runs, so
// selecting several of them (as `-exp all` does) simulates once.
type Experiment struct {
	All        bool // part of `-exp all`: the paper's evaluation, not a measurement of the simulator
	Sequential bool // wall clock is the measurement: points never share the machine
	Points     func(p Params, o Options) []Point
	// Custom replaces Points and the views' Tables for experiments that run
	// no campaign (routing micro-benchmarks, the traced run).
	Custom func(p Params, o Options) ([]Table, error)
	Views  []View
}

// Run executes the experiment's points and returns the tables of the named
// view, or of every view when name is empty.
func (e Experiment) Run(p Params, o Options, name string) ([]Table, error) {
	p = o.preset(p)
	if e.Custom != nil {
		return e.Custom(p, o)
	}
	parallel := p.Parallel
	if e.Sequential {
		parallel = 1
	}
	rows, err := runRows(e.Points(p, o), parallel)
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, v := range e.Views {
		if name == "" || name == v.Name {
			tables = append(tables, v.Tables(p, rows)...)
		}
	}
	return tables, nil
}

// column is one printed quantity of a Row, named the same in every view.
// Views list columns in blocks — most blocks hold one — so that the shared
// multi-column blocks below drop into a list like any single quantity.
type column struct {
	head string
	cell func(Row) string
}

func col(head, format string, get func(Row) any) []column {
	return []column{{head, func(r Row) string { return fmt.Sprintf(format, get(r)) }}}
}

// cLabel is the leading column of a by-point table: the point's label under
// the name of what the points vary.
func cLabel(head string) []column {
	return []column{{head, func(r Row) string { return r.Label }}}
}

// cols joins blocks into one column list.
func cols(blocks ...[]column) []column { return slices.Concat(blocks...) }

var (
	cHit         = col("hit ratio", "%.3f", func(r Row) any { return r.Report.HitRatio })
	cBps         = col("background BW", "%.1f bps", func(r Row) any { return r.Report.BackgroundBps })
	cLookupMs    = col("avg lookup (ms)", "%.0f", func(r Row) any { return r.Report.AvgLookupMs })
	cTransferMs  = col("avg transfer (ms)", "%.0f", func(r Row) any { return r.Report.AvgTransferMs })
	cP50Ms       = col("lookup p50 (ms)", "%.0f", func(r Row) any { return r.Report.LookupPercentiles.P50 })
	cP99Ms       = col("lookup p99 (ms)", "%.0f", func(r Row) any { return r.Report.LookupPercentiles.P99 })
	cQueries     = col("queries", "%d", func(r Row) any { return r.Report.TotalQueries })
	cJoins       = col("clients joined", "%d", func(r Row) any { return r.Stats.Joins })
	cReplaced    = col("dir replacements", "%d", func(r Row) any { return r.Stats.DirReplacements })
	cRedirFails  = col("redirect failures", "%d", func(r Row) any { return r.Report.RedirectFailures })
	cRetries     = col("retries", "%d", func(r Row) any { return r.Report.Retries })
	cDirFalls    = col("dir fallbacks", "%d", func(r Row) any { return r.Report.DirFallbacks })
	cOriginFalls = col("origin fallbacks", "%d", func(r Row) any { return r.Report.OriginFallbacks })
	cShed        = col("shed queries", "%d", func(r Row) any { return r.Report.ShedQueries })
	cHedges      = col("hedged lookups", "%d", func(r Row) any { return r.Report.Hedges })
	cHedgeWins   = col("hedge wins", "%d", func(r Row) any { return r.Report.HedgeWins })
	cTrips       = col("breaker trips", "%d", func(r Row) any { return r.Report.BreakerTrips })
	cPromotions  = col("standby promotions", "%d", func(r Row) any { return r.Stats.StandbyPromotions })
	cAssigns     = col("standby assigns", "%d", func(r Row) any { return r.Stats.StandbyAssigns })
	cDeltas      = col("standby deltas", "%d", func(r Row) any { return r.Stats.StandbyDeltas })
	cStaleShards = col("stale shards at promo", "%d", func(r Row) any { return r.Stats.StandbyStaleShards })
	cFaultDrops  = col("fault drops", "%d", func(r Row) any { return r.FaultDrops })
	cHeapBytes   = col("heap bytes/client", "%.0f", func(r Row) any { return r.BytesPerClient })

	// cMessages is the transport's delivery accounting: sent, lost to dead
	// receivers, and discarded by the fault plane (zero without Params.Faults).
	cMessages = cols(
		col("messages sent", "%d", func(r Row) any { return r.MessagesSent }),
		col("dropped (dead)", "%d", func(r Row) any { return r.MessagesDropped }),
		col("dropped (faults)", "%d", func(r Row) any { return r.FaultDrops }),
	)
	cAudit = cols(
		col("audit checks", "%d", func(r Row) any { return r.AuditChecks }),
		col("audit violations", "%d", func(r Row) any { return len(r.AuditViolations) }),
	)
	// cKernel is the simulator-throughput block of the scale experiments:
	// events by class (periodic firings / one-shots, and elided records) and
	// by queue (wheel / far heap, the rest off the period lanes).
	cKernel = cols(
		col("events", "%d", func(r Row) any { return r.Events }),
		col("periodic", "%d", func(r Row) any { return r.PeriodicEvents }),
		col("one-shot", "%d", func(r Row) any { return r.Events - r.PeriodicEvents }),
		col("elided", "%d", func(r Row) any { return r.ElidedEvents }),
		col("near", "%d", func(r Row) any { return r.NearEvents }),
		col("far", "%d", func(r Row) any { return r.FarEvents }),
		col("far-heap peak", "%d", func(r Row) any { return r.FarHeapPeak }),
		col("wall (s)", "%.2f", func(r Row) any { return r.WallSeconds }),
		col("events/sec", "%.0f", func(r Row) any { return r.EventsPerSecond() }),
	)
)

// byPoint lays rows out one per line under the columns' names.
func byPoint(title string, rows []Row, cs []column, notes ...string) Table {
	t := Table{Title: title, Notes: notes}
	for _, c := range cs {
		t.Header = append(t.Header, c.head)
	}
	for _, r := range rows {
		line := make([]string, len(cs))
		for i, c := range cs {
			line[i] = c.cell(r)
		}
		t.Lines = append(t.Lines, line)
	}
	return t
}

// bySide is the transpose: one line per quantity, one column per row — the
// layout for comparing a few runs over many quantities.
func bySide(title string, rows []Row, cs []column, notes ...string) Table {
	t := Table{Title: title, Header: []string{"metric"}, Notes: notes}
	for _, r := range rows {
		t.Header = append(t.Header, r.Label)
	}
	for _, c := range cs {
		line := []string{c.head}
		for _, r := range rows {
			line = append(line, c.cell(r))
		}
		t.Lines = append(t.Lines, line)
	}
	return t
}

// overTime tabulates the first n buckets of a time series: line gives a
// bucket's cells after the leading hour column.
func overTime(title string, series []metrics.BucketStats, n int, line func(i int) []string, header ...string) Table {
	t := Table{Title: title, Header: append([]string{"hour"}, header...)}
	for i := 0; i < n; i++ {
		hour := fmt.Sprintf("%.1f", float64(series[i].Start)/float64(simkernel.Hour))
		t.Lines = append(t.Lines, append([]string{hour}, line(i)...))
	}
	return t
}

// histograms sets the Flower-CDN and Squirrel distributions of one
// comparison side by side, bin by bin.
func histograms(title string, flower, squirrel []metrics.HistBin, note string) Table {
	t := Table{Title: title, Header: []string{"bin", "flower", "squirrel"}, Notes: []string{note}}
	for i, b := range flower {
		bin := fmt.Sprintf("%.0f-%.0f ms", b.LoMs, b.HiMs)
		if b.Overflow {
			bin = fmt.Sprintf(">%.0f ms", b.LoMs)
		}
		t.Lines = append(t.Lines, []string{bin, pct(2, b.Frac), pct(2, squirrel[i].Frac)})
	}
	return t
}

// pct prints a fraction as a percentage with the given decimals.
func pct(decimals int, frac float64) string { return fmt.Sprintf("%.*f%%", decimals, 100*frac) }

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// byPointView is the commonest view: one by-point table under a fixed
// title, the points' labels under head, then the given columns.
func byPointView(name, doc, title, head string, blocks ...[]column) View {
	return View{name, doc, func(_ Params, rows []Row) []Table {
		return []Table{byPoint(title, rows, cols(cLabel(head), cols(blocks...)))}
	}}
}

// Experiments returns the registry in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{All: true, Points: gossipLenSweep.grid, Views: []View{{
			"table2a", "Table 2(a): hit ratio and background traffic against the gossip length L_gossip",
			func(p Params, rows []Row) []Table {
				title := fmt.Sprintf("Table 2(a) — varying L_gossip (T_gossip=%s, V_gossip=%d)", p.TGossip, p.ViewSize)
				return []Table{byPoint(title, rows, cols(cLabel("L_gossip"), cHit, cBps),
					"(paper: 5→0.823/37bps, 10→0.86/74bps, 20→0.89/147bps)")}
			}}}},
		{All: true, Points: gossipPeriodSweep.grid, Views: []View{{
			"table2b", "Table 2(b): the same against the gossip period T_gossip",
			func(p Params, rows []Row) []Table {
				title := fmt.Sprintf("Table 2(b) — varying T_gossip (L_gossip=%d, V_gossip=%d)", p.GossipLen, p.ViewSize)
				return []Table{byPoint(title, rows, cols(cLabel("T_gossip"), cHit, cBps),
					"(paper: 1m→0.94/2239bps, 30m→0.86/74bps, 1h→0.81/37bps)")}
			}}}},
		{All: true, Points: viewSizeSweep.grid, Views: []View{{
			"table2c", "Table 2(c): the same against the view size V_gossip",
			func(p Params, rows []Row) []Table {
				title := fmt.Sprintf("Table 2(c) — varying V_gossip (L_gossip=%d, T_gossip=%s)", p.GossipLen, p.TGossip)
				return []Table{byPoint(title, rows, cols(cLabel("V_gossip"), cHit, cBps),
					"(paper: 20→0.78/74bps, 50→0.86/74bps, 70→0.863/74bps)")}
			}}}},
		{All: true, Points: func(p Params, _ Options) []Point { return []Point{{Label: "flower", Params: p}} },
			Views: []View{{"fig5", "Figure 5: hit ratio and background traffic over time at the chosen operating point",
				func(_ Params, rows []Row) []Table {
					rep := rows[0].Report
					t := overTime("Figure 5 — hit ratio and background traffic vs time", rep.Series, len(rep.Series),
						func(i int) []string {
							b := rep.Series[i]
							return []string{f3(b.HitRatio), f3(b.CumHitRatio), fmt.Sprintf("%.1f bps", b.BackgroundBps)}
						}, "hit(win)", "hit(cum)", "background")
					t.Notes = []string{fmt.Sprintf("final: hit=%.3f background=%.1f bps (paper: →0.86, 74 bps stable after ~5h)",
						rep.HitRatio, rep.BackgroundBps)}
					return []Table{t}
				}}}},
		{All: true, Points: comparisonPoints, Views: comparisonViews},
		{All: true, Points: pushThresholdSweep.grid, Views: []View{byPointView(
			"push-threshold", "ablation: the push threshold (§6.2)",
			"Ablation — push threshold (§6.2: 0.1/0.5/0.7 behave almost identically)", "threshold", cHit, cBps)}},
		{All: true, Points: queryPolicyPoints, Views: []View{byPointView(
			"query-policy", "ablation: view-only member lookups (the paper) against view-then-directory",
			"Ablation — content-peer query policy", "policy", cHit, cLookupMs)}},
		{All: true, Points: func(p Params, o Options) []Point {
			// The sweep, then its heaviest rate with rejoin: failed clients
			// return stateless after a mean 30-minute downtime.
			rejoin := p
			rejoin.ChurnPerHour, rejoin.ChurnIncludesDirs = 120, true
			rejoin.ChurnMeanDowntime = 30 * simkernel.Minute
			return append(churnSweep.grid(p, o), Point{Label: "120/h+rejoin", Params: rejoin})
		}, Views: []View{byPointView(
			"churn", "ablation: peer failures per hour, with and without rejoin (§5 mechanisms)",
			"Ablation — churn (peer failures per hour; §5 mechanisms)", "rate", cHit, cRedirFails, cReplaced)}},
		{All: true, Points: homeStorePoints, Views: []View{byPointView(
			"home-store", "ablation: Squirrel's directory and home-store strategies (§7)",
			"Ablation — Squirrel strategies (§7)", "strategy", cHit, cLookupMs, cTransferMs)}},
		{All: true, Custom: conditionalRoutingTables, Views: []View{{Name: "conditional-routing",
			Doc: "ablation: D-ring's conditional routing (Algorithm 2) against plain DHT routing past dead directories"}}},
		{All: true, Custom: substrateTables, Views: []View{{Name: "substrates",
			Doc: "D-ring routed over Chord and over Pastry (§3.1: any standard DHT)"}}},
		{All: true, Points: func(p Params, o Options) []Point {
			p.ClientsPerSite *= 2 // overflow the basic scheme's capacity so the extension matters
			return scaleUpSweep.grid(p, o)
		}, Views: []View{byPointView(
			"scale-up", "extension: §5.3 directory instances under a client population twice the basic capacity",
			"Extension — §5.3 scale-up (instance bits; clients 2× the basic capacity)", "bits", cHit, cBps, cJoins)}},
		{All: true, Points: func(p Params, _ Options) []Point { return gridPoints(p, nil, nil, nil) }, Views: []View{{
			"sweep", "scenario grid: localities × gossip period × view size, one derived seed per cell",
			func(p Params, rows []Row) []Table {
				title := fmt.Sprintf("Scenario grid — localities × T_gossip × V_gossip (campaign seed %d, %d cells)",
					p.Seed, len(rows))
				return []Table{byPoint(title, rows, cols(
					col("k", "%d", func(r Row) any { return r.Params.Localities }),
					col("T_gossip", "%s", func(r Row) any { return r.Params.TGossip }),
					col("V", "%d", func(r Row) any { return r.Params.ViewSize }),
					cHit, cBps, cLookupMs))}
			}}}},
		{Custom: traceTables, Views: []View{{Name: "trace",
			Doc: "protocol transcript of one first access through D-ring and one member lookup (at most 1 h simulated)"}}},
		{Sequential: true, Points: func(p Params, _ Options) []Point {
			// The paper scale climbs to the full 100k; the small one stays
			// laptop-quick (ScaledParams shrinks the topology below 5000 nodes).
			if p.TopoNodes >= 5000 {
				return populationPoints(p.Seed, []int{1000, 10000, 50000, 100000})
			}
			return populationPoints(p.Seed, nil)
		}, Views: []View{byPointView(
			"population", "simulator throughput against peer population, the shrunk 100k-preset shape",
			"Scale chart — simulator throughput vs peer population (shrunk 100k-preset shape)",
			"clients", cKernel, cHit, cJoins, cHeapBytes)}},
		{Sequential: true, Points: func(p Params, o Options) []Point {
			mp := o.preset(Massive100kParams(p.Seed))
			mp.MeasureMemory = true
			points := []Point{{Label: "stable", Params: mp}}
			if o.Churn {
				// The same preset under the population-scaled failure model:
				// §5 recovery at 10^5 peers, events/sec with failures vs without.
				points = append(points, Point{Label: "with churn", Params: WithMassiveChurn(mp)})
			}
			return points
		}, Views: []View{{
			"massive", "the 100,000-client stress preset, seconds of wall clock at any scale (-churn adds a run under failures)",
			massiveTables}}},
		{Sequential: true, Points: func(p Params, o Options) []Point {
			return []Point{{Label: "dirstress", Params: o.preset(DirStressParams(p.Seed))}}
		}, Views: []View{{
			"dirstress", "one ~2100-member overlay on a 1-minute gossip period: the directory-sweep-dominated shape",
			func(_ Params, rows []Row) []Table {
				dp := rows[0].Params
				title := fmt.Sprintf("dirTick-heavy preset (%s simulated, %s gossip period)", dp.Duration, dp.TGossip)
				return []Table{bySide(title, rows, cols(cJoins, cQueries, cHit, cKernel))}
			}}}},
		{Points: func(p Params, o Options) []Point {
			// The storm, then the same scenario minus partitions and auditor
			// across uniform loss rates.
			storm := o.preset(FaultStormParams(p.Seed))
			base := storm
			base.Faults, base.AuditEvery = nil, 0
			return append([]Point{{Label: "storm", Params: storm}}, lossPoints(base, o.Loss)...)
		}, Views: []View{{
			"faults", "fault storm (5% loss, jitter, spikes, two locality partitions) under the invariant auditor, " +
				"then a loss-rate sweep (-loss sets its grid)",
			faultTables}}},
		{Points: func(p Params, o Options) []Point {
			warm := o.preset(DirCrashStormParams(p.Seed))
			cold := warm
			cold.StandbyFailover = false
			return []Point{{Label: "cold", Params: cold}, {Label: "warm", Params: warm}}
		}, Views: []View{{
			"dircrash", "scheduled directory crashes under light loss: warm-standby promotion against the cold §5.2 rebuild",
			dirCrashTables}}},
		{Points: func(p Params, o Options) []Point { return grayPoints(o.preset(GrayStormParams(p.Seed))) }, Views: []View{{
			"gray", "gray failures (slow directories, one-way loss, a flapping uplink): " +
				"the fixed timeout ladder against the adaptive plane",
			grayTables}}},
	}
}

// comparisonViews are the four presentations of the Flower-vs-Squirrel pair
// (rows: flower, squirrel).
var comparisonViews = []View{
	{"fig6", "Figure 6: cumulative hit ratio over time, Flower-CDN against Squirrel",
		func(_ Params, rows []Row) []Table {
			f, s := rows[0].Report, rows[1].Report
			t := overTime("Figure 6 — hit ratio vs time, Flower-CDN vs Squirrel", f.Series, min(len(f.Series), len(s.Series)),
				func(i int) []string { return []string{f3(f.Series[i].CumHitRatio), f3(s.Series[i].CumHitRatio)} },
				"flower(cum)", "squirrel(cum)")
			t.Notes = []string{fmt.Sprintf("final: flower=%.3f squirrel=%.3f (paper: flower ≈13%% below squirrel at 24h, both →1)",
				f.HitRatio, s.HitRatio)}
			return []Table{t}
		}},
	{"fig7", "Figure 7: lookup latency over time and its distribution",
		func(_ Params, rows []Row) []Table {
			f, s := rows[0].Report, rows[1].Report
			return []Table{
				overTime("Figure 7(a) — Flower-CDN average lookup latency vs time", f.Series, len(f.Series),
					func(i int) []string { return []string{f0(f.Series[i].AvgLookupMs)} }, "lookup(ms)"),
				histograms("Figure 7(b) — lookup latency distribution", f.LatencyHist, s.LatencyHist,
					fmt.Sprintf("flower ≤150ms: %s (paper 87%%); squirrel >1050ms: %s (paper 61%%)",
						pct(1, metrics.FracWithin(f.LatencyHist, 150)), pct(1, metrics.FracBeyond(s.LatencyHist, 1050)))),
			}
		}},
	{"fig8", "Figure 8: transfer distance over time and its distribution",
		func(_ Params, rows []Row) []Table {
			f, s := rows[0].Report, rows[1].Report
			return []Table{
				overTime("Figure 8(a) — Flower-CDN average transfer distance vs time", f.Series, len(f.Series),
					func(i int) []string { return []string{f0(f.Series[i].AvgTransferMs)} }, "distance(ms)"),
				histograms("Figure 8(b) — transfer distance distribution", f.DistanceHist, s.DistanceHist,
					fmt.Sprintf("≤100ms: flower %s vs squirrel %s (paper: 59%% vs 17%%)",
						pct(1, metrics.FracWithin(f.DistanceHist, 100)), pct(1, metrics.FracWithin(s.DistanceHist, 100)))),
			}
		}},
	{"headline", "the paper's headline claims (§1/§6): lookup ×9, transfer ×2 against Squirrel",
		func(_ Params, rows []Row) []Table {
			h := ComputeHeadline(rows[0].Result, rows[1].Result)
			fp, sp := rows[0].Report.LookupPercentiles, rows[1].Report.LookupPercentiles
			return []Table{bySide("Headline comparison (paper §1/§6: lookup ×9, transfer ×2)",
				rows, cols(cHit, cLookupMs, cTransferMs),
				fmt.Sprintf("lookup improvement: %.1fx   transfer improvement: %.1fx", h.LookupFactor, h.TransferFactor),
				fmt.Sprintf("flower lookups ≤150ms: %s   squirrel lookups >1050ms: %s",
					pct(1, h.FlowerWithin150ms), pct(1, h.SquirrelBeyond1050ms)),
				fmt.Sprintf("transfers ≤100ms: flower %s vs squirrel %s",
					pct(1, h.FlowerDistWithin100ms), pct(1, h.SquirrelDistWithin100ms)),
				fmt.Sprintf("lookup percentiles (ms): flower p50=%.0f p95=%.0f p99=%.0f | squirrel p50=%.0f p95=%.0f p99=%.0f",
					fp.P50, fp.P95, fp.P99, sp.P50, sp.P95, sp.P99),
				fmt.Sprintf("diagnostics: flower joins=%d replacements=%d ttl-expiry=%d",
					rows[0].Stats.Joins, rows[0].Stats.DirReplacements, rows[0].Report.RouteTTLExpiry))}
		}},
}

func conditionalRoutingTables(p Params, _ Options) ([]Table, error) {
	res, err := AblationConditionalRouting(p.Seed, p.Websites, p.Localities, 0.2, 2000)
	if err != nil {
		return nil, err
	}
	return []Table{{
		Title: "Ablation — D-ring conditional routing (Algorithm 2 vs Algorithm 1)",
		Notes: []string{
			fmt.Sprintf("failed directories: %d, lookups: %d", res.FailedDirectories, res.Lookups),
			fmt.Sprintf("same-website delivery: standard %s, conditional %s",
				pct(1, res.SameWebsiteAlg1), pct(1, res.SameWebsiteAlg2)),
		},
	}}, nil
}

func substrateTables(p Params, _ Options) ([]Table, error) {
	res, err := CompareSubstrates(p.Seed, p.Websites, p.Localities, 5000)
	if err != nil {
		return nil, err
	}
	return []Table{{
		Title:  `D-ring over two DHT substrates (§3.1: "any standard DHT (e.g., Chord, Pastry)")`,
		Header: []string{"substrate", "avg hops", "exact delivery"},
		Lines: [][]string{
			{"chord", fmt.Sprintf("%.2f", res.ChordAvgHops), pct(1, res.ChordExact)},
			{"pastry", fmt.Sprintf("%.2f", res.PastryAvgHops), pct(1, res.PastryExact)},
		},
		Notes: []string{fmt.Sprintf("directory peers: %d, lookups: %d", res.Nodes, res.Lookups)},
	}}, nil
}

// traceTables runs a short traced run and prints the full path of one
// new-client query and one member query.
func traceTables(p Params, _ Options) ([]Table, error) {
	p.Duration = min(p.Duration, simkernel.Hour)
	res, buf, err := RunFlowerTraced(p, 200000)
	if err != nil {
		return nil, err
	}
	tables := []Table{{Title: fmt.Sprintf("Protocol trace — %d events recorded, %d retained", buf.Total(), buf.Len())}}
	for _, q := range []struct{ title, submittedAs string }{
		{"First access through D-ring", "new-client"},
		{"Member lookup through the content overlay", "member"},
	} {
		for _, e := range buf.Events() {
			if e.Kind == trace.QuerySubmitted && strings.HasPrefix(e.Detail, q.submittedAs) {
				transcript := strings.TrimSuffix(trace.Format(buf.QueryTrace(e.QueryID)), "\n")
				tables = append(tables, Table{
					Title: fmt.Sprintf("%s (query %d):", q.title, e.QueryID),
					Notes: strings.Split(transcript, "\n"),
				})
				break
			}
		}
	}
	return append(tables, Table{Notes: []string{"run summary: " + res.Report.String()}}), nil
}

// massiveTables is rows: stable and, under -churn, with churn.
func massiveTables(_ Params, rows []Row) []Table {
	t := bySide(fmt.Sprintf("100k-client preset (%s simulated)", rows[0].Params.Duration), rows,
		cols(cJoins, cQueries, cHit, cKernel, cLookupMs, cBps, cHeapBytes, cMessages, cRedirFails, cReplaced))
	if len(rows) > 1 {
		stable, churned := rows[0].EventsPerSecond(), rows[1].EventsPerSecond()
		t.Notes = []string{fmt.Sprintf("events/sec stable vs churned: %.0f vs %.0f (%+.1f%%)",
			stable, churned, 100*(churned-stable)/stable)}
	}
	return []Table{t}
}

// violations lists what each row's auditor found, by row label.
func violations(rows []Row) []string {
	var out []string
	for _, r := range rows {
		for _, v := range r.AuditViolations {
			out = append(out, fmt.Sprintf("  %s violation: %s", r.Label, v))
		}
	}
	return out
}

// faultTables is rows: the storm, then the loss-rate sweep.
func faultTables(_ Params, rows []Row) []Table {
	storm := rows[0]
	t := bySide(fmt.Sprintf("Fault storm — %s simulated under loss+jitter+partitions (seed %d)",
		storm.Params.Duration, storm.Params.Seed),
		rows[:1], cols(cHit, cLookupMs, cQueries, cMessages, cRetries, cDirFalls, cOriginFalls, cAudit))
	for _, pw := range storm.Params.Faults.Partitions {
		t.Notes = append(t.Notes, fmt.Sprintf("partition: locality %d cut %s, healed %s", pw.Locality, pw.Start, pw.End))
	}
	for _, r := range storm.Recovery {
		note := fmt.Sprintf("recovery: locality %d saw no directory-mediated hit after heal", r.Locality)
		if r.RecoverMs >= 0 {
			note = fmt.Sprintf("recovery: locality %d first directory-mediated hit %.0f ms after heal", r.Locality, r.RecoverMs)
		}
		t.Notes = append(t.Notes, note)
	}
	t.Notes = append(t.Notes, violations(rows[:1])...)
	return []Table{t, byPoint(fmt.Sprintf("Loss-rate degradation sweep (%s simulated per point)", storm.Params.Duration),
		rows[1:], cols(cLabel("loss"), cHit, cLookupMs, cFaultDrops, cRetries, cOriginFalls))}
}

// dirCrashTables is rows: cold, warm.
func dirCrashTables(_ Params, rows []Row) []Table {
	cold, warm := rows[0], rows[1]
	t := bySide(fmt.Sprintf("Directory crash storm — %s simulated, seed %d", warm.Params.Duration, warm.Params.Seed),
		rows, cols(cHit, cReplaced, cPromotions, cAssigns, cDeltas, cStaleShards, cShed, cOriginFalls, cAudit),
		"crash schedule:")
	for _, dc := range warm.Params.DirCrashes {
		t.Notes = append(t.Notes, fmt.Sprintf("  site %d locality %d at %s", dc.SiteIdx, dc.Locality, dc.At))
	}
	t.Notes = append(t.Notes, violations(rows)...)

	// One line per locality crashed on the cold side; -1 (printed "none")
	// marks a side that never recovered inside the run.
	rec := Table{
		Title:  "per-locality recovery (crash → first hit mediated by the locality's own directory):",
		Header: []string{"locality", "cold(ms)", "warm(ms)", "ratio"},
	}
	ms := func(v float64) string {
		if v < 0 {
			return "none"
		}
		return f0(v)
	}
	var coldSum, warmSum float64
	var n int
	for _, c := range cold.Recovery {
		w := -1.0
		for _, wr := range warm.Recovery {
			if wr.Locality == c.Locality {
				w = wr.RecoverMs
			}
		}
		ratio := "-"
		if c.RecoverMs >= 0 && w > 0 {
			ratio = fmt.Sprintf("%.1fx", c.RecoverMs/w)
		}
		rec.Lines = append(rec.Lines, []string{fmt.Sprint(c.Locality), ms(c.RecoverMs), ms(w), ratio})
		if c.RecoverMs >= 0 && w >= 0 {
			coldSum, warmSum, n = coldSum+c.RecoverMs, warmSum+w, n+1
		}
	}
	if n > 0 && warmSum > 0 {
		rec.Notes = []string{fmt.Sprintf("mean recovery: cold %.0f ms, warm %.0f ms (%.1fx faster warm)",
			coldSum/float64(n), warmSum/float64(n), coldSum/warmSum)}
	}
	return []Table{t, rec}
}

// grayTables is rows: fixed, adaptive.
func grayTables(_ Params, rows []Row) []Table {
	gp := rows[0].Params
	t := bySide(fmt.Sprintf("Gray-failure storm — %s simulated, seed %d", gp.Duration, gp.Seed),
		rows, cols(cHit, cP50Ms, cP99Ms, cRetries, cOriginFalls, cHedges, cHedgeWins, cTrips, cFaultDrops, cAudit),
		"gray schedule:")
	for _, dd := range gp.DirDegrades {
		t.Notes = append(t.Notes, fmt.Sprintf("  directory site %d locality %d slowed ×%.0f during [%s, %s)",
			dd.SiteIdx, dd.Locality, dd.Factor, dd.Start, dd.End))
	}
	for _, r := range gp.Faults.AsymLoss {
		t.Notes = append(t.Notes, fmt.Sprintf("  one-way loss locality %d→%d p=%.2f", r.FromLoc, r.ToLoc, r.Prob))
	}
	for _, f := range gp.Faults.Flap {
		t.Notes = append(t.Notes, fmt.Sprintf("  locality %d uplink flaps %s down per %s during [%s, %s)",
			f.Locality, f.DownFor, f.Period, f.Start, f.End))
	}
	t.Notes = append(t.Notes, violations(rows)...)
	if fixed, adaptive := rows[0].Report.LookupPercentiles.P99, rows[1].Report.LookupPercentiles.P99; adaptive > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("tail latency: adaptive p99 %.1fx better than fixed (%.0f ms vs %.0f ms)",
			fixed/adaptive, adaptive, fixed))
	}
	return []Table{t}
}
