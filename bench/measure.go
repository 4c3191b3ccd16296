package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"flowercdn"
)

// pass is one untraced execution of a workload's point list through the
// facade: RunFlower for a single run, RunCampaign (sequential) for the
// campaign.
func pass(points []flowercdn.Point) ([]flowercdn.Result, error) {
	if len(points) == 1 {
		res, err := flowercdn.RunFlower(points[0].Params)
		if err != nil {
			return nil, err
		}
		return []flowercdn.Result{res}, nil
	}
	return flowercdn.RunCampaign(points, 1)
}

// digest condenses everything deterministic about a pass — event and
// query counts, who served, messages and bytes by category, joins and the
// retry/fallback/hedge tallies — so that "the same simulation happened"
// is one string comparison.
func digest(results []flowercdn.Result) string {
	h := sha256.New()
	for _, r := range results {
		rep := r.Report
		fmt.Fprintf(h, "ev=%d q=%d hits=%d", r.Events, rep.TotalQueries, rep.Hits)
		for _, s := range servedSources {
			fmt.Fprintf(h, " %s=%d", s, rep.BySource[s])
		}
		for _, t := range rep.Traffic {
			fmt.Fprintf(h, " %s=%d/%d", t.Category, t.Messages, t.Bytes)
		}
		fmt.Fprintf(h, " sent=%d dead=%d fault=%d joins=%d repl=%d requeried=%d",
			r.MessagesSent, r.MessagesDropped, r.FaultDrops,
			r.Stats.Joins, r.Stats.DirReplacements, r.Stats.QueriesRetried)
		fmt.Fprintf(h, " retries=%d dirfb=%d originfb=%d hedges=%d wins=%d trips=%d redirfail=%d\n",
			rep.Retries, rep.DirFallbacks, rep.OriginFallbacks,
			rep.Hedges, rep.HedgeWins, rep.BreakerTrips, rep.RedirectFailures)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// hostSample is what one timed rep cost the host.
type hostSample struct {
	wall       float64 // seconds across the facade calls
	kernelWall float64 // Σ Result.WallSeconds: time inside Kernel.Run
	mallocs    float64
	allocBytes float64
	gcCycles   float64
	gcPauseMs  float64
	gcCPU      float64 // seconds of GC CPU
	busyCPU    float64 // seconds of non-idle CPU
}

var cpuClassSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

// cpuClasses reads the runtime's GC and non-idle CPU-second estimates.
func cpuClasses() (gc, busy float64) {
	metrics.Read(cpuClassSamples)
	gc = cpuClassSamples[0].Value.Float64()
	return gc, cpuClassSamples[1].Value.Float64() - cpuClassSamples[2].Value.Float64()
}

// timedRep runs the point list rounds times and measures the host cost
// around the facade calls. Every round must reproduce the first round's
// digest. The forced collection before the clock starts gives every rep
// the same starting heap.
func timedRep(points []flowercdn.Point, rounds int) (hostSample, []flowercdn.Result, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, busy0 := cpuClasses()
	var s hostSample
	var first, last []flowercdn.Result
	start := time.Now()
	for round := 0; round < rounds; round++ {
		results, err := pass(points)
		if err != nil {
			return s, nil, err
		}
		for _, r := range results {
			s.kernelWall += r.WallSeconds
		}
		if round == 0 {
			first = results
		}
		last = results
	}
	s.wall = time.Since(start).Seconds()
	gc1, busy1 := cpuClasses()
	runtime.ReadMemStats(&after)
	s.mallocs = float64(after.Mallocs - before.Mallocs)
	s.allocBytes = float64(after.TotalAlloc - before.TotalAlloc)
	s.gcCycles = float64(after.NumGC - before.NumGC)
	s.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	s.gcCPU = gc1 - gc0
	s.busyCPU = busy1 - busy0
	if d0, d := digest(first), digest(last); d != d0 {
		return s, nil, fmt.Errorf("round %d digest %s differs from round 0 digest %s", rounds-1, d, d0)
	}
	return s, first, nil
}

// summary is one metric's reported value with the range and count of the
// per-rep values behind it. The value is their median, except for setup_s
// (see floor).
type summary struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	m := v[len(v)/2]
	if len(v)%2 == 0 {
		m = (v[len(v)/2-1] + v[len(v)/2]) / 2
	}
	return summary{Value: m, Min: v[0], Max: v[len(v)-1], N: len(v)}
}

// floor reports the smallest per-rep value instead of the median. It is
// used for setup_s alone: most of a single run's set-up time is the
// post-run Snapshot sorting its latency samples, and in 20–60 % of reps
// (depending on the machine's mood) a concurrent GC cycle overlaps it and
// adds a third to its duration. That makes the median bimodal — it flips
// between the two modes from run to run — while the floor repeats within
// a few per cent.
func floor(values []float64) summary {
	s := summarize(values)
	s.Value = s.Min
	return s
}

func exact(v float64) summary { return summary{Value: v, Min: v, Max: v, N: 1} }

// measured is the outcome of the untraced part of a workload: the warm-up
// (which doubles as the memory pass), then the timed reps.
type measured struct {
	points    []flowercdn.Point
	rounds    int
	results   []flowercdn.Result // one round; identical across reps
	digest    string
	samples   []hostSample
	heapBytes float64 // live heap the run retains, per potential client
	submitted int64   // queries issued per round
	resolved  int64   // queries answered per round
	failures  []string
}

func (m *measured) fail(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

// heapLive forces a collection and returns the live heap.
func heapLive() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// measure warms up, then runs at least reps timed reps and keeps going
// until minSeconds of timed work have accumulated.
//
// The warm-up runs point 0 with MeasureMemory set, which fills the shared
// interner and grows the heap to its working size before the clock ever
// starts, and yields heap_bytes_per_client: the heap the run holds at its
// end, less what was live before it, per potential client.
func measure(w workload, seed int64, quick bool, reps int, minSeconds float64, spans *spanLog, parent int) (*measured, error) {
	m := &measured{points: w.points(seed, quick), rounds: w.rounds}
	if quick {
		m.rounds = 1
	}

	sp := spans.begin("warmup+memory", parent)
	liveBefore := heapLive()
	p0 := m.points[0].Params
	p0.MeasureMemory = true
	warm, err := flowercdn.RunFlower(p0)
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	n := float64(clients(p0))
	m.heapBytes = (warm.BytesPerClient*n - liveBefore) / n
	if len(m.points) > 1 {
		if _, err := pass(m.points); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
	}
	spans.end(sp)

	elapsed := 0.0
	for i := 0; i < reps || elapsed < minSeconds; i++ {
		sp := spans.begin(fmt.Sprintf("rep[%d]", i), parent)
		s, results, err := timedRep(m.points, m.rounds)
		spans.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", w.name, i, err)
		}
		d := digest(results)
		if i == 0 {
			m.results, m.digest = results, d
		} else if d != m.digest {
			m.fail("rep %d digest %s differs from rep 0 digest %s", i, d, m.digest)
		}
		m.samples = append(m.samples, s)
		elapsed += s.wall
	}
	if d, want := digest([]flowercdn.Result{warm}), digest(m.results[:1]); d != want {
		m.fail("memory pass digest %s differs from the timed reps' %s: MeasureMemory perturbed the simulation", d, want)
	}
	for _, pt := range m.points {
		m.submitted += submitted(pt.Params)
	}
	for _, r := range m.results {
		m.resolved += r.Report.TotalQueries
	}
	m.failures = append(m.failures, checkResults(w, m.results, m.points, quick)...)
	return m, nil
}

// p99SamplesBeyond is how many lookup samples of a run rank above the one
// Report.LookupPercentiles.P99 reports (nearest rank), the fewest over the
// points. A run's sample count is the total of its latency histogram: the
// collector files every answered query, local hits at 0 ms included, in
// both.
func (m *measured) p99SamplesBeyond() int64 {
	fewest := int64(-1)
	for _, r := range m.results {
		n := int64(0)
		for _, bin := range r.Report.LatencyHist {
			n += bin.Count
		}
		beyond := n - min(n, max(1, int64(0.99*float64(n)+0.5)))
		if fewest < 0 || beyond < fewest {
			fewest = beyond
		}
	}
	return fewest
}

// column extracts one field of every host sample.
func (m *measured) column(f func(hostSample) float64) []float64 {
	out := make([]float64, len(m.samples))
	for i, s := range m.samples {
		out[i] = f(s)
	}
	return out
}

// meanOver averages a report field over the points of one round.
func (m *measured) meanOver(f func(flowercdn.Report) float64) float64 {
	sum := 0.0
	for _, r := range m.results {
		sum += f(r.Report)
	}
	return sum / float64(len(m.results))
}

// endToEndValues returns the end-to-end metrics in spec order. Host
// metrics summarise the timed reps; simulated ones repeat exactly.
func (m *measured) endToEndValues() []summary {
	values := map[string]summary{
		"wall_s":  summarize(m.column(func(s hostSample) float64 { return s.wall })),
		"setup_s": floor(m.column(func(s hostSample) float64 { return s.wall - s.kernelWall })),
		"allocs_per_run": summarize(m.column(func(s hostSample) float64 {
			return s.mallocs
		})),
		"alloc_mb_per_run": summarize(m.column(func(s hostSample) float64 {
			return s.allocBytes / 1e6
		})),
		"heap_bytes_per_client": exact(m.heapBytes),
		"sim_hit_ratio":         exact(m.meanOver(func(r flowercdn.Report) float64 { return r.HitRatio })),
		"sim_background_bps":    exact(m.meanOver(func(r flowercdn.Report) float64 { return r.BackgroundBps })),
		"sim_resolved_frac":     exact(float64(m.resolved) / float64(m.submitted)),
	}
	out := make([]summary, len(endToEnd))
	for i, s := range endToEnd {
		out[i] = values[s.Name]
	}
	return out
}
