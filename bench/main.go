// Command bench is the repository's benchmark: five named workloads run
// through the flowercdn facade, eight end-to-end metrics measured with
// tracing off, and about a hundred per-layer metrics taken from outside
// the program — layer drivers, a CPU profile grouped by package, and the
// protocol trace a traced run returns. bench/README.md defines every
// workload and metric; BENCHMARK.json (repository root) is the contract.
//
//	bash bench/run.sh -seed 1 -out bench.json     every workload, both parts
//	bash bench/run.sh -compare a.json b.json      apply the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form measures one workload and prints one JSON object as the
// last line of standard output: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "measure only this workload and print the one-line JSON result")
		seed    = flag.Int64("seed", 1, "seed of every workload's inputs")
		seconds = flag.Float64("seconds", 0, "keep adding timed reps until this many seconds of them have run")
		traced  = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		out     = flag.String("out", "", "write the full report (provenance, values, spreads, spans) to this JSON file")
		quick   = flag.Bool("quick", false, "smoke-test size: durations ÷ 20, populations ÷ 10, 1 rep; not comparable")
		compare = flag.Bool("compare", false, "compare two report files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	opts := options{seed: *seed, quick: *quick, minSeconds: *seconds}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		os.Exit(runSingle(w, opts, *traced == 1, *out))
	}
	os.Exit(runAll(opts, *out))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// options are the knobs shared by the run modes.
type options struct {
	seed       int64
	quick      bool
	minSeconds float64
}

// minReps is the least number of timed reps behind a reported median; a
// report with fewer (-quick: one) is tagged not comparable. referenceReps is
// what the per-layer form of the single-workload command runs instead: its
// traced part needs a wall-clock reference, not a tight median.
const (
	minReps       = 5
	referenceReps = 2
)

// timedReps is the least number of timed reps a run with these options
// makes.
func (o options) timedReps() int {
	if o.quick {
		return 1
	}
	return minReps
}

// runAll is the full command: calibration, drivers once, then both parts
// of every workload; prints every metric and writes the report.
func runAll(o options, outPath string) int {
	b := fullBudget
	if o.quick {
		b = quickBudget
	}
	spans := newSpanLog()
	rep := newReport(o)
	rep.CalibrationNs = append(rep.CalibrationNs, calibrate())
	sp := spans.begin("drivers", -1)
	drivers := runDrivers(b.driverMin, spans, sp)
	spans.end(sp)
	for _, w := range workloads {
		sp := spans.begin("workload:"+w.name, -1)
		wr, err := runWorkload(w, o, b, true, drivers, rep.CalibrationNs[0], spans, sp)
		spans.end(sp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		rep.Workloads = append(rep.Workloads, *wr)
		printWorkload(os.Stdout, wr)
	}
	rep.CalibrationNs = append(rep.CalibrationNs, calibrate())
	rep.finish(spans)
	rep.printCalibration(os.Stdout)
	if outPath != "" {
		if err := rep.write(outPath); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if n := rep.failureCount(); n > 0 {
		fmt.Printf("FAIL: %d output checks failed\n", n)
		return 1
	}
	fmt.Println("all output checks passed")
	return 0
}

// runWorkload measures one workload: the timed part always (attribution
// needs its wall-clock reference) and, when the layer drivers' results are
// handed in, the traced part.
func runWorkload(w workload, o options, b budget, wantEndToEnd bool, drivers map[string]float64, calibrationNs float64,
	spans *spanLog, parent int) (*workloadReport, error) {
	reps, minSeconds := o.timedReps(), o.minSeconds
	if !wantEndToEnd {
		reps, minSeconds = min(reps, referenceReps), 0
	}
	m, err := measure(w, o.seed, o.quick, reps, minSeconds, spans, parent)
	if err != nil {
		return nil, err
	}
	wr := &workloadReport{
		Name: w.name, Seed: o.seed, Digest: m.digest, Rounds: m.rounds,
		TimedReps: len(m.samples),
		Submitted: m.submitted, Resolved: m.resolved,
		P99SamplesBeyond: m.p99SamplesBeyond(),
		Failures:         m.failures,
	}
	if wantEndToEnd {
		values := m.endToEndValues()
		wr.EndToEnd = zipMetrics(endToEnd, values)
		wr.Failures = append(wr.Failures, checkFinite(w.name, endToEnd, values)...)
	}
	if drivers != nil {
		a, err := attribute(w, m, drivers, calibrationNs, b, spans, parent)
		if err != nil {
			return nil, err
		}
		values := a.perLayerValues(w.name)
		wr.PerLayer = zipMetrics(perLayer, values)
		wr.Stages = a.stages
		wr.Failures = append(wr.Failures, a.failures...)
		wr.Failures = append(wr.Failures, checkFinite(w.name, perLayer, values)...)
	}
	return wr, nil
}

// runSingle is the single-workload form the benchmark driver calls. It
// prints the result object as the last line of standard output. Simulated
// queries that are still unanswered when a run ends are the modelled
// system's outcome (sim_resolved_frac), not failed operations of the
// program under test: failed counts the queries of runs that returned an
// error or failed an output check, which is all of them or none.
func runSingle(w workload, o options, perLayerMode bool, outPath string) int {
	b := singleBudget
	if o.quick {
		b = quickBudget
	}
	spans := newSpanLog()
	rep := newReport(o)
	var drivers map[string]float64
	calibration := calibrate()
	if perLayerMode {
		sp := spans.begin("drivers", -1)
		drivers = runDrivers(b.driverMin, spans, sp)
		spans.end(sp)
	}
	sp := spans.begin("workload:"+w.name, -1)
	wr, err := runWorkload(w, o, b, !perLayerMode, drivers, calibration, spans, sp)
	spans.end(sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	rep.CalibrationNs = []float64{calibration, calibrate()}
	rep.Workloads = append(rep.Workloads, *wr)
	rep.finish(spans)
	printWorkload(os.Stdout, wr)
	rep.printCalibration(os.Stdout)
	if outPath != "" {
		if err := rep.write(outPath); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(wr.Failures) == 0, Metrics: map[string]value{}}
	result.Attempted = wr.Submitted * int64(wr.Rounds) * int64(wr.TimedReps)
	if !result.Correct {
		result.Failed = result.Attempted
	}
	for _, m := range append(wr.EndToEnd, wr.PerLayer...) {
		result.Metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
