package main

import (
	"fmt"
	"io"
	"math"
)

// verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// spread is a metric's min–max range over its reps as a share of its
// value.
func spread(s summary) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Value)
}

// boundFor is the bound -compare applies to a metric: the same-seed bound
// between two reports of one seed, else the cross-seed bound BENCHMARK.json
// carries. Zero means the metric is not judged.
func boundFor(sp spec, sameSeed bool) float64 {
	if sameSeed && sp.SameSeed > 0 {
		return sp.SameSeed
	}
	return sp.Bound
}

// judge applies a bound to a baseline a and a candidate b. A row whose own
// run-to-run spread exceeds the bound on either side cannot resolve a
// change of the bound's size: unresolved, not unchanged.
func judge(sp spec, bound float64, a, b summary) string {
	if !sp.Floor && (spread(a) > bound || spread(b) > bound) {
		return verdictUnresolved
	}
	worsening := b.Value - a.Value
	if sp.Better == higher {
		worsening = -worsening
	}
	if worsening > math.Max(bound*math.Abs(a.Value), sp.AbsFloor) {
		return verdictWorse
	}
	return verdictOK
}

// comparable refuses report pairs whose host numbers come from different
// machines or build settings.
func comparable(a, b *report) error {
	pa, pb := a.Provenance, b.Provenance
	switch {
	case pa.CPUModel != pb.CPUModel:
		return fmt.Errorf("CPU model differs: %q vs %q", pa.CPUModel, pb.CPUModel)
	case pa.NumCPU != pb.NumCPU:
		return fmt.Errorf("nproc differs: %d vs %d", pa.NumCPU, pb.NumCPU)
	case pa.GOMAXPROCS != pb.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", pa.GOMAXPROCS, pb.GOMAXPROCS)
	case pa.GOGC != pb.GOGC:
		return fmt.Errorf("GOGC differs: %s vs %s", pa.GOGC, pb.GOGC)
	case pa.GoVersion != pb.GoVersion:
		return fmt.Errorf("Go version differs: %s vs %s", pa.GoVersion, pb.GoVersion)
	case a.Quick != b.Quick:
		return fmt.Errorf("one report is -quick, the other is not")
	case a.Quick:
		return fmt.Errorf("-quick reports are not comparable")
	}
	return nil
}

// runCompare prints one row per (workload, bounded metric) of two report
// files and returns the exit code: 1 when any row is worse, 2 when the
// files cannot be compared.
func runCompare(w io.Writer, pathA, pathB string) int {
	refuse := func(err error) int {
		fmt.Fprintf(w, "bench -compare: %v\n", err)
		return 2
	}
	a, err := readReport(pathA)
	if err != nil {
		return refuse(err)
	}
	b, err := readReport(pathB)
	if err != nil {
		return refuse(err)
	}
	if err := comparable(a, b); err != nil {
		return refuse(err)
	}
	return compareReports(w, a, b)
}

func compareReports(w io.Writer, a, b *report) int {
	fmt.Fprintf(w, "a: commit %s seed %d   b: commit %s seed %d   (%s, nproc %d, %s)\n",
		a.Provenance.Commit, a.Seed, b.Provenance.Commit, b.Seed,
		a.Provenance.CPUModel, a.Provenance.NumCPU, a.Provenance.GoVersion)
	sameSeed := a.Seed == b.Seed
	if sameSeed {
		fmt.Fprintln(w, "same seed: the same-seed bounds apply, and the simulated latency figures are judged too")
	} else {
		fmt.Fprintln(w, "different seeds: the cross-seed bounds of BENCHMARK.json apply")
	}
	if a.Noisy || b.Noisy {
		fmt.Fprintf(w, "NOISY: the calibration spin drifted by more than %.0f %% during a run (a=%v b=%v); timings are suspect\n",
			100*noisyGap, a.Noisy, b.Noisy)
	}
	byName := map[string]workloadReport{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	worse := 0
	fmt.Fprintf(w, "%-16s %-28s %14s %8s %14s %8s %9s %6s  %s\n",
		"workload", "metric", "a value", "a spread", "b value", "b spread", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from b\n", wa.Name)
			worse++
			continue
		}
		same := "same"
		if wa.Digest != wb.Digest {
			same = "DIFFERS (the two runs simulated different things)"
		}
		fmt.Fprintf(w, "%-16s digest %s vs %s: %s\n", wa.Name, wa.Digest, wb.Digest, same)
		inB := map[string]metricReport{}
		for _, m := range append(wb.EndToEnd, wb.PerLayer...) {
			inB[m.Name] = m
		}
		for _, ma := range append(wa.EndToEnd, wa.PerLayer...) {
			bound := boundFor(ma.spec, sameSeed)
			if bound == 0 {
				continue
			}
			mb, ok := inB[ma.Name]
			if !ok {
				fmt.Fprintf(w, "%-16s %-28s missing from b\n", wa.Name, ma.Name)
				worse++
				continue
			}
			verdict := judge(ma.spec, bound, ma.summary, mb.summary)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-16s %-28s %14.6g %7.2f%% %14.6g %7.2f%% %+8.2f%% %5.1f%%  %s\n",
				wa.Name, ma.Name, ma.Value, 100*spread(ma.summary), mb.Value, 100*spread(mb.summary),
				100*ratio(mb.Value-ma.Value, math.Abs(ma.Value)), 100*bound, verdict)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d rows worse than their bound\n", worse)
		return 1
	}
	fmt.Fprintln(w, "no row worse than its bound")
	return 0
}
