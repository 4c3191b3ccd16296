package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// provenance says where a report's host numbers come from. -compare
// refuses two reports that differ in any field but Commit and Time.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Time       string `json:"time"`
}

func readProvenance() provenance {
	p := provenance{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       "100",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if v := os.Getenv("GOGC"); v != "" {
		p.GOGC = v
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git work tree (the benchmark driver's checkout) the commit
	// stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	return p
}

// metricReport is one metric of one workload: its declaration, its value
// and the range of the per-rep values behind it.
type metricReport struct {
	spec
	summary
}

func zipMetrics(specs []spec, values []summary) []metricReport {
	out := make([]metricReport, len(specs))
	for i := range specs {
		out[i] = metricReport{specs[i], values[i]}
	}
	return out
}

// workloadReport is everything measured on one workload.
type workloadReport struct {
	Name      string `json:"name"`
	Seed      int64  `json:"seed"`
	Digest    string `json:"digest"`
	Rounds    int    `json:"rounds_per_rep"`
	TimedReps int    `json:"timed_reps"`
	Submitted int64  `json:"queries_submitted_per_round"`
	Resolved  int64  `json:"queries_resolved_per_round"`
	// P99SamplesBeyond is how many of a run's lookup samples lie beyond its
	// reported p99 (campaign: the fewest over the points whose p99s are
	// averaged).
	P99SamplesBeyond int64                 `json:"p99_samples_beyond"`
	EndToEnd         []metricReport        `json:"end_to_end,omitempty"`
	PerLayer         []metricReport        `json:"per_layer,omitempty"`
	Stages           map[string]stageStats `json:"simulated_stages,omitempty"`
	Failures         []string              `json:"failed_checks"`
}

// report is the JSON file the full command writes.
type report struct {
	Provenance provenance `json:"provenance"`
	Seed       int64      `json:"seed"`
	MinReps    int        `json:"min_reps"`
	Quick      bool       `json:"quick"`
	// CalibrationNs holds the noise canary's duration before the first and
	// after the last workload; Noisy is set when they differ by over 5 %.
	CalibrationNs []float64        `json:"calibration_ns"`
	Noisy         bool             `json:"noisy"`
	Workloads     []workloadReport `json:"workloads"`
	HostSpans     []span           `json:"host_spans"`
}

func newReport(o options) *report {
	return &report{Provenance: readProvenance(), Seed: o.seed, MinReps: o.timedReps(), Quick: o.quick}
}

const noisyGap = 0.05

func (r *report) finish(spans *spanLog) {
	if len(r.CalibrationNs) == 2 && r.CalibrationNs[0] > 0 {
		r.Noisy = math.Abs(r.CalibrationNs[1]/r.CalibrationNs[0]-1) > noisyGap
	}
	r.HostSpans = spans.spans
}

func (r *report) printCalibration(w io.Writer) {
	fmt.Fprintf(w, "calibration spin %.1f ms before, %.1f ms after: noisy=%v\n",
		r.CalibrationNs[0]/1e6, r.CalibrationNs[1]/1e6, r.Noisy)
}

func (r *report) failureCount() int {
	n := 0
	for _, w := range r.Workloads {
		n += len(w.Failures)
	}
	return n
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printWorkload prints every metric of a workload by name with its unit,
// the range of its per-rep values and the rep count.
func printWorkload(w io.Writer, wr *workloadReport) {
	fmt.Fprintf(w, "== %s  seed=%d digest=%s reps=%d rounds/rep=%d queries=%d/%d p99-samples-beyond=%d\n",
		wr.Name, wr.Seed, wr.Digest, wr.TimedReps, wr.Rounds, wr.Resolved, wr.Submitted, wr.P99SamplesBeyond)
	for _, m := range wr.EndToEnd {
		fmt.Fprintf(w, "%-16s %-28s %16.6g %-9s [%.6g .. %.6g] n=%d  bound %.3g %s-is-better\n",
			wr.Name, m.Name, m.Value, m.Unit, m.Min, m.Max, m.N, m.Bound, m.Better)
	}
	for _, m := range wr.PerLayer {
		fmt.Fprintf(w, "%-16s %-36s %16.6g %s\n", wr.Name, m.Name, m.Value, m.Unit)
	}
	for _, name := range stageNames {
		if st, ok := wr.Stages[name]; ok {
			fmt.Fprintf(w, "%-16s stage %-6s queries=%d p50=%.0f p99=%.0f max=%.0f sim_ms\n",
				wr.Name, name, st.Count, st.P50Ms, st.P99Ms, st.MaxMs)
		}
	}
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "%-16s CHECK FAILED: %s\n", wr.Name, f)
	}
}
