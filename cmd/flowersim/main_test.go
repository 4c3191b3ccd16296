package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flowercdn"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// sim runs the CLI in-process, exactly as main does, and returns what it
// wrote and its exit code.
func sim(args ...string) (stdout, stderr string, code int) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return out.String(), errs.String(), code
}

// golden compares got with testdata/<name>.golden (or rewrites it under
// -update).
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/flowersim -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s (rerun with -update if the change is meant):\n--- got\n%s\n--- want\n%s",
			name, path, got, want)
	}
}

// TestTranscripts pins every view's layout and numbers at laptop scale: the
// seventeen views of `-exp all`, and the four deterministic experiments
// outside it.
func TestTranscripts(t *testing.T) {
	for name, args := range map[string][]string{
		"all":      {"-exp", "all", "-scale", "small", "-hours", "1", "-seed", "1", "-quiet"},
		"trace":    {"-exp", "trace", "-scale", "small", "-seed", "1"},
		"faults":   {"-exp", "faults", "-loss", "0,0.05", "-scale", "small", "-seed", "1"},
		"dircrash": {"-exp", "dircrash", "-scale", "small", "-seed", "1"},
		"gray":     {"-exp", "gray", "-scale", "small", "-seed", "1"},
	} {
		t.Run(name, func(t *testing.T) {
			out, errs, code := sim(args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errs)
			}
			golden(t, name, out)
		})
	}
}

// cells splits an aligned grid line: the renderer sets columns at least two
// spaces apart.
var cells = regexp.MustCompile(` {2,}`)

// maskMeasured blanks the quantities that are measured rather than
// simulated — wall clock, throughput, heap footprint — in both layouts: a
// by-side line is masked when its first cell names one, a by-point column
// when its header does.
func maskMeasured(out string) string {
	measured := map[string]bool{"wall (s)": true, "events/sec": true, "heap bytes/client": true}
	var masked []int // by-point: the measured columns of the current grid
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		cs := cells.Split(line, -1)
		switch {
		case line == "":
			masked = nil
		case measured[cs[0]]:
			for i := 1; i < len(cs); i++ {
				cs[i] = "~"
			}
		case masked == nil:
			for i, c := range cs {
				if measured[c] {
					masked = append(masked, i)
				}
			}
		default:
			for _, i := range masked {
				if i < len(cs) {
					cs[i] = "~"
				}
			}
		}
		lines = append(lines, strings.Join(cs, "  "))
	}
	return strings.Join(lines, "\n")
}

// TestScaleTranscripts pins the scale experiments' simulated columns: event
// counts by class and queue are deterministic per seed; what the machine
// decides is masked.
func TestScaleTranscripts(t *testing.T) {
	for name, args := range map[string][]string{
		"population": {"-exp", "population", "-scale", "small", "-seed", "1", "-quiet"},
		"dirstress":  {"-exp", "dirstress", "-hours", "1", "-scale", "small", "-seed", "1", "-quiet"},
	} {
		t.Run(name, func(t *testing.T) {
			out, errs, code := sim(args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errs)
			}
			masked := maskMeasured(out)
			if !strings.Contains(masked, "~") || strings.Count(masked, "\n") < 4 {
				t.Fatalf("no measured cells or no table in:\n%s", out)
			}
			golden(t, name, masked)
		})
	}
}

// TestMassiveView renders the 100k preset's view from canned rows — the
// preset itself is seconds of wall clock and gigabytes of events, not a unit
// test — with and without the -churn side.
func TestMassiveView(t *testing.T) {
	canned := func(label string, scale uint64) flowercdn.Row {
		r := flowercdn.Row{Label: label}
		r.Params = flowercdn.Massive100kParams(1)
		r.Report.TotalQueries, r.Report.HitRatio = int64(720000*scale), 0.5/float64(scale)
		r.Report.AvgLookupMs, r.Report.BackgroundBps = 300*float64(scale), 12.5
		r.Report.RedirectFailures = int64(40 * (scale - 1))
		r.Stats.Joins, r.Stats.DirReplacements = 100000, int(7*(scale-1))
		r.Events, r.PeriodicEvents, r.ElidedEvents = 9000000*scale, 2000000, 500000
		r.NearEvents, r.FarEvents, r.FarHeapPeak = 6500000*scale, 500000, 4096
		r.WallSeconds, r.BytesPerClient = 3*float64(scale), 1327
		r.MessagesSent, r.MessagesDropped = 8000000*scale, 90000*(scale-1)
		return r
	}
	for _, e := range flowercdn.Experiments() {
		for _, v := range e.Views {
			if v.Name != "massive" {
				continue
			}
			var out bytes.Buffer
			for _, rows := range [][]flowercdn.Row{
				{canned("stable", 1)},
				{canned("stable", 1), canned("with churn", 2)},
			} {
				for _, table := range v.Tables(flowercdn.ScaledParams(1), rows) {
					render(&out, table)
					out.WriteString("\n")
				}
			}
			golden(t, "massive", out.String())
			return
		}
	}
	t.Fatal("no massive view registered")
}

// TestParallelInvariant drives the campaign pool through the real binary
// path: a sweep's transcript must not depend on the worker count.
func TestParallelInvariant(t *testing.T) {
	args := []string{"-exp", "table2b", "-scale", "small", "-hours", "1", "-seed", "1", "-quiet"}
	one, _, code1 := sim(append(args, "-parallel", "1")...)
	four, _, code4 := sim(append(args, "-parallel", "4")...)
	if code1 != 0 || code4 != 0 || one == "" {
		t.Fatalf("exit %d / %d, %d bytes", code1, code4, len(one))
	}
	if one != four {
		t.Fatalf("-parallel 4 differs from -parallel 1:\n%s\n---\n%s", four, one)
	}
}

// TestListMatchesRegistry: -list is the registry, name by name, plus "all";
// names are unique and every entry documents itself.
func TestListMatchesRegistry(t *testing.T) {
	var want []string
	seen := map[string]bool{}
	for i, e := range flowercdn.Experiments() {
		if len(e.Views) == 0 || (e.Points == nil) == (e.Custom == nil) {
			t.Errorf("entry %d: %d views, points set: %v, custom set: %v", i, len(e.Views), e.Points != nil, e.Custom != nil)
		}
		for _, v := range e.Views {
			if v.Name == "" || v.Name == "all" || seen[v.Name] {
				t.Errorf("entry %d: view name %q is empty, reserved or taken", i, v.Name)
			}
			if v.Doc == "" || (v.Tables == nil) != (e.Custom != nil) {
				t.Errorf("%s: doc %q, tables set: %v, custom run: %v", v.Name, v.Doc, v.Tables != nil, e.Custom != nil)
			}
			seen[v.Name] = true
			want = append(want, v.Name)
		}
	}
	want = append(want, "all")
	out, _, code := sim("-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		name, doc, _ := strings.Cut(line, " ")
		if strings.TrimSpace(doc) == "" {
			t.Errorf("-list line %q has no doc", line)
		}
		got = append(got, name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("-list names\n%v\nregistry\n%v", got, want)
	}
	// Names may be added; the ones scripts, CI and docs already use may not go.
	for _, name := range strings.Fields(`table2a table2b table2c fig5 fig6 fig7 fig8 headline push-threshold
		query-policy churn home-store conditional-routing substrates active-replication scale-up sweep trace
		population massive dirstress faults dircrash gray`) {
		if !seen[name] {
			t.Errorf("experiment %q is gone from the registry", name)
		}
	}
}

// TestUsageErrors: bad input exits 2 before anything is simulated.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "no-such-experiment", "-scale", "small"},
		{"-exp", "headline", "-scale", "bogus"},
		{"-exp", "faults", "-scale", "small", "-loss", "2"},
		{"-exp", "faults", "-scale", "small", "-loss", "0.1,x"},
		{"-exp", "headline", "-scale", "small", "-hours", "-3"},
		{"-no-such-flag"},
	} {
		out, errs, code := sim(args...)
		if code != 2 || out != "" || errs == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with a message on stderr only", args, code, out, errs)
		}
	}
}
