package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"flowercdn"
	"flowercdn/internal/trace"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []spec `json:"end_to_end"`
	PerLayer []spec `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONMatchesSpecs keeps the contract file and the tables the
// program emits from equal, and inside the contract's limits.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	c := readContract(t)
	if n := len(c.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program (limits 2–8)", n, len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed the limits of 16 and 128", len(c.EndToEnd), len(c.PerLayer))
	}
	seen := map[string]bool{}
	check := func(kind string, got, want []spec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			w.SameSeed, w.AbsFloor, w.Floor = 0, 0, false // the program's refinements, not part of the contract
			if g != w {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s metric %q (unit %q) is outside the contract's character set", kind, g.Name, g.Unit)
			}
			if g.Better != lower && g.Better != higher {
				t.Errorf("%s metric %s: better is %q", kind, g.Name, g.Better)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v is outside (0, 0.25]", kind, g.Name, g.Bound)
			}
			if seen[g.Name] {
				t.Errorf("metric name %s is used twice", g.Name)
			}
			seen[g.Name] = true
		}
	}
	check("end-to-end", c.EndToEnd, endToEnd, true)
	check("per-layer", c.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("the contract requires an end-to-end metric named setup_s")
	}
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
}

// TestQuickRun drives the whole command at smoke-test size and checks
// that every workload reports every declared metric exactly once and that
// every output check passes.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	c := readContract(t)
	out := filepath.Join(t.TempDir(), "bench.json")
	if code := runAll(options{seed: 1, quick: true}, out); code != 0 {
		t.Fatalf("bench -quick exited with %d", code)
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Quick {
		t.Error("a -quick report must be tagged quick (not comparable)")
	}
	if len(rep.HostSpans) == 0 {
		t.Error("no host spans were recorded")
	}
	byName := map[string][]workloadReport{}
	for _, w := range rep.Workloads {
		byName[w.Name] = append(byName[w.Name], w)
	}
	for _, cw := range c.Workloads {
		got := byName[cw.Name]
		if len(got) != 1 {
			t.Errorf("workload %s reported %d times", cw.Name, len(got))
			continue
		}
		w := got[0]
		if len(w.Failures) != 0 {
			t.Errorf("%s: failed checks: %v", w.Name, w.Failures)
		}
		count := map[string]int{}
		for _, m := range append(w.EndToEnd, w.PerLayer...) {
			count[m.Name]++
		}
		for _, s := range append(c.EndToEnd, c.PerLayer...) {
			if count[s.Name] != 1 {
				t.Errorf("%s: metric %s emitted %d times", w.Name, s.Name, count[s.Name])
			}
		}
		if len(count) != len(c.EndToEnd)+len(c.PerLayer) {
			t.Errorf("%s: %d metrics emitted, %d declared", w.Name, len(count), len(c.EndToEnd)+len(c.PerLayer))
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		want  string
		stack []string
	}{
		{"bloom", []string{"flowercdn/internal/bloom.(*Filter).TestHash", "flowercdn/internal/gossip.(*View).MatchingSummaries"}},
		{"simkernel", []string{"flowercdn/internal/simkernel.(*eventHeap).pop", "flowercdn/internal/simkernel.(*Kernel).Run"}},
		{"harness", []string{"flowercdn.RunFlower", "main.pass"}},
		{"other", []string{"flowercdn/internal/squirrel.(*System).Submit"}},
		{"other", []string{"sort.insertionSort", "flowercdn/internal/chord.(*Node).KnownPeers"}},
		{"other", []string{"slices.SortFunc[go.shape.[]flowercdn/internal/gossip.Entry]", "flowercdn/internal/gossip.(*View).Merge"}},
		{"runtime_malloc", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "flowercdn/internal/core.(*System).Submit"}},
		{"runtime_malloc", []string{"runtime.(*mspan).init", "runtime.(*mcentral).grow", "runtime.(*mcache).refill", "runtime.mallocgc", "flowercdn/internal/bloom.New"}},
		{"runtime_gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{"runtime_gc", []string{"runtime.(*gcWork).tryGet", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.mallocgc", "flowercdn/internal/core.(*System).await"}},
		{"runtime_gc", []string{"runtime.(*sweepLocked).sweep", "runtime.(*mcentral).cacheSpan", "runtime.mallocgc"}},
		{"runtime_other", []string{"runtime.mapaccess2_fast64", "flowercdn/internal/dring.(*Directory).slotFor"}},
		{"runtime_other", []string{"runtime.memmove", "flowercdn/internal/gossip.(*View).Merge"}},
		{"other", nil},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	shares, total := cpuShares([]stackSample{
		{count: 3, stack: []string{"flowercdn/internal/bloom.(*Filter).TestHash"}},
		{count: 1, stack: []string{"runtime.mallocgc", "flowercdn/internal/core.(*System).Submit"}},
	})
	if total != 4 || shares["bloom"] != 0.75 || shares["runtime_malloc"] != 0.25 || shares["core"] != 0 {
		t.Errorf("cpuShares = %v over %d samples", shares, total)
	}
}

// TestParseProfile decodes a real profile of this test spinning.
func TestParseProfile(t *testing.T) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		raw, err := cpuProfile(func() error {
			for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
				calibrate()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		samples, err := parseProfile(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if s.count > 0 && len(s.stack) > 0 && strings.HasSuffix(s.stack[0], ".calibrate") {
				if got := layerOf(s.stack); got != "other" {
					t.Errorf("the bench's own frames belong to other, got %s", got)
				}
				return
			}
		}
	}
	t.Fatal("no profile sample with calibrate as its leaf within 5 s")
}

func TestStageCollector(t *testing.T) {
	ev := func(at flowercdn.Time, kind trace.Kind, q uint64, detail string) flowercdn.TraceEvent {
		return flowercdn.TraceEvent{At: at, Kind: kind, QueryID: q, Peer: -1, Detail: detail}
	}
	var c stageCollector
	c.add([]flowercdn.TraceEvent{
		// q1: a new client routed over two hops; its first redirect fails,
		// the second holder answers.
		ev(0, trace.QuerySubmitted, 1, "new-client ws-001/o1"),
		ev(40, trace.RouteHop, 1, ""),
		ev(90, trace.RouteHop, 1, ""),
		ev(150, trace.DirProcess, 1, ""),
		ev(150, trace.Redirect, 1, ""),
		// q2: a member whose first contact nacks.
		ev(200, trace.QuerySubmitted, 2, "member ws-001/o2"),
		ev(200, trace.PeerQuery, 2, ""),
		ev(260, trace.PeerNack, 2, ""),
		ev(260, trace.PeerQuery, 2, ""),
		ev(300, trace.Served, 2, ""),
		ev(2150, trace.RedirectFailed, 1, ""),
		ev(2150, trace.DirProcess, 1, ""),
		ev(2150, trace.Redirect, 1, ""),
		ev(2230, trace.Served, 1, ""),
		// Not query-scoped, and a query still in flight at the end.
		ev(2500, trace.DirReplaced, 0, ""),
		ev(2600, trace.QuerySubmitted, 3, "member ws-001/o3"),
		ev(2600, trace.ServerFetch, 3, ""),
	})
	st := c.stats()
	want := map[string]stageStats{
		"route": {Count: 1, P50Ms: 150, P99Ms: 150, MaxMs: 150},
		"dir":   {Count: 1, P50Ms: 2000, P99Ms: 2000, MaxMs: 2000},
		"fetch": {Count: 2, P50Ms: 80, P99Ms: 80, MaxMs: 80},
	}
	for name, w := range want {
		if st[name] != w {
			t.Errorf("stage %s = %+v, want %+v", name, st[name], w)
		}
	}
	if c.counts.newClients != 1 || c.counts.of(trace.RouteHop) != 2 || c.counts.of(trace.PeerQuery) != 2 ||
		c.counts.of(trace.PeerNack) != 1 || c.counts.of(trace.Redirect) != 2 {
		t.Errorf("counts = %+v", c.counts)
	}
	// The fetch durations were 40 (q2) and 80 (q1): p50 of two sorted
	// samples indexes the upper one.
	if d := c.durations["fetch"]; len(d) != 2 || d[0] != 40 || d[1] != 80 {
		t.Errorf("fetch durations = %v", d)
	}
}

func TestJudgeAndComparable(t *testing.T) {
	wall := spec{Name: "wall_s", Better: lower, Bound: 0.25, SameSeed: 0.05}
	hit := spec{Name: "sim_hit_ratio", Better: higher, Bound: 0.02, SameSeed: 0.02}
	setup := spec{Name: "setup_s", Better: lower, Bound: 0.25, SameSeed: 0.20, AbsFloor: 0.010, Floor: true}
	p99 := spec{Name: "harness.sim_lookup_p99_ms", Better: lower, SameSeed: 0.02}
	tight := func(m float64) summary { return summary{Value: m, Min: m * 0.99, Max: m * 1.01, N: 5} }
	const same, cross = true, false
	cases := []struct {
		sp       spec
		sameSeed bool
		a, b     summary
		want     string
	}{
		{wall, same, tight(2.0), tight(2.08), verdictOK},
		{wall, same, tight(2.0), tight(2.12), verdictWorse},
		{wall, cross, tight(2.0), tight(2.12), verdictOK}, // a change of seed may cost 6 %
		{wall, cross, tight(2.0), tight(2.6), verdictWorse},
		{wall, same, tight(2.0), tight(1.5), verdictOK},
		{wall, same, tight(2.0), summary{Value: 2.3, Min: 2.0, Max: 2.4, N: 5}, verdictUnresolved},
		{hit, same, exact(0.86), exact(0.85), verdictOK},
		{hit, same, exact(0.86), exact(0.83), verdictWorse},
		{hit, same, exact(0.86), exact(0.95), verdictOK},
		{setup, same, tight(0.020), tight(0.028), verdictOK}, // +40 % but under the 10 ms floor
		{setup, same, tight(0.100), tight(0.123), verdictWorse},
		{setup, cross, tight(0.100), tight(0.123), verdictOK},
		// A floor's rep range is not its noise: never unresolved.
		{setup, same, summary{Value: 0.060, Min: 0.060, Max: 0.092, N: 5}, summary{Value: 0.062, Min: 0.062, Max: 0.09, N: 5}, verdictOK},
		{p99, same, exact(900), exact(930), verdictWorse},
	}
	for _, c := range cases {
		if got := judge(c.sp, boundFor(c.sp, c.sameSeed), c.a, c.b); got != c.want {
			t.Errorf("judge(%s, same seed %v, %v → %v) = %s, want %s", c.sp.Name, c.sameSeed, c.a.Value, c.b.Value, got, c.want)
		}
	}
	// The latency figures have no cross-seed bound: not judged then.
	if b := boundFor(p99, cross); b != 0 {
		t.Errorf("boundFor(%s, different seeds) = %v, want 0 (not judged)", p99.Name, b)
	}

	a := &report{Provenance: provenance{CPUModel: "x", NumCPU: 2, GOMAXPROCS: 2, GOGC: "100", GoVersion: "go1.24"}}
	b := *a
	if err := comparable(a, &b); err != nil {
		t.Errorf("identical provenance refused: %v", err)
	}
	b.Provenance.GOMAXPROCS = 4
	if comparable(a, &b) == nil {
		t.Error("differing GOMAXPROCS accepted")
	}
	b = *a
	b.Quick = true
	if comparable(a, &b) == nil {
		t.Error("a quick report compared with a full one")
	}
}
