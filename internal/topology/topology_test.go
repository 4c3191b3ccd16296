package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustGen(t *testing.T, cfg Config) *Topology {
	t.Helper()
	topo, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func TestGenerateDefault(t *testing.T) {
	topo := mustGen(t, DefaultConfig(1))
	if topo.NumNodes() != 5000 {
		t.Fatalf("NumNodes = %d, want 5000", topo.NumNodes())
	}
	if topo.Localities() != 6 {
		t.Fatalf("Localities = %d, want 6", topo.Localities())
	}
	total := 0
	for loc := 0; loc < 6; loc++ {
		total += len(topo.NodesInLocality(loc))
	}
	if total != 5000 {
		t.Fatalf("locality partition covers %d nodes, want 5000", total)
	}
}

func TestLatencyBounds(t *testing.T) {
	topo := mustGen(t, DefaultConfig(2))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		a := NodeID(rng.Intn(topo.NumNodes()))
		b := NodeID(rng.Intn(topo.NumNodes()))
		ms := topo.LatencyMs(a, b)
		if a == b {
			if ms != 0 {
				t.Fatalf("self latency = %v, want 0", ms)
			}
			continue
		}
		if ms < 10 || ms > 500 {
			t.Fatalf("latency(%d,%d) = %v ms outside [10,500]", a, b, ms)
		}
	}
}

func TestLatencySymmetric(t *testing.T) {
	topo := mustGen(t, DefaultConfig(4))
	f := func(x, y uint16) bool {
		a := NodeID(int(x) % topo.NumNodes())
		b := NodeID(int(y) % topo.NumNodes())
		return topo.LatencyMs(a, b) == topo.LatencyMs(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalityGap(t *testing.T) {
	// The whole point of the topology: intra-locality latency must be
	// substantially below inter-locality latency.
	topo := mustGen(t, DefaultConfig(5))
	rng := rand.New(rand.NewSource(6))
	intra := topo.MeanIntraLatencyMs(rng, 4000)
	inter := topo.MeanInterLatencyMs(rng, 4000)
	if intra <= 0 || inter <= 0 {
		t.Fatalf("sampling failed: intra=%v inter=%v", intra, inter)
	}
	if inter < 2.5*intra {
		t.Fatalf("locality gap too small: intra=%.1f inter=%.1f", intra, inter)
	}
	if intra > 120 {
		t.Fatalf("intra-locality latency too high: %.1f ms", intra)
	}
}

func TestNonUniformPopulation(t *testing.T) {
	topo := mustGen(t, DefaultConfig(7))
	sizes := make([]int, 6)
	for loc := 0; loc < 6; loc++ {
		sizes[loc] = len(topo.NodesInLocality(loc))
	}
	// Locality 0 carries the largest weight; locality 5 the smallest.
	if sizes[0] <= sizes[5] {
		t.Fatalf("expected non-uniform population, sizes = %v", sizes)
	}
}

func TestMinCountHonoured(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.MinCount = []int{900, 900, 900, 900, 900, 900}
	topo := mustGen(t, cfg)
	for loc := 0; loc < 6; loc++ {
		// Clusters overlap slightly, so measured membership can deviate a
		// little from placement counts; allow 5% slack.
		if got := len(topo.NodesInLocality(loc)); got < 855 {
			t.Fatalf("locality %d has %d nodes, want >= 855", loc, got)
		}
	}
}

func TestUniformNodesExist(t *testing.T) {
	topo := mustGen(t, DefaultConfig(9))
	if len(topo.UniformNodes()) != 200 {
		t.Fatalf("uniform nodes = %d, want 200", len(topo.UniformNodes()))
	}
}

func TestLandmarkMeasurementConsistent(t *testing.T) {
	topo := mustGen(t, DefaultConfig(10))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		n := NodeID(rng.Intn(topo.NumNodes()))
		lat := topo.LandmarkLatencies(n)
		best, bestMs := 0, lat[0]
		for j, ms := range lat {
			if ms < bestMs {
				best, bestMs = j, ms
			}
		}
		if best != topo.LocalityOf(n) {
			t.Fatalf("node %d: nearest landmark %d but locality %d", n, best, topo.LocalityOf(n))
		}
	}
}

func TestApportionSumsExactly(t *testing.T) {
	f := func(n uint16, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		for i, r := range raw {
			w[i] = float64(r) + 1
		}
		parts := apportion(int(n), w)
		sum := 0
		for _, p := range parts {
			if p < 0 {
				return false
			}
			sum += p
		}
		return sum == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWeightsNormalised(t *testing.T) {
	for _, k := range []int{1, 2, 6, 12} {
		w := DefaultWeights(k)
		sum := 0.0
		for _, x := range w {
			if x <= 0 {
				t.Fatalf("k=%d: non-positive weight", k)
			}
			sum += x
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("k=%d: weights sum to %v", k, sum)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	bad := []Config{
		{Localities: 0, TotalNodes: 100},
		{Localities: 3, TotalNodes: 0},
		{Localities: 3, TotalNodes: 100, Weights: []float64{1, 1}},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := mustGen(t, DefaultConfig(77))
	b := mustGen(t, DefaultConfig(77))
	if a.NumNodes() != b.NumNodes() {
		t.Fatal("sizes differ")
	}
	for i := 0; i < a.NumNodes(); i += 97 {
		if a.LocalityOf(NodeID(i)) != b.LocalityOf(NodeID(i)) {
			t.Fatalf("locality differs at node %d", i)
		}
		if a.LatencyMs(NodeID(i), NodeID((i*31+7)%a.NumNodes())) !=
			b.LatencyMs(NodeID(i), NodeID((i*31+7)%a.NumNodes())) {
			t.Fatalf("latency differs at node %d", i)
		}
	}
}

func TestLatencyRoundingToSimTime(t *testing.T) {
	topo := mustGen(t, DefaultConfig(12))
	for i := 0; i < 100; i++ {
		a, b := NodeID(i), NodeID(i+100)
		st := topo.Latency(a, b)
		ms := topo.LatencyMs(a, b)
		if float64(st) < ms-0.5 || float64(st) > ms+0.5 {
			t.Fatalf("rounding off: %v vs %v", st, ms)
		}
	}
}
