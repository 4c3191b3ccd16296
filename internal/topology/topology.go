// Package topology generates the underlying Internet model used by the
// simulation: a BRITE-inspired plane of nodes connected by links whose
// latencies lie between 10 and 500 ms (the paper's §6.1), partitioned into
// k network localities detected with a landmark-based technique (Ratnasamy
// et al., reference [12] in the paper).
//
// Nodes are placed as Gaussian clusters around k locality seeds, so that
// intra-locality latencies are small relative to inter-locality latencies —
// the property Flower-CDN exploits. Locality membership is not assigned by
// construction: each node *measures* its latency to the k landmarks and
// picks the nearest, exactly as a deployed peer would.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"flowercdn/internal/simkernel"
)

// NodeID identifies a node of the underlay. IDs are dense: 0..NumNodes-1.
type NodeID int

// None is the sentinel for "no node".
const None NodeID = -1

// Config controls topology generation.
type Config struct {
	Seed       int64
	Localities int       // number of localities k (paper: 6)
	Weights    []float64 // relative population of each locality; nil = non-uniform default
	// MinCount guarantees at least MinCount[i] clustered nodes in locality
	// i (the harness uses this so every peer pool fits inside its
	// locality). May be nil.
	MinCount []int
	// Extra uniformly-placed nodes, outside any cluster. Website origin
	// servers are drawn from these so that they sit "somewhere on the
	// Internet" rather than inside a peer cluster.
	UniformNodes int
	TotalNodes   int // total node budget including UniformNodes (paper: 5000)
}

// The plane and its latency model, fixed by the paper's set-up (§6.1).
const (
	minLatencyMs = 10   // latency floor
	maxLatencyMs = 500  // latency ceiling
	clusterStd   = 45   // std-dev of the Gaussian clusters, plane units
	planeSize    = 1000 // side of the square plane, plane units
)

// DefaultConfig returns the paper's simulation setup: 5000 nodes, 6
// non-uniformly populated localities, latencies 10..500 ms.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:         seed,
		Localities:   6,
		Weights:      nil, // filled by Generate with the default skew
		UniformNodes: 200,
		TotalNodes:   5000,
	}
}

// DefaultWeights is the non-uniform locality population used when
// Config.Weights is nil. It sums to 1.
func DefaultWeights(k int) []float64 {
	// Geometric-ish skew, normalised. For k=6 this yields roughly
	// 0.26, 0.21, 0.17, 0.14, 0.12, 0.10.
	w := make([]float64, k)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(0.82, float64(i))
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Point is a position on the simulation plane.
type Point struct{ X, Y float64 }

func (p Point) dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Topology is an immutable latency model over a fixed set of nodes.
type Topology struct {
	cfg       Config
	coords    []Point
	locality  []int // assigned by landmark measurement
	landmarks []Point
	uniform   []NodeID // the uniformly-placed nodes, in id order
	byLoc     [][]NodeID
	latScale  float64 // ms per plane unit
	normDist  float64
}

// Generate builds a topology from cfg. It panics on infeasible
// configurations (these are programming errors in the harness, not
// runtime conditions).
func Generate(cfg Config) (*Topology, error) {
	if cfg.Localities <= 0 {
		return nil, fmt.Errorf("topology: localities must be positive, got %d", cfg.Localities)
	}
	if cfg.TotalNodes <= 0 {
		return nil, fmt.Errorf("topology: total nodes must be positive, got %d", cfg.TotalNodes)
	}
	k := cfg.Localities
	weights := cfg.Weights
	if weights == nil {
		weights = DefaultWeights(k)
	}
	if len(weights) != k {
		return nil, fmt.Errorf("topology: %d weights for %d localities", len(weights), k)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))

	// Landmark seeds on a circle centred in the plane. For k=6 this is a
	// hexagon; opposite clusters are ~2r apart.
	centre := Point{planeSize / 2, planeSize / 2}
	radius := planeSize * 0.40
	landmarks := make([]Point, k)
	for i := range landmarks {
		theta := 2 * math.Pi * float64(i) / float64(k)
		landmarks[i] = Point{centre.X + radius*math.Cos(theta), centre.Y + radius*math.Sin(theta)}
	}

	// Decide how many clustered nodes each locality receives.
	clustered := cfg.TotalNodes - cfg.UniformNodes
	if clustered < k {
		return nil, fmt.Errorf("topology: %d clustered nodes cannot cover %d localities", clustered, k)
	}
	counts := apportion(clustered, weights)
	for i, min := range cfg.MinCount {
		if i >= k {
			break
		}
		if counts[i] < min {
			counts[i] = min
		}
	}
	total := cfg.UniformNodes
	for _, c := range counts {
		total += c
	}
	if total > cfg.TotalNodes {
		// MinCount pushed us over budget; grow the topology rather than
		// fail, and record the new size.
		cfg.TotalNodes = total
	}

	t := &Topology{
		cfg:       cfg,
		coords:    make([]Point, 0, total),
		locality:  make([]int, 0, total),
		landmarks: landmarks,
		byLoc:     make([][]NodeID, k),
	}
	// Latency normalisation: the farthest plausible pair is roughly the
	// two most distant landmark clusters plus spread.
	t.normDist = 2*radius + 4*clusterStd
	t.latScale = (maxLatencyMs - minLatencyMs) / t.normDist

	place := func(p Point) NodeID {
		id := NodeID(len(t.coords))
		t.coords = append(t.coords, p)
		loc := t.measureLocality(p)
		t.locality = append(t.locality, loc)
		t.byLoc[loc] = append(t.byLoc[loc], id)
		return id
	}

	for li := 0; li < k; li++ {
		for n := 0; n < counts[li]; n++ {
			p := Point{
				X: landmarks[li].X + rng.NormFloat64()*clusterStd,
				Y: landmarks[li].Y + rng.NormFloat64()*clusterStd,
			}
			place(clampPoint(p, planeSize))
		}
	}
	for n := 0; n < cfg.UniformNodes; n++ {
		p := Point{X: rng.Float64() * planeSize, Y: rng.Float64() * planeSize}
		id := place(p)
		t.uniform = append(t.uniform, id)
	}
	return t, nil
}

func clampPoint(p Point, size float64) Point {
	if p.X < 0 {
		p.X = 0
	}
	if p.Y < 0 {
		p.Y = 0
	}
	if p.X > size {
		p.X = size
	}
	if p.Y > size {
		p.Y = size
	}
	return p
}

// apportion splits n into len(w) integer parts proportional to w using the
// largest-remainder method, so the parts always sum to n.
func apportion(n int, w []float64) []int {
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	parts := make([]int, len(w))
	type frac struct {
		i int
		f float64
	}
	rem := n
	fracs := make([]frac, len(w))
	for i, x := range w {
		exact := float64(n) * x / sum
		parts[i] = int(exact)
		rem -= parts[i]
		fracs[i] = frac{i, exact - float64(parts[i])}
	}
	// Stable selection of the largest remainders.
	for rem > 0 {
		best := -1
		for j := range fracs {
			if best == -1 || fracs[j].f > fracs[best].f {
				best = j
			}
		}
		parts[fracs[best].i]++
		fracs[best].f = -1
		rem--
	}
	return parts
}

// measureLocality performs the landmark measurement a joining peer would:
// latency to each landmark, pick the nearest.
func (t *Topology) measureLocality(p Point) int {
	best, bestDist := 0, math.Inf(1)
	for i, lm := range t.landmarks {
		if d := p.dist(lm); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// NumNodes reports the number of underlay nodes.
func (t *Topology) NumNodes() int { return len(t.coords) }

// Localities reports the number of localities k.
func (t *Topology) Localities() int { return t.cfg.Localities }

// LocalityOf returns the landmark-measured locality of a node.
func (t *Topology) LocalityOf(n NodeID) int { return t.locality[n] }

// NodesInLocality returns the node IDs measured into locality loc, in id
// order. The returned slice must not be modified.
func (t *Topology) NodesInLocality(loc int) []NodeID { return t.byLoc[loc] }

// UniformNodes returns the uniformly-placed nodes (used for origin
// servers). The returned slice must not be modified.
func (t *Topology) UniformNodes() []NodeID { return t.uniform }

// Latency returns the one-way link latency between two distinct nodes in
// simulated time. It is symmetric, at least the configured minimum, at most
// the maximum, and zero for a == b (local delivery).
func (t *Topology) Latency(a, b NodeID) simkernel.Time {
	return simkernel.Time(math.Round(t.LatencyMs(a, b)))
}

// LatencyMs is Latency in float milliseconds.
func (t *Topology) LatencyMs(a, b NodeID) float64 {
	if a == b {
		return 0
	}
	d := t.coords[a].dist(t.coords[b])
	ms := minLatencyMs + d*t.latScale
	// Deterministic per-pair jitter (±10%) so links with identical
	// geometry do not have identical latencies, as in BRITE-style models.
	ms *= 0.90 + 0.20*pairHash01(a, b)
	if ms < minLatencyMs {
		ms = minLatencyMs
	}
	if ms > maxLatencyMs {
		ms = maxLatencyMs
	}
	return ms
}

// pairHash01 maps an unordered node pair to a deterministic value in [0,1).
func pairHash01(a, b NodeID) float64 {
	if a > b {
		a, b = b, a
	}
	h := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xC2B2AE3D27D4EB4F
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return float64(h>>11) / float64(1<<53)
}

// LandmarkLatencies returns the measured latency from n to every landmark,
// the raw data behind locality detection; exposed for tests and examples.
func (t *Topology) LandmarkLatencies(n NodeID) []float64 {
	out := make([]float64, len(t.landmarks))
	for i, lm := range t.landmarks {
		d := t.coords[n].dist(lm)
		out[i] = minLatencyMs + d*t.latScale
	}
	return out
}

// MeanIntraLatencyMs estimates (by sampling) the mean latency between node
// pairs inside the same locality; used by tests and examples to verify the
// locality structure.
func (t *Topology) MeanIntraLatencyMs(rng *rand.Rand, samples int) float64 {
	var sum float64
	n := 0
	for i := 0; i < samples; i++ {
		loc := rng.Intn(t.cfg.Localities)
		nodes := t.byLoc[loc]
		if len(nodes) < 2 {
			continue
		}
		a := nodes[rng.Intn(len(nodes))]
		b := nodes[rng.Intn(len(nodes))]
		if a == b {
			continue
		}
		sum += t.LatencyMs(a, b)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanInterLatencyMs estimates the mean latency between node pairs in
// different localities.
func (t *Topology) MeanInterLatencyMs(rng *rand.Rand, samples int) float64 {
	var sum float64
	n := 0
	for i := 0; i < samples; i++ {
		a := NodeID(rng.Intn(len(t.coords)))
		b := NodeID(rng.Intn(len(t.coords)))
		if a == b || t.locality[a] == t.locality[b] {
			continue
		}
		sum += t.LatencyMs(a, b)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
