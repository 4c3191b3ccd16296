package flowercdn

import (
	"math/rand"
	"strconv"

	"flowercdn/internal/chord"
	"flowercdn/internal/core"
	"flowercdn/internal/dring"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/pastry"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// This file derives the points of the paper's evaluation (§6) and of
// DESIGN.md "Ablations A1–A5"; registry.go runs them through RunCampaign
// and says how each is presented. Every point is a full simulation with the
// supplied Params, so callers choose the scale (DefaultParams reproduces the
// paper; ScaledParams is laptop-quick).

// Row is one finished point of an experiment: the point's label and its
// run. It is the only row type; views project the columns they print.
type Row struct {
	Label string
	Result
}

// runRows runs the points as one campaign and labels the results.
func runRows(points []Point, parallel int) ([]Row, error) {
	results, err := RunCampaign(points, parallel)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(results))
	for i, res := range results {
		rows[i] = Row{Label: points[i].Label, Result: res}
	}
	return rows, nil
}

// sweep is the one loop behind every named single-parameter sweep: one
// point per value (the paper's grid when the caller gives none), labelled
// by label and derived from the base parameters by set.
type sweep[T any] struct {
	defaults []T
	label    func(T) string
	set      func(*Params, T)
}

func (s sweep[T]) points(p Params, values []T) []Point {
	if len(values) == 0 {
		values = s.defaults
	}
	points := make([]Point, len(values))
	for i, v := range values {
		pv := p
		s.set(&pv, v)
		points[i] = Point{Label: s.label(v), Params: pv}
	}
	return points
}

// grid is the sweep over its default values, as Experiment.Points wants it.
func (s sweep[T]) grid(p Params, _ Options) []Point { return s.points(p, nil) }

var (
	gossipLenSweep = sweep[int]{[]int{5, 10, 20}, strconv.Itoa,
		func(p *Params, v int) { p.GossipLen = v }}
	gossipPeriodSweep = sweep[simkernel.Time]{
		[]simkernel.Time{simkernel.Minute, 30 * simkernel.Minute, simkernel.Hour}, simkernel.Time.String,
		func(p *Params, v simkernel.Time) { p.TGossip, p.TKeepalive = v, v }}
	viewSizeSweep = sweep[int]{[]int{20, 50, 70}, strconv.Itoa,
		func(p *Params, v int) { p.ViewSize = v }}
	pushThresholdSweep = sweep[float64]{[]float64{0.1, 0.5, 0.7}, ftoa,
		func(p *Params, v float64) { p.PushThreshold = v }}
	churnSweep = sweep[float64]{[]float64{0, 30, 120},
		func(v float64) string { return ftoa(v) + "/h" },
		func(p *Params, v float64) { p.ChurnPerHour, p.ChurnIncludesDirs = v, true }}
	scaleUpSweep = sweep[uint]{[]uint{0, 1},
		func(b uint) string { return "b=" + strconv.Itoa(int(b)) },
		func(p *Params, b uint) { p.InstanceBits = b }}
)

// comparisonPoints runs both systems on the same seed, topology and
// workload: the shared basis of Figures 6, 7 and 8.
func comparisonPoints(p Params, _ Options) []Point {
	return []Point{
		{Label: "flower", Params: p, Kind: KindFlower},
		{Label: "squirrel", Params: p, Kind: KindSquirrel},
	}
}

// Headline condenses the paper's §1/§6 claims from a comparison pair.
type Headline struct {
	FlowerHit, SquirrelHit               float64
	FlowerLookupMs, SquirrelLookupMs     float64
	LookupFactor                         float64 // Squirrel / Flower (paper: ≈9)
	FlowerTransferMs, SquirrelTransferMs float64
	TransferFactor                       float64 // Squirrel / Flower (paper: ≈2)
	FlowerWithin150ms                    float64 // paper: 0.87
	SquirrelBeyond1050ms                 float64 // paper: 0.61
	FlowerDistWithin100ms                float64 // paper: 0.59
	SquirrelDistWithin100ms              float64 // paper: 0.17
}

// ComputeHeadline derives the headline ratios from a comparison pair.
func ComputeHeadline(flower, baseline Result) Headline {
	h := Headline{
		FlowerHit:               flower.Report.HitRatio,
		SquirrelHit:             baseline.Report.HitRatio,
		FlowerLookupMs:          flower.Report.AvgLookupMs,
		SquirrelLookupMs:        baseline.Report.AvgLookupMs,
		FlowerTransferMs:        flower.Report.AvgTransferMs,
		SquirrelTransferMs:      baseline.Report.AvgTransferMs,
		FlowerWithin150ms:       metrics.FracWithin(flower.Report.LatencyHist, 150),
		SquirrelBeyond1050ms:    metrics.FracBeyond(baseline.Report.LatencyHist, 1050),
		FlowerDistWithin100ms:   metrics.FracWithin(flower.Report.DistanceHist, 100),
		SquirrelDistWithin100ms: metrics.FracWithin(baseline.Report.DistanceHist, 100),
	}
	if h.FlowerLookupMs > 0 {
		h.LookupFactor = h.SquirrelLookupMs / h.FlowerLookupMs
	}
	if h.FlowerTransferMs > 0 {
		h.TransferFactor = h.SquirrelTransferMs / h.FlowerTransferMs
	}
	return h
}

// --- Ablations (DESIGN.md "Ablations A1–A5") ------------------------------

// queryPolicyPoints sets the paper's view-only member lookup against the
// view-then-directory variant (A1).
func queryPolicyPoints(p Params, _ Options) []Point {
	pView, pDir := p, p
	pView.QueryPolicy = core.PolicyViewOnly
	pDir.QueryPolicy = core.PolicyViewThenDirectory
	return []Point{
		{Label: "view-only (paper)", Params: pView},
		{Label: "view-then-directory", Params: pDir},
	}
}

// homeStorePoints sets Squirrel's two strategies side by side (A3, §7).
func homeStorePoints(p Params, _ Options) []Point {
	pDir, pHome := p, p
	pDir.SquirrelHomeStore = false
	pHome.SquirrelHomeStore = true
	return []Point{
		{Label: "directory", Params: pDir, Kind: KindSquirrel},
		{Label: "home-store", Params: pHome, Kind: KindSquirrel},
	}
}

// SubstrateResult compares D-ring routing cost over the two DHT
// substrates the paper names (§3.1): Chord and Pastry.
type SubstrateResult struct {
	Nodes         int
	Lookups       int
	ChordAvgHops  float64
	PastryAvgHops float64
	ChordExact    float64 // fraction delivered to the exact directory
	PastryExact   float64
}

// CompareSubstrates builds the same D-ring population over Chord and over
// Pastry and routes identical lookups through both with the protocol's own
// dring.Route, demonstrating the paper's claim that D-ring integrates with
// any standard DHT.
func CompareSubstrates(seed int64, websites, localities, lookups int) (SubstrateResult, error) {
	ks, err := dring.NewKeySpec(core.DRingBits, localities, 0)
	if err != nil {
		return SubstrateResult{}, err
	}
	cRing := chord.NewRing(chord.Config{Bits: core.DRingBits, SuccessorList: 8})
	pRing := pastry.NewRing()
	sites := model.MakeSites(websites)
	var keys []chord.ID
	addr := simnet.NodeID(0)
	for _, site := range sites {
		for loc := 0; loc < localities; loc++ {
			key := ks.Key(site, loc)
			cn, err := cRing.AddNode(key, addr)
			if err != nil {
				continue // website hash collision: skip in both rings
			}
			if _, err := pRing.AddNode(key, addr); err != nil {
				cRing.RemoveNode(cn.ID())
				continue
			}
			keys = append(keys, key)
			addr++
		}
	}
	cRing.BuildConverged()
	pRing.BuildConverged()

	rng := rand.New(rand.NewSource(seed))
	res := SubstrateResult{Nodes: len(keys), Lookups: lookups}
	cNodes := cRing.Nodes()
	pNodes := pRing.Nodes()
	var cHops, pHops, cExact, pExact int
	for i := 0; i < lookups; i++ {
		key := keys[rng.Intn(len(keys))]
		start := rng.Intn(len(cNodes))
		cDst, ch := dring.Route(cNodes[start], key, ks)
		pDst, ph := dring.Route(pNodes[start], key, ks)
		cHops += ch
		pHops += ph
		if cDst.ID() == key {
			cExact++
		}
		if pDst.ID() == key {
			pExact++
		}
	}
	if lookups > 0 {
		res.ChordAvgHops = float64(cHops) / float64(lookups)
		res.PastryAvgHops = float64(pHops) / float64(lookups)
		res.ChordExact = float64(cExact) / float64(lookups)
		res.PastryExact = float64(pExact) / float64(lookups)
	}
	return res, nil
}

// ConditionalRoutingResult quantifies Algorithm 2 against Algorithm 1.
type ConditionalRoutingResult struct {
	FailedDirectories int
	Lookups           int
	// Fraction of lookups for dead positions that still reached a
	// directory of the right website.
	SameWebsiteAlg1 float64
	SameWebsiteAlg2 float64
}

// AblationConditionalRouting builds a D-ring, fails a fraction of the
// directory peers, repairs the ring, and routes lookups for the dead
// positions under the standard DHT rule (Algorithm 1) and the D-ring rule
// (Algorithm 2). This isolates why the conditional local lookup exists
// (§3.2: "to guarantee the appropriate redirection").
func AblationConditionalRouting(seed int64, websites, localities int, failFraction float64, lookups int) (ConditionalRoutingResult, error) {
	ks, err := dring.NewKeySpec(core.DRingBits, localities, 0)
	if err != nil {
		return ConditionalRoutingResult{}, err
	}
	ring := chord.NewRing(chord.Config{Bits: core.DRingBits, SuccessorList: 8})
	rng := rand.New(rand.NewSource(seed))
	sites := model.MakeSites(websites)
	keys := map[chord.ID]bool{}
	addr := simnet.NodeID(0)
	for _, site := range sites {
		for loc := 0; loc < localities; loc++ {
			key := ks.Key(site, loc)
			if keys[key] {
				continue // rare website-hash collision; skip the duplicate
			}
			keys[key] = true
			if _, err := ring.AddNode(key, addr); err != nil {
				return ConditionalRoutingResult{}, err
			}
			addr++
		}
	}
	ring.BuildConverged()
	// Fail a random fraction (avoid failing a website completely so a
	// same-website destination always exists).
	nodes := ring.Nodes()
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	var dead []chord.ID
	failed := 0
	for _, n := range nodes {
		if failed >= int(failFraction*float64(len(nodes))) {
			break
		}
		wid := ks.WebsiteIDOf(n.ID())
		aliveSame := 0
		for _, m := range ring.AliveNodes() {
			if m != n && ks.WebsiteIDOf(m.ID()) == wid {
				aliveSame++
			}
		}
		if aliveSame == 0 {
			continue
		}
		ring.Fail(n)
		dead = append(dead, n.ID())
		failed++
	}
	for round := 0; round < 8; round++ {
		for _, n := range ring.AliveNodes() {
			n.CheckPredecessor()
			n.Stabilize()
		}
	}
	for _, n := range ring.AliveNodes() {
		n.FixAllFingers()
	}

	res := ConditionalRoutingResult{FailedDirectories: len(dead)}
	alive := ring.AliveNodes()
	// Algorithm 1 alone: Chord's standard step, to the same TTL.
	routeStd := func(cur *chord.Node, key chord.ID) *chord.Node {
		for hop := 0; hop < dring.RouteTTL(ks.Space); hop++ {
			next, deliver := cur.RouteStep(key)
			if deliver {
				return cur
			}
			cur = next
		}
		return cur
	}
	same1, same2 := 0, 0
	for i := 0; i < lookups; i++ {
		key := dead[rng.Intn(len(dead))]
		start := alive[rng.Intn(len(alive))]
		if ks.SameWebsite(routeStd(start, key).ID(), key) {
			same1++
		}
		if dst, _ := dring.Route(start, key, ks); ks.SameWebsite(dst.ID(), key) {
			same2++
		}
		res.Lookups++
	}
	if res.Lookups > 0 {
		res.SameWebsiteAlg1 = float64(same1) / float64(res.Lookups)
		res.SameWebsiteAlg2 = float64(same2) / float64(res.Lookups)
	}
	return res, nil
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 3, 64) }
