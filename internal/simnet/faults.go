// Deterministic fault-injection plane: seeded message loss, latency
// jitter/spikes, locality-scale partitions, and the gray-failure knobs —
// per-node slowdown windows, direction-dependent link loss, and periodic
// link flapping — layered under Send.
//
// Every fault decision is made at send time from one DeriveRNG-derived
// stream, so a faulted run is a pure function of (scenario, seed).
//
// Partitions, degrade windows and flap windows are static schedules, not
// random processes: each check is a pure function of (endpoint, now) — no
// RNG draw, no mutation — so cutting, slowing and healing are exactly
// reproducible. The probabilistic knobs (loss, asymmetric loss, jitter,
// spikes) consume the decision stream in a fixed order that
// depends only on which knobs are configured, never on prior outcomes:
// enabling a schedule-only gray knob leaves an existing scenario's draw
// sequence byte-identical (TestDecideDrawOrderStable pins this).
package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"flowercdn/internal/simkernel"
)

// PartitionWindow isolates one locality from every other locality during
// [Start, End): cross-locality messages with either endpoint inside the
// partitioned locality are dropped. Intra-locality traffic is unaffected
// — the paper's localities are network-proximate clusters, and a WAN cut
// severs the cluster from the world, not from itself. Overlapping windows
// for the same locality are legal: the locality is cut while any covers now.
type PartitionWindow struct {
	Locality   int
	Start, End simkernel.Time
}

// DegradeWindow models a gray-degraded node: during [Start, End) every
// message Node sends has its entire outbound delivery latency — link
// latency plus any injected jitter/spike — multiplied by Factor (> 1).
// The node stays alive and keeps answering; it is just slow, which is the
// failure mode fixed timeouts handle worst. Decided from the schedule
// alone: no RNG draw.
type DegradeWindow struct {
	Node       NodeID
	Start, End simkernel.Time
	Factor     float64
}

// AsymLossRule adds direction-dependent loss: messages travelling from a
// node in FromLoc to a node in ToLoc accrue Prob extra drop probability,
// while the reverse direction is untouched — the classic gray link that
// receives fine but sends into a black hole.
type AsymLossRule struct {
	FromLoc, ToLoc int
	Prob           float64
}

// FlapWindow cycles a locality's WAN connectivity during [Start, End):
// the link to every other locality is down for the first DownFor of each
// Period, then up for the remainder, repeating until End. Intra-locality
// traffic always flows. Like partitions, the check is a pure function of
// (locality, now).
type FlapWindow struct {
	Locality   int
	Start, End simkernel.Time
	Period     simkernel.Time
	DownFor    simkernel.Time
}

// FaultConfig parameterises the fault plane. The zero value (and a nil
// pointer) disables every fault; Enabled reports whether any knob is set.
type FaultConfig struct {
	// LossProb is the base per-message drop probability on every link.
	LossProb float64
	// JitterProb is the probability that a message's latency is inflated
	// by a uniform draw from [0, JitterMaxMs].
	JitterProb  float64
	JitterMaxMs float64
	// SpikeProb adds a fixed SpikeMs latency spike with this probability
	// (modelling transient congestion plateaus rather than uniform noise).
	SpikeProb float64
	SpikeMs   float64
	// Partitions is the static cut/heal schedule.
	Partitions []PartitionWindow
	// NodeDegrade schedules gray-degraded (slow-but-alive) nodes.
	NodeDegrade []DegradeWindow
	// AsymLoss lists direction-dependent loss rules.
	AsymLoss []AsymLossRule
	// Flap schedules periodic up/down link cycling per locality.
	Flap []FlapWindow
}

// Enabled reports whether the config injects any fault at all. Nil-safe.
func (f *FaultConfig) Enabled() bool {
	if f == nil {
		return false
	}
	return f.LossProb > 0 || f.JitterProb > 0 || f.SpikeProb > 0 || len(f.Partitions) > 0 ||
		len(f.NodeDegrade) > 0 || len(f.AsymLoss) > 0 || len(f.Flap) > 0
}

// Validate refuses a config that would run as something other than it says
// (a knob the plane would ignore, clamp or saturate): a probability that is
// NaN or outside [0, 1], a negative or non-finite ms value, a window with
// End ≤ Start, a degrade factor not above 1, a locality outside [0,
// localities), and a flap without 0 < DownFor < Period. Nil-safe.
func (f *FaultConfig) Validate(localities int) error {
	if f == nil {
		return nil
	}
	badLoc := func(loc int) bool { return loc < 0 || loc >= localities }
	probs := []float64{f.LossProb, f.JitterProb, f.SpikeProb}
	for _, r := range f.AsymLoss {
		if badLoc(r.FromLoc) || badLoc(r.ToLoc) {
			return fmt.Errorf("simnet: asymmetric loss %+v names no locality", r)
		}
		probs = append(probs, r.Prob)
	}
	for _, p := range probs {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("simnet: fault probability %v is not in [0, 1]", p)
		}
	}
	for _, ms := range [...]float64{f.JitterMaxMs, f.SpikeMs} {
		if !(ms >= 0 && ms <= math.MaxFloat64) {
			return fmt.Errorf("simnet: fault latency %v ms is not a non-negative finite number", ms)
		}
	}
	for _, w := range f.Partitions {
		if badLoc(w.Locality) || w.End <= w.Start {
			return fmt.Errorf("simnet: partition %+v names no locality or an empty window", w)
		}
	}
	for _, w := range f.NodeDegrade {
		if w.End <= w.Start || !(w.Factor > 1) {
			return fmt.Errorf("simnet: degrade window %+v is empty or has a factor ≤ 1", w)
		}
	}
	for _, w := range f.Flap {
		if badLoc(w.Locality) || w.End <= w.Start || !(w.DownFor > 0 && w.DownFor < w.Period) {
			return fmt.Errorf("simnet: flap %+v names no locality, an empty window or no 0 < DownFor < Period", w)
		}
	}
	return nil
}

// Partitioned reports whether loc is cut off from other localities at now.
// This is the reference form over the raw schedule; installed networks
// check the compiled plan's per-locality window list instead.
func (f *FaultConfig) Partitioned(loc int, now simkernel.Time) bool {
	for _, w := range f.Partitions {
		if w.Locality == loc && now >= w.Start && now < w.End {
			return true
		}
	}
	return false
}

// HealTime returns the end of the last partition window covering loc, or
// -1 if loc is never partitioned. Recovery metrics measure from this
// instant. Overlapping windows are fine: the heal instant is the maximum
// End over every window touching loc, which is the first moment the
// locality is guaranteed connected for good.
func (f *FaultConfig) HealTime(loc int) simkernel.Time {
	heal := simkernel.Time(-1)
	if f == nil {
		return heal
	}
	for _, w := range f.Partitions {
		if w.Locality == loc && w.Start < w.End && w.End > heal {
			heal = w.End
		}
	}
	return heal
}

// faultPlan is the compiled, immutable form of a FaultConfig built once at
// InstallFaults time: one per-locality list of cut windows (the hot-path
// check scans only the windows of the endpoint's locality, and stops at the
// first that starts after now), a per-node degrade index, and a dense
// direction-keyed asymmetric-loss matrix. The user's FaultConfig is never
// mutated.
type faultPlan struct {
	cfg *FaultConfig
	// cuts[loc] holds every window that severs loc from the other
	// localities, sorted by Start and normalized (Period > 0, DownFor
	// clamped to (0, Period]). A partition is the flap that is down for its
	// whole single period, so both schedules compile into this one list.
	// Nil when neither is configured.
	cuts [][]FlapWindow
	// degrade[node] holds the node's degrade windows sorted by Start; nil
	// slices for the (vast majority of) unscheduled nodes. Nil overall
	// when no degrade is configured.
	degrade [][]DegradeWindow
	// asym[srcLoc*nLoc+dstLoc] is the extra directional loss; nil when no
	// asymmetric rules are configured.
	asym []float64
	nLoc int
	// anyLoss is whether the per-send loss draw is consumed at all. It
	// depends only on the config, never on endpoints, so stream
	// consumption stays a pure function of the knobs.
	anyLoss bool
}

// compileFaults builds the plan. nLoc and nNodes size the locality and
// node indexes.
func compileFaults(cfg *FaultConfig, nLoc, nNodes int) *faultPlan {
	p := &faultPlan{cfg: cfg, nLoc: nLoc}
	p.anyLoss = cfg.LossProb > 0 || len(cfg.AsymLoss) > 0

	if len(cfg.Partitions)+len(cfg.Flap) > 0 {
		p.cuts = make([][]FlapWindow, nLoc)
		windows := append([]FlapWindow(nil), cfg.Flap...)
		for _, w := range cfg.Partitions {
			span := w.End - w.Start
			windows = append(windows, FlapWindow{Locality: w.Locality, Start: w.Start, End: w.End, Period: span, DownFor: span})
		}
		for _, w := range windows {
			if w.Locality < 0 || w.Locality >= nLoc || w.End <= w.Start || w.Period <= 0 || w.DownFor <= 0 {
				continue // invalid or empty window: normalized away
			}
			if w.DownFor > w.Period {
				w.DownFor = w.Period
			}
			p.cuts[w.Locality] = append(p.cuts[w.Locality], w)
		}
		for loc := range p.cuts {
			ws := p.cuts[loc]
			sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		}
	}
	if len(cfg.NodeDegrade) > 0 {
		p.degrade = make([][]DegradeWindow, nNodes)
		for _, w := range cfg.NodeDegrade {
			if int(w.Node) < 0 || int(w.Node) >= nNodes || w.End <= w.Start || w.Factor <= 1 {
				continue
			}
			p.degrade[w.Node] = append(p.degrade[w.Node], w)
		}
		for node := range p.degrade {
			ws := p.degrade[node]
			sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		}
	}
	if len(cfg.AsymLoss) > 0 {
		p.asym = make([]float64, nLoc*nLoc)
		for _, r := range cfg.AsymLoss {
			if r.FromLoc < 0 || r.FromLoc >= nLoc || r.ToLoc < 0 || r.ToLoc >= nLoc || r.Prob <= 0 {
				continue
			}
			p.asym[r.FromLoc*nLoc+r.ToLoc] += r.Prob
		}
	}
	return p
}

// cut reports whether loc is severed from other localities at now: inside
// a partition window or a flap down-phase. Windows may overlap; any one
// that is down suffices.
func (p *faultPlan) cut(loc int, now simkernel.Time) bool {
	for _, w := range p.cuts[loc] {
		if now < w.Start {
			break // sorted by Start: nothing later covers now either
		}
		if now < w.End && (now-w.Start)%w.Period < w.DownFor {
			return true
		}
	}
	return false
}

// slowdown returns the sender's active degrade factor at now (1 when none).
func (p *faultPlan) slowdown(from NodeID, now simkernel.Time) float64 {
	if p.degrade == nil {
		return 1
	}
	factor := 1.0
	for _, w := range p.degrade[from] {
		if now < w.Start {
			break
		}
		if now < w.End {
			factor *= w.Factor
		}
	}
	return factor
}

// decide makes the send-time fault decision for one message. The draw
// order is fixed — partition/flap check (no draw), loss (one draw when
// any loss knob, including asymmetric loss, is configured), jitter (one
// draw, plus a magnitude draw only when triggered), spike (one draw) —
// and the schedule-only gray knobs (degrade, flap) never draw, so the
// stream consumption per send is a pure function of the config, never of
// prior outcomes or of endpoints. It returns drop=true to lose the
// message, otherwise the extra latency to add on top of the link latency
// lat (a degraded sender's factor inflates lat plus any injected extra).
func (p *faultPlan) decide(rng *rand.Rand, from NodeID, srcLoc, dstLoc int, lat, now simkernel.Time) (drop bool, extra simkernel.Time) {
	f := p.cfg
	if srcLoc != dstLoc && p.cuts != nil && (p.cut(srcLoc, now) || p.cut(dstLoc, now)) {
		return true, 0
	}
	if p.anyLoss {
		prob := f.LossProb
		if p.asym != nil {
			prob += p.asym[srcLoc*p.nLoc+dstLoc]
		}
		if rng.Float64() < prob {
			return true, 0
		}
	}
	if f.JitterProb > 0 {
		if rng.Float64() < f.JitterProb {
			extra += simkernel.Time(rng.Float64() * f.JitterMaxMs * float64(simkernel.Millisecond))
		}
	}
	if f.SpikeProb > 0 {
		if rng.Float64() < f.SpikeProb {
			extra += simkernel.Time(f.SpikeMs * float64(simkernel.Millisecond))
		}
	}
	if factor := p.slowdown(from, now); factor > 1 {
		extra += simkernel.Time((factor - 1) * float64(lat+extra))
	}
	return false, extra
}

// InstallFaults activates the fault plane. A nil or all-zero config is a
// no-op, keeping the disabled send path a single pointer check (the
// TestFaultPlaneDisabledAllocs gate). Must be called before the run
// starts. The config is compiled into an immutable plan (per-locality cut
// windows, per-node degrade index) so the faulted hot path never rescans
// the raw schedule.
func (n *Network) InstallFaults(cfg *FaultConfig) {
	if !cfg.Enabled() {
		return
	}
	n.faults = cfg
	n.fplan = compileFaults(cfg, n.topo.Localities(), n.topo.NumNodes())
	n.faultRNG = n.kernel.DeriveRNG("simnet-faults")
}

// Faults returns the installed fault config (nil when disabled).
func (n *Network) Faults() *FaultConfig { return n.faults }

// FaultDropped reports how many messages the fault plane dropped (loss or
// partition). Distinct from Dropped, which counts losses to dead or
// handler-less endpoints.
func (n *Network) FaultDropped() uint64 { return n.faultDropped }
