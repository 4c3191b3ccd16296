// Package flowercdn is a from-scratch reproduction of "Flower-CDN: A
// hybrid P2P overlay for Efficient Query Processing in CDN" (El Dick,
// Pacitti, Kemme — EDBT 2009 / INRIA RR-6689).
//
// Flower-CDN is a locality- and interest-aware peer-to-peer content
// distribution network for under-provisioned websites. Clients that care
// about a website keep the pages they download and serve them to nearby
// peers. Two overlay layers cooperate:
//
//   - D-ring, a structured overlay (Chord) holding one directory peer per
//     (website, locality) pair, whose identifiers encode website and
//     locality so standard key-based routing finds the right directory
//     (§3 of the paper, Algorithms 1–3);
//   - per-(website, locality) content overlays managed by gossip: content
//     peers exchange Bloom-filter summaries of their stored objects and
//     push content deltas to their directory (§4, Algorithms 4–6).
//
// This package is the public facade. It re-exports the experiment harness
// (full-scale and laptop-scale presets for every table and figure of the
// paper's evaluation) and the metric types results are reported in. The
// implementation lives under internal/: the discrete-event simulator
// (simkernel, simnet, topology), the substrates (chord, bloom, gossip,
// workload), the contribution (dring, overlay, core), the Squirrel
// baseline (squirrel) and the harness.
//
// Quick start:
//
//	p := flowercdn.ScaledParams(1)        // laptop-scale parameters
//	res, err := flowercdn.RunFlower(p)    // simulate 2 hours
//	if err != nil { ... }
//	fmt.Println(res.Report.HitRatio, res.Report.AvgLookupMs)
//
// To regenerate the paper's evaluation at full scale, use
// flowercdn.DefaultParams and the Table2a/Table2b/Table2c/Fig5/Comparison
// presets, or run cmd/flowersim.
package flowercdn

import (
	"io"

	"flowercdn/internal/core"
	"flowercdn/internal/harness"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// Time is the simulated time type (milliseconds); see Second, Minute, Hour.
type Time = simkernel.Time

// Time units for building Params.
const (
	Millisecond = simkernel.Millisecond
	Second      = simkernel.Second
	Minute      = simkernel.Minute
	Hour        = simkernel.Hour
)

// Params configures an experiment (Table 1 of the paper plus harness
// knobs).
type Params = harness.Params

// Result is one finished simulation run.
type Result = harness.Result

// Row is one finished point of an experiment or sweep: the point's label
// and its Result (embedded, so row.Report, row.Stats, … read directly).
type Row = harness.Row

// Headline condenses the paper's §1/§6 comparison claims.
type Headline = harness.Headline

// Report is the metric summary of a run (hit ratio, latency and distance
// distributions, background traffic, time series).
type Report = metrics.Report

// HistBin is one bin of a latency/distance distribution.
type HistBin = metrics.HistBin

// BucketStats is one time-series point (Figures 5–8a).
type BucketStats = metrics.BucketStats

// QueryPolicy selects the content-peer lookup fallback behaviour.
type QueryPolicy = core.QueryPolicy

// Query policies.
const (
	PolicyViewOnly          = core.PolicyViewOnly
	PolicyViewThenDirectory = core.PolicyViewThenDirectory
)

// System kinds in results.
const (
	KindFlower   = harness.KindFlower
	KindSquirrel = harness.KindSquirrel
)

// DefaultParams returns the paper's full-scale setup: 5000-node topology,
// k=6 localities, |W|=100 websites (6 active), S_co=100, 6 queries/s,
// 24 simulated hours, T_gossip=30 min, L_gossip=10, V_gossip=50.
func DefaultParams(seed int64) Params { return harness.DefaultParams(seed) }

// ScaledParams returns a laptop-scale configuration with the same shape
// (finishes in seconds).
func ScaledParams(seed int64) Params { return harness.ScaledParams(seed) }

// Massive100kParams returns the 100,000-client stress preset: sparse
// gossip views, O(L_gossip) directory view seeding and a compact object
// universe, aimed at the control-plane scale wall rather than a paper
// figure.
func Massive100kParams(seed int64) Params { return harness.Massive100kParams(seed) }

// ShrunkMassiveParams is the CI-runnable shrunk variant of
// Massive100kParams (5,000 clients, 30 simulated minutes, same knobs).
func ShrunkMassiveParams(seed int64) Params { return harness.ShrunkMassiveParams(seed) }

// WithMassiveChurn adds the population-scaled failure model (2% of the
// clients per hour, directories included, 15-minute mean rejoin downtime)
// to a massive-preset Params: the §5 recovery-cost measurement at scale.
func WithMassiveChurn(p Params) Params { return harness.WithMassiveChurn(p) }

// DirStressParams is the dirTick-heavy preset: one ~2100-member content
// overlay on a 1-minute gossip period, so the directory's periodic index
// sweep dominates simulator cost.
func DirStressParams(seed int64) Params { return harness.DirStressParams(seed) }

// FaultConfig configures the deterministic fault-injection plane: message
// loss, latency jitter/spikes, and scheduled locality partitions. Attach
// one to Params.Faults; nil disables the plane entirely.
type FaultConfig = simnet.FaultConfig

// PartitionWindow isolates one locality from all others during
// [Start, End) of simulated time; intra-locality traffic still flows.
type PartitionWindow = simnet.PartitionWindow

// LocalityRecovery is one partitioned locality's heal → first-directory-hit
// datapoint from Result.Recovery.
type LocalityRecovery = harness.LocalityRecovery

// FaultStormParams is the kitchen-sink robustness preset: laptop-scale
// population under 5% loss, jitter, spikes and two scheduled locality
// partitions, with the invariant auditor sweeping every simulated minute.
func FaultStormParams(seed int64) Params { return harness.FaultStormParams(seed) }

// DirCrash schedules one directory crash for Params.DirCrashes: the
// directory of (active site SiteIdx, Locality) is failed at simulated
// time At and its crash→first-local-directory-hit recovery is measured.
type DirCrash = harness.DirCrash

// DirCrashStormParams is the crash-failover preset behind `-exp dircrash`:
// laptop-scale population under light loss/jitter with every active site's
// directory crashed in two localities during bootstrap; warm standbys and
// takeover shedding armed. The cold §5.2 rebuild baseline is the same
// preset with StandbyFailover off.
func DirCrashStormParams(seed int64) Params { return harness.DirCrashStormParams(seed) }

// DegradeWindow slows every message a gray node sends during [Start, End)
// by Factor without killing it: the node answers, late. Attach to
// FaultConfig.NodeDegrade.
type DegradeWindow = simnet.DegradeWindow

// AsymLossRule drops messages on the FromLoc→ToLoc direction only, the
// asymmetric-link failure a symmetric detector cannot attribute.
type AsymLossRule = simnet.AsymLossRule

// FlapWindow takes one locality's uplink down for DownFor out of every
// Period during [Start, End): the link that keeps "recovering".
type FlapWindow = simnet.FlapWindow

// DirDegrade schedules one gray directory for Params.DirDegrades: the
// directory of (active site SiteIdx, Locality) has its outbound latency
// multiplied by Factor during [Start, End).
type DirDegrade = harness.DirDegrade

// GrayStormParams is the gray-failure preset behind `-exp gray`: degraded
// directories, one-way locality loss, a flapping uplink and mild churn.
// Run it twice via GrayComparison — fixed timeout ladder vs Adaptive —
// on an identical fault schedule.
func GrayStormParams(seed int64) Params { return harness.GrayStormParams(seed) }

// GrayComparison runs base twice on the same seed — fixed timeout ladder,
// then the adaptive plane (EWMA deadlines + hedged lookups + holder
// circuit breaker) — and reports both sides, fixed first.
func GrayComparison(base Params) ([]Row, error) { return harness.GrayComparison(base) }

// DefaultLossRates is the default grid for LossRateSweep (the `-exp
// faults` sweep); override per-run with the -loss flag.
var DefaultLossRates = harness.DefaultLossRates

// LossRateSweep reruns base under increasing uniform message-loss rates
// (nil = 0/1/2/5/10/20%), one row per rate labelled by it in percent:
// hit-ratio and latency degradation plus retry/fallback volumes.
func LossRateSweep(base Params, rates []float64) ([]Row, error) {
	return harness.LossRateSweep(base, rates)
}

// PopulationParams scales the shrunk 100k-preset shape to a total client
// population (pools, overlay capacity and topology budget grow linearly;
// protocol knobs stay fixed).
func PopulationParams(seed int64, clients int) Params {
	return harness.PopulationParams(seed, clients)
}

// PopulationSweep measures simulator throughput (kernel events per
// wall-clock second) at each requested total client population (nil =
// 1k/2k/5k/10k), one row per population labelled by it. Cells run
// sequentially so wall-clock numbers are honest.
func PopulationSweep(seed int64, populations []int) ([]Row, error) {
	return harness.PopulationSweep(seed, populations)
}

// Experiment is one entry of the registry behind `flowersim`: how its
// points derive from base parameters and Options, and the named views —
// what `-exp` selects — that present the resulting rows as Tables.
type Experiment = harness.Experiment

// Options carries the flowersim flags that reach into experiments.
type Options = harness.Options

// Table is the shape every view produces: a title, a grid to align, notes.
type Table = harness.Table

// Experiments returns every registered experiment in presentation order.
func Experiments() []Experiment { return harness.Experiments() }

// RunFlower simulates Flower-CDN under the given parameters.
func RunFlower(p Params) (Result, error) { return harness.RunFlower(p) }

// Point is one independent simulation of a campaign: complete parameters
// plus which system (Flower-CDN or Squirrel) to run.
type Point = harness.Point

// Campaign fans independent simulation points out over a worker pool.
// Every point builds its own kernel, topology and metrics stack, so a
// campaign's results are byte-identical whatever its worker count.
type Campaign = harness.Campaign

// RunCampaign executes the points with the given worker count (0/1 = one
// worker taking them in order, n>1 = n workers, negative = one per CPU)
// and returns results in point order.
func RunCampaign(points []Point, parallel int) ([]Result, error) {
	return harness.RunCampaign(points, parallel)
}

// PointSeed derives a grid point's seed from a campaign seed; it is a
// pure function of its inputs.
func PointSeed(campaignSeed int64, idx int) int64 { return harness.PointSeed(campaignSeed, idx) }

// SweepGrid crosses localities × gossip period × view size into one
// campaign (nil slices use a default grid) and runs every cell, honouring
// p.Parallel; a cell's coordinates are in its label and its Params.
func SweepGrid(p Params, localities []int, periods []Time, views []int) ([]Row, error) {
	return harness.SweepGrid(p, localities, periods, views)
}

// TraceEvent is one structured protocol event from a traced run.
type TraceEvent = trace.Event

// TraceBuffer retains the protocol steps of a traced run as fixed-size
// records and renders them as TraceEvents when read.
type TraceBuffer = trace.Buffer

// RunFlowerTraced is RunFlower with protocol tracing enabled: up to
// traceCapacity events (query routing, redirects, failures, replacements)
// are retained in the returned buffer.
func RunFlowerTraced(p Params, traceCapacity int) (Result, *TraceBuffer, error) {
	return harness.RunFlowerTraced(p, traceCapacity)
}

// FormatTrace renders traced events as a readable transcript.
func FormatTrace(events []TraceEvent) string { return trace.Format(events) }

// WorkloadQuery is one request of a (synthetic or replayed) query stream.
type WorkloadQuery = workload.Query

// ParseWorkloadTrace reads the replayable trace format
// ("at_ms,site_idx,locality,member,object_num" per line).
func ParseWorkloadTrace(r io.Reader, sites []SiteID) ([]WorkloadQuery, error) {
	return workload.ParseTrace(r, sites)
}

// WriteWorkloadTrace serialises queries in the replayable trace format.
func WriteWorkloadTrace(w io.Writer, queries []WorkloadQuery) error {
	return workload.WriteTrace(w, queries)
}

// SiteID names a website.
type SiteID = model.SiteID

// ObjectRef is a dense interned object identifier (see internal/model):
// the uint32 every content-plane layer keys on instead of URL strings.
type ObjectRef = model.ObjectRef

// NoRef is the invalid ObjectRef sentinel (e.g. on parsed workload traces,
// whose queries are re-interned by the consuming system).
const NoRef = model.NoRef

// MakeSites generates n website identifiers.
func MakeSites(n int) []SiteID { return model.MakeSites(n) }

// RunFlowerReplay runs Flower-CDN against a recorded query trace.
func RunFlowerReplay(p Params, queries []WorkloadQuery) (Result, error) {
	return harness.RunFlowerReplay(p, queries)
}

// RunSquirrel simulates the Squirrel baseline under the same parameters.
func RunSquirrel(p Params) (Result, error) { return harness.RunSquirrel(p) }

// Comparison runs both systems on the same seed, topology and workload
// (the basis of Figures 6–8).
func Comparison(p Params) (flower, baseline Result, err error) {
	return harness.Comparison(p)
}

// ComputeHeadline derives the paper's headline ratios (lookup ×9,
// transfer ×2, …) from a comparison pair.
func ComputeHeadline(flower, baseline Result) Headline {
	return harness.ComputeHeadline(flower, baseline)
}

// Table2a sweeps the gossip length L_gossip (paper: 5, 10, 20; nil uses
// the paper's values).
func Table2a(p Params, values []int) ([]Row, error) { return harness.Table2a(p, values) }

// Table2b sweeps the gossip period T_gossip (paper: 1 min, 30 min, 1 h).
func Table2b(p Params, values []Time) ([]Row, error) { return harness.Table2b(p, values) }

// Table2c sweeps the view size V_gossip (paper: 20, 50, 70).
func Table2c(p Params, values []int) ([]Row, error) { return harness.Table2c(p, values) }

// Fig5 runs Flower-CDN at the chosen operating point; the Report.Series of
// the result carries hit ratio and background traffic over time.
func Fig5(p Params) (Result, error) { return harness.Fig5(p) }

// AblationPushThreshold sweeps the push threshold (§6.2).
func AblationPushThreshold(p Params, values []float64) ([]Row, error) {
	return harness.AblationPushThreshold(p, values)
}

// AblationQueryPolicy compares view-only member lookups (the paper's
// behaviour) with a view-then-directory fallback.
func AblationQueryPolicy(p Params) (viewOnly, viaDir Result, err error) {
	return harness.AblationQueryPolicy(p)
}

// AblationChurn sweeps peer failure rates, exercising §5's recovery
// mechanisms.
func AblationChurn(p Params, perHour []float64) ([]Row, error) {
	return harness.AblationChurn(p, perHour)
}

// AblationHomeStore compares Squirrel's directory and home-store
// strategies (§7).
func AblationHomeStore(p Params) (directory, homeStore Result, err error) {
	return harness.AblationHomeStore(p)
}

// AblationActiveReplication compares the base system with the §8
// extension (directories proactively replicate popular objects into
// sibling overlays).
func AblationActiveReplication(p Params, topK []int) ([]Row, error) {
	return harness.AblationActiveReplication(p, topK)
}

// AblationScaleUp compares the basic one-directory-per-(website,locality)
// scheme with the §5.3 multi-instance extension under a client population
// that overflows S_co.
func AblationScaleUp(p Params, instanceBits []uint) ([]Row, error) {
	return harness.AblationScaleUp(p, instanceBits)
}

// ConditionalRoutingResult quantifies D-ring's Algorithm 2 against plain
// DHT routing when directory positions are dead.
type ConditionalRoutingResult = harness.ConditionalRoutingResult

// AblationConditionalRouting measures same-website delivery rates with
// and without the conditional local lookup.
func AblationConditionalRouting(seed int64, websites, localities int, failFraction float64, lookups int) (ConditionalRoutingResult, error) {
	return harness.AblationConditionalRouting(seed, websites, localities, failFraction, lookups)
}

// SubstrateResult compares D-ring routing over Chord and Pastry.
type SubstrateResult = harness.SubstrateResult

// CompareSubstrates routes identical D-ring lookups over Chord and Pastry
// builds of the same directory population (§3.1's "any standard DHT").
func CompareSubstrates(seed int64, websites, localities, lookups int) (SubstrateResult, error) {
	return harness.CompareSubstrates(seed, websites, localities, lookups)
}

// HistCSV renders a latency/distance distribution as CSV for plotting
// (Report.SeriesCSV does the same for the time series).
func HistCSV(hist []HistBin) string { return metrics.HistCSV(hist) }

// FracWithin returns the fraction of a distribution strictly below ms.
func FracWithin(hist []HistBin, ms float64) float64 { return metrics.FracWithin(hist, ms) }

// FracBeyond returns the fraction of a distribution at or above ms.
func FracBeyond(hist []HistBin, ms float64) float64 { return metrics.FracBeyond(hist, ms) }
