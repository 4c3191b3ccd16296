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
// This package assembles full experiments: it builds the topology and
// client pools, wires a Flower-CDN or Squirrel system to the workload
// generator, injects churn and faults when asked, runs the event kernel for
// the configured duration, and packages the metrics into the rows the
// paper's tables and figures report, with full-scale and laptop-scale
// presets for every table and figure of the evaluation. The protocol lives
// under internal/: the discrete-event simulator (simkernel, simnet,
// topology), the substrates (chord, pastry, bloom, gossip, workload), the
// contribution (dring, overlay, core) and the Squirrel baseline
// (squirrel). The declarations below give their types and helpers public
// names.
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

// FaultConfig configures the deterministic fault-injection plane: message
// loss, latency jitter/spikes, and scheduled locality partitions. Attach
// one to Params.Faults; nil disables the plane entirely.
type FaultConfig = simnet.FaultConfig

// PartitionWindow isolates one locality from all others during
// [Start, End) of simulated time; intra-locality traffic still flows.
type PartitionWindow = simnet.PartitionWindow

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

// TraceEvent is one structured protocol event from a traced run.
type TraceEvent = trace.Event

// TraceBuffer retains the protocol steps of a traced run as fixed-size
// records and renders them as TraceEvents when read.
type TraceBuffer = trace.Buffer

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

// HistCSV renders a latency/distance distribution as CSV for plotting
// (Report.SeriesCSV does the same for the time series).
func HistCSV(hist []HistBin) string { return metrics.HistCSV(hist) }

// FracWithin returns the fraction of a distribution strictly below ms.
func FracWithin(hist []HistBin, ms float64) float64 { return metrics.FracWithin(hist, ms) }

// FracBeyond returns the fraction of a distribution at or above ms.
func FracBeyond(hist []HistBin, ms float64) float64 { return metrics.FracBeyond(hist, ms) }
