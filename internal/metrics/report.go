package metrics

import (
	"fmt"
	"strings"

	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// HistBin is one bin of a latency or distance distribution.
type HistBin struct {
	LoMs     float64
	HiMs     float64 // +Inf rendered as overflow
	Overflow bool
	Count    int64
	Frac     float64
}

// BucketStats is one time-series point (Figures 5–8a).
type BucketStats struct {
	Start         simkernel.Time
	Queries       int64
	HitRatio      float64 // within the bucket
	CumHitRatio   float64 // cumulative up to and including the bucket
	AvgLookupMs   float64
	AvgTransferMs float64
	BackgroundBps float64 // per-peer background traffic in the bucket
	Peers         float64 // average accounted participants in the bucket
}

// Percentiles holds order statistics of a metric series: P50–P99 by the
// nearest-rank method over values rounded to whole milliseconds, Max exact.
type Percentiles struct {
	P50, P90, P95, P99 float64
	Max                float64
}

// percentileRanks are the quantiles of P50, P90, P95 and P99.
var percentileRanks = [4]float64{0.50, 0.90, 0.95, 0.99}

// nearestRank is the index, in a sorted series of n ≥ 1 samples, of the
// q-quantile by the nearest-rank method.
func nearestRank(q float64, n int) int {
	return min(max(int(q*float64(n)+0.5)-1, 0), n-1)
}

// percentiles reads the order statistics off the counts: the value at
// sorted index i is the first slot whose running total exceeds i. P50–P99
// are therefore whole milliseconds; Max is the exact maximum, which the
// last slot may have rounded or clamped.
func (m *msCounts) percentiles() Percentiles {
	if m.n == 0 {
		return Percentiles{}
	}
	var out [4]float64
	ms, below := 0, int64(0) // below: values in slots before ms
	for k, q := range percentileRanks {
		i := int64(nearestRank(q, int(m.n)))
		for below+int64(m.counts[ms]) <= i {
			below += int64(m.counts[ms])
			ms++
		}
		out[k] = float64(ms)
	}
	return Percentiles{P50: out[0], P90: out[1], P95: out[2], P99: out[3], Max: m.max}
}

// TrafficStat summarises one category.
type TrafficStat struct {
	Category simnet.Category
	Bytes    int64
	Messages int64
}

// Report is an immutable summary of a finished run.
type Report struct {
	Duration simkernel.Time

	TotalQueries int64
	Hits         int64
	HitRatio     float64
	BySource     map[string]int64
	// AvgLookupBySource breaks the lookup latency down by who served
	// (local, peer, remote-overlay, server).
	AvgLookupBySource map[string]float64

	AvgLookupMs      float64
	AvgTransferMs    float64
	P2PAvgLookupMs   float64 // over hits only
	P2PAvgTransferMs float64

	LatencyHist  []HistBin
	DistanceHist []HistBin

	LookupPercentiles   Percentiles
	TransferPercentiles Percentiles

	// FracLookupWithin returns via helper; stored raw here.
	BackgroundBps    float64 // run-level average per peer
	Traffic          []TrafficStat
	PeerSecondsTotal float64

	Series []BucketStats

	RedirectFailures int64
	RouteTTLExpiry   int64

	// Fallback-chain accounting (holder → directory → origin).
	Retries         int64
	DirFallbacks    int64
	OriginFallbacks int64

	// Adaptive gray-failure accounting (Config.Adaptive): hedged lookups
	// sent, hedges that beat the primary lookup, breakers tripped.
	Hedges       int64
	HedgeWins    int64
	BreakerTrips int64
}

// Snapshot computes the report at time end (usually the run duration).
func (c *Collector) Snapshot(end simkernel.Time) Report {
	c.advancePeerTime(end)
	r := Report{
		Duration:         end,
		TotalQueries:     c.totalQueries,
		Hits:             c.hits,
		BySource:         map[string]int64{},
		RedirectFailures: c.redirectFailures,
		RouteTTLExpiry:   c.routeTTLExpiry,
		Retries:          c.retries,
		DirFallbacks:     c.dirFallbacks,
		OriginFallbacks:  c.originFallbacks,
		Hedges:           c.hedges,
		HedgeWins:        c.hedgeWins,
		BreakerTrips:     c.breakerTrips,
	}
	r.AvgLookupBySource = map[string]float64{}
	for s := Source(0); s < 4; s++ {
		r.BySource[s.String()] = c.bySource[s]
		if c.bySource[s] > 0 {
			r.AvgLookupBySource[s.String()] = c.lookupBySource[s] / float64(c.bySource[s])
		}
	}
	if c.totalQueries > 0 {
		r.HitRatio = float64(c.hits) / float64(c.totalQueries)
		r.AvgLookupMs = c.lookupSum / float64(c.totalQueries)
	}
	if c.distCount > 0 {
		r.AvgTransferMs = c.distSum / float64(c.distCount)
	}
	if c.hits > 0 {
		r.P2PAvgLookupMs = c.p2pLookupSum / float64(c.hits)
	}
	if c.p2pDistCount > 0 {
		r.P2PAvgTransferMs = c.p2pDistSum / float64(c.p2pDistCount)
	}
	r.LatencyHist = buildHist(c.latencyHist[:], latencyBinMs, c.totalQueries)
	r.DistanceHist = buildHist(c.distanceHist[:], distanceBinMs, c.distCount)
	r.LookupPercentiles = c.lookups.percentiles()
	r.TransferPercentiles = c.distances.percentiles()

	var backgroundBytes int64
	for _, b := range c.buckets {
		backgroundBytes += b.background
	}
	if c.peerMsTotal > 0 {
		// bytes→bits over integrated peer-time (peer-ms → seconds).
		r.BackgroundBps = float64(backgroundBytes) * 8 / (float64(c.peerMsTotal) / 1000)
	}
	r.PeerSecondsTotal = float64(c.peerMsTotal) / 1000

	for cat := simnet.Category(0); int(cat) < simnet.NumCategories; cat++ {
		r.Traffic = append(r.Traffic, TrafficStat{
			Category: cat,
			Bytes:    c.trafficBytes[cat],
			Messages: c.trafficMsgs[cat],
		})
	}

	// Drop empty trailing buckets (an artifact of the run ending exactly
	// on a bucket boundary).
	buckets := c.buckets
	for len(buckets) > 0 {
		last := buckets[len(buckets)-1]
		if last.queries == 0 && last.peerMs == 0 && last.background == 0 {
			buckets = buckets[:len(buckets)-1]
			continue
		}
		break
	}
	var cumQ, cumH int64
	for i, b := range buckets {
		bs := BucketStats{Start: simkernel.Time(i) * c.cfg.BucketWidth, Queries: b.queries}
		cumQ += b.queries
		cumH += b.hits
		if b.queries > 0 {
			bs.HitRatio = float64(b.hits) / float64(b.queries)
			bs.AvgLookupMs = b.lookupSum / float64(b.queries)
		}
		if cumQ > 0 {
			bs.CumHitRatio = float64(cumH) / float64(cumQ)
		}
		if b.distCount > 0 {
			bs.AvgTransferMs = b.distSum / float64(b.distCount)
		}
		if b.peerMs > 0 {
			bs.BackgroundBps = float64(b.background) * 8 / (float64(b.peerMs) / 1000)
			bs.Peers = float64(b.peerMs) / float64(c.cfg.BucketWidth)
		}
		r.Series = append(r.Series, bs)
	}
	return r
}

func buildHist(counts []int64, binMs float64, total int64) []HistBin {
	out := make([]HistBin, len(counts))
	for i, n := range counts {
		b := HistBin{LoMs: float64(i) * binMs, HiMs: float64(i+1) * binMs, Count: n}
		if i == len(counts)-1 {
			b.Overflow = true
		}
		if total > 0 {
			b.Frac = float64(n) / float64(total)
		}
		out[i] = b
	}
	return out
}

// FracWithin returns the fraction of queries whose value fell strictly
// below ms, computed from a histogram whose bin edges align with ms.
func FracWithin(hist []HistBin, ms float64) float64 {
	var frac float64
	for _, b := range hist {
		if !b.Overflow && b.HiMs <= ms {
			frac += b.Frac
		}
	}
	return frac
}

// FracBeyond returns the fraction of queries at or above ms.
func FracBeyond(hist []HistBin, ms float64) float64 {
	var frac float64
	for _, b := range hist {
		if b.Overflow || b.LoMs >= ms {
			frac += b.Frac
		}
	}
	return frac
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("queries=%d hit=%.3f lookup=%.0fms transfer=%.0fms background=%.1fbps",
		r.TotalQueries, r.HitRatio, r.AvgLookupMs, r.AvgTransferMs, r.BackgroundBps)
}

// SeriesCSV renders the time series as CSV (for plotting Figures 5–8a).
func (r Report) SeriesCSV() string {
	var sb strings.Builder
	sb.WriteString("hour,queries,hit_window,hit_cumulative,avg_lookup_ms,avg_transfer_ms,background_bps,peers\n")
	for _, b := range r.Series {
		fmt.Fprintf(&sb, "%.2f,%d,%.4f,%.4f,%.1f,%.1f,%.2f,%.1f\n",
			float64(b.Start)/float64(simkernel.Hour), b.Queries, b.HitRatio,
			b.CumHitRatio, b.AvgLookupMs, b.AvgTransferMs, b.BackgroundBps, b.Peers)
	}
	return sb.String()
}

// HistCSV renders a distribution as CSV (for plotting Figures 7b/8b).
func HistCSV(hist []HistBin) string {
	var sb strings.Builder
	sb.WriteString("lo_ms,hi_ms,overflow,count,fraction\n")
	for _, b := range hist {
		fmt.Fprintf(&sb, "%.0f,%.0f,%t,%d,%.6f\n", b.LoMs, b.HiMs, b.Overflow, b.Count, b.Frac)
	}
	return sb.String()
}
