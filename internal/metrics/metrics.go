// Package metrics collects the four evaluation metrics of the paper (§6):
//
//   - hit ratio: fraction of queries satisfied from the P2P system;
//   - lookup latency: time for a query to reach the node that will provide
//     the object (content peer or origin server);
//   - transfer distance: one-way latency from provider to requester;
//   - background traffic: average bps per participant due to gossip and
//     push exchanges.
//
// The collector keeps both run-level aggregates (Tables 2a–c) and a time
// series of fixed-width buckets (Figures 5–8a), plus the latency and
// distance distributions (Figures 7b and 8b). It also implements
// simnet.TrafficSink so every simulated message is accounted by category.
package metrics

import (
	"math"

	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// Source says who ultimately provided the object for a query.
type Source uint8

// Sources of query results.
const (
	SourceLocal         Source = iota // requester's own store
	SourcePeer                        // a content peer in the requester's locality overlay
	SourceRemoteOverlay               // a content peer found through another locality's directory
	SourceServer                      // the website's origin server (P2P miss)
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceLocal:
		return "local"
	case SourcePeer:
		return "peer"
	case SourceRemoteOverlay:
		return "remote-overlay"
	case SourceServer:
		return "server"
	default:
		return "unknown"
	}
}

// IsHit reports whether the source counts toward the hit ratio (anything
// but the origin server).
func (s Source) IsHit() bool { return s != SourceServer }

// Config sizes the collector.
type Config struct {
	BucketWidth simkernel.Time // time-series resolution (default 30 min)

	// Horizon is the expected simulated duration. When set, the collector
	// preallocates the full time-series bucket range up front, so the
	// per-message accounting path (RecordMessage) never appends in steady
	// state. Events beyond the horizon still work — the bucket slice grows
	// on demand as before. 0 means "unknown" (grow on demand only).
	Horizon simkernel.Time
}

// Histogram bins, as in the paper's figures: lookup latency in 150 ms bins
// (Fig 7b, seven finite bins, so the last reads ">1050ms") and transfer
// distance in 100 ms bins (Fig 8b, five finite bins, ">500ms"); one overflow
// bin follows the finite ones.
const (
	latencyBinMs  = 150
	latencyBins   = 7
	distanceBinMs = 100
	distanceBins  = 5
)

type bucket struct {
	queries    int64
	hits       int64
	lookupSum  float64
	distSum    float64
	distCount  int64 // queries with a meaningful transfer distance
	background int64 // gossip+push bytes
	peerMs     int64 // integrated peer-milliseconds within the bucket
}

// Collector accumulates metrics for one simulation run. Not safe for
// concurrent use; the simulation is single-threaded by design.
type Collector struct {
	cfg Config

	totalQueries   int64
	hits           int64
	bySource       [4]int64
	lookupBySource [4]float64
	lookupSum      float64
	distSum        float64
	distCount      int64
	p2pLookupSum   float64
	p2pDistSum     float64
	p2pDistCount   int64

	latencyHist  [latencyBins + 1]int64 // the last bin is the overflow
	distanceHist [distanceBins + 1]int64

	// The order statistics are read off counts per simulated millisecond,
	// not stored samples: lookups (whole milliseconds already; a few KB of
	// slots on a clean network) and transfer distances (≤ 501 slots, since
	// a link's latency stops at the topology's 500 ms).
	lookups   msCounts
	distances msCounts

	trafficBytes [simnet.NumCategories]int64
	trafficMsgs  [simnet.NumCategories]int64

	buckets []bucket

	// peer-time integration
	curPeers    int
	lastChange  simkernel.Time
	peerMsTotal int64

	// diagnostics
	redirectFailures int64
	routeTTLExpiry   int64

	// Fallback-chain accounting (holder → directory → origin): how many
	// times queries re-armed a retry, fell back from the view/holder tier
	// to a directory lookup, and degraded all the way to the origin server.
	retries         int64
	dirFallbacks    int64
	originFallbacks int64
	// Adaptive gray-failure accounting (Config.Adaptive): hedged lookups
	// sent, hedges that reached a directory before the primary, and holder
	// circuit breakers tripped open.
	hedges       int64
	hedgeWins    int64
	breakerTrips int64
}

// New creates a collector.
func New(cfg Config) *Collector {
	if cfg.BucketWidth <= 0 {
		cfg.BucketWidth = 30 * simkernel.Minute
	}
	c := &Collector{cfg: cfg}
	if cfg.Horizon > 0 {
		// One bucket per width across the horizon, plus one for events
		// landing exactly at the horizon boundary.
		c.buckets = make([]bucket, int(cfg.Horizon/cfg.BucketWidth)+1)
	}
	return c
}

func (c *Collector) bucketAt(at simkernel.Time) *bucket {
	i := int(at / c.cfg.BucketWidth)
	if i < len(c.buckets) { // preallocated (or already grown) — append-free
		return &c.buckets[i]
	}
	for len(c.buckets) <= i {
		c.buckets = append(c.buckets, bucket{})
	}
	return &c.buckets[i]
}

// advancePeerTime integrates curPeers over [lastChange, now) into the
// affected buckets.
func (c *Collector) advancePeerTime(now simkernel.Time) {
	if now <= c.lastChange {
		return
	}
	t := c.lastChange
	for t < now {
		end := (t/c.cfg.BucketWidth + 1) * c.cfg.BucketWidth
		if end > now {
			end = now
		}
		span := int64(end - t)
		c.bucketAt(t).peerMs += span * int64(c.curPeers)
		c.peerMsTotal += span * int64(c.curPeers)
		t = end
	}
	c.lastChange = now
}

// PeerJoined registers one more accounted participant from time at.
func (c *Collector) PeerJoined(at simkernel.Time) {
	c.advancePeerTime(at)
	c.curPeers++
}

// PeerLeft removes a participant from time at.
func (c *Collector) PeerLeft(at simkernel.Time) {
	c.advancePeerTime(at)
	if c.curPeers > 0 {
		c.curPeers--
	}
}

// Peers returns the current accounted participant count.
func (c *Collector) Peers() int { return c.curPeers }

// RecordMessage implements simnet.TrafficSink.
func (c *Collector) RecordMessage(at simkernel.Time, from, to simnet.NodeID, cat simnet.Category, bytes int) {
	c.trafficBytes[cat] += int64(bytes)
	c.trafficMsgs[cat]++
	if cat == simnet.CatGossip || cat == simnet.CatPush {
		// Sender and receiver both experience the bytes (§6's per-peer
		// traffic), so background volume counts each message twice.
		c.bucketAt(at).background += 2 * int64(bytes)
	}
}

// RecordQuery records a resolved query. distMs < 0 means "no transfer
// distance" (should not normally happen; local hits record 0).
func (c *Collector) RecordQuery(at simkernel.Time, src Source, lookupMs, distMs float64) {
	c.totalQueries++
	c.bySource[src]++
	hit := src.IsHit()
	if hit {
		c.hits++
	}
	c.lookupSum += lookupMs
	c.lookupBySource[src] += lookupMs
	c.lookups.add(lookupMs)
	bin := int(lookupMs / latencyBinMs)
	if bin >= len(c.latencyHist) {
		bin = len(c.latencyHist) - 1
	}
	c.latencyHist[bin]++

	b := c.bucketAt(at)
	b.queries++
	if hit {
		b.hits++
	}
	b.lookupSum += lookupMs

	if distMs >= 0 {
		c.distSum += distMs
		c.distCount++
		c.distances.add(distMs)
		dbin := int(distMs / distanceBinMs)
		if dbin >= len(c.distanceHist) {
			dbin = len(c.distanceHist) - 1
		}
		c.distanceHist[dbin]++
		b.distSum += distMs
		b.distCount++
	}
	if hit {
		c.p2pLookupSum += lookupMs
		if distMs >= 0 {
			c.p2pDistSum += distMs
			c.p2pDistCount++
		}
	}
}

// msCounts is a series of n values held as counts per whole millisecond:
// counts[ms] counts the values that round to ms, grown to the largest seen.
// Slots stop at maxSlot, which gathers everything slower; max keeps the
// exact largest value beside them.
type msCounts struct {
	counts []uint32
	n      int64
	max    float64
}

// maxSlot is the last slot of a count series, ≈ 17 simulated minutes. The
// retry ladders give up within a few minutes, so no run gets near it; it
// bounds the array (4 MB) should one ever do.
const maxSlot = 1<<20 - 1

// add counts v at whole milliseconds, rounded the way topology.Latency
// rounds a link.
func (m *msCounts) add(v float64) {
	m.n++
	m.max = max(m.max, v)
	ms := min(int(math.Round(v)), maxSlot)
	if ms >= len(m.counts) {
		m.counts = append(m.counts, make([]uint32, ms+1-len(m.counts))...)
	}
	m.counts[ms]++
}

// RecordRedirectFailure counts a redirection to a dead peer (§5.1).
func (c *Collector) RecordRedirectFailure() { c.redirectFailures++ }

// RecordRouteTTLExpiry counts a routed message that hit its TTL guard; on
// a stable ring this must stay zero.
func (c *Collector) RecordRouteTTLExpiry() { c.routeTTLExpiry++ }

// RecordRetry counts one query retry (re-routed lookup or next-candidate
// advance after a timeout).
func (c *Collector) RecordRetry() { c.retries++ }

// RecordDirFallback counts a query falling back from the view/holder tier
// to a directory lookup.
func (c *Collector) RecordDirFallback() { c.dirFallbacks++ }

// RecordOriginFallback counts a query degrading to the origin server after
// the P2P tiers were exhausted or unreachable.
func (c *Collector) RecordOriginFallback() { c.originFallbacks++ }

// RecordHedge counts a hedged lookup sent after the adaptive tail deadline
// passed with no directory claiming the query.
func (c *Collector) RecordHedge() { c.hedges++ }

// RecordHedgeWin counts a hedged lookup that reached a directory before
// the primary lookup did.
func (c *Collector) RecordHedgeWin() { c.hedgeWins++ }

// RecordBreakerTrip counts a holder circuit breaker opening after
// repeated redirect/peer-query timeouts.
func (c *Collector) RecordBreakerTrip() { c.breakerTrips++ }
