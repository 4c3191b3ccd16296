package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

func TestSourceSemantics(t *testing.T) {
	if SourceServer.IsHit() {
		t.Fatal("server must not count as hit")
	}
	for _, s := range []Source{SourceLocal, SourcePeer, SourceRemoteOverlay} {
		if !s.IsHit() {
			t.Fatalf("%v must count as hit", s)
		}
	}
	names := map[string]bool{}
	for s := Source(0); s < 5; s++ {
		n := s.String()
		if n == "" {
			t.Fatal("empty source name")
		}
		names[n] = true
	}
	if len(names) != 5 {
		t.Fatalf("expected 5 distinct names incl. unknown, got %d", len(names))
	}
}

func TestHitRatioAndAverages(t *testing.T) {
	c := New(Config{})
	c.PeerJoined(0)
	c.RecordQuery(0, SourcePeer, 100, 50)
	c.RecordQuery(0, SourceServer, 400, 300)
	c.RecordQuery(0, SourceLocal, 0, 0)
	c.RecordQuery(0, SourceRemoteOverlay, 200, 150)
	r := c.Snapshot(simkernel.Hour)
	if r.TotalQueries != 4 || r.Hits != 3 {
		t.Fatalf("totals wrong: %+v", r)
	}
	if math.Abs(r.HitRatio-0.75) > 1e-9 {
		t.Fatalf("hit ratio = %v, want 0.75", r.HitRatio)
	}
	if math.Abs(r.AvgLookupMs-175) > 1e-9 {
		t.Fatalf("avg lookup = %v, want 175", r.AvgLookupMs)
	}
	if math.Abs(r.AvgTransferMs-125) > 1e-9 {
		t.Fatalf("avg transfer = %v, want 125", r.AvgTransferMs)
	}
	if math.Abs(r.P2PAvgLookupMs-100) > 1e-9 {
		t.Fatalf("p2p avg lookup = %v, want 100", r.P2PAvgLookupMs)
	}
	if r.BySource["server"] != 1 || r.BySource["local"] != 1 {
		t.Fatalf("by-source wrong: %v", r.BySource)
	}
}

func TestHistogramBinning(t *testing.T) {
	c := New(Config{})
	// 150ms bins, 7 finite + overflow. 1200ms goes to overflow.
	c.RecordQuery(0, SourcePeer, 10, 10)
	c.RecordQuery(0, SourcePeer, 149.9, 99.9)
	c.RecordQuery(0, SourcePeer, 150, 100)
	c.RecordQuery(0, SourcePeer, 1200, 600)
	r := c.Snapshot(simkernel.Hour)
	if r.LatencyHist[0].Count != 2 {
		t.Fatalf("first latency bin = %d, want 2", r.LatencyHist[0].Count)
	}
	if r.LatencyHist[1].Count != 1 {
		t.Fatalf("second latency bin = %d, want 1", r.LatencyHist[1].Count)
	}
	last := r.LatencyHist[len(r.LatencyHist)-1]
	if !last.Overflow || last.Count != 1 {
		t.Fatalf("overflow bin wrong: %+v", last)
	}
	if got := FracWithin(r.LatencyHist, 150); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("FracWithin(150) = %v, want 0.5", got)
	}
	if got := FracBeyond(r.LatencyHist, 1050); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("FracBeyond(1050) = %v, want 0.25", got)
	}
	if r.DistanceHist[0].Count != 2 || r.DistanceHist[1].Count != 1 {
		t.Fatalf("distance bins wrong: %+v", r.DistanceHist[:2])
	}
}

func TestBackgroundBpsAccounting(t *testing.T) {
	c := New(Config{BucketWidth: simkernel.Hour})
	// Two peers for exactly one hour.
	c.PeerJoined(0)
	c.PeerJoined(0)
	// One gossip message of 450 bytes: counted twice (both endpoints).
	c.RecordMessage(10*simkernel.Minute, 1, 2, simnet.CatGossip, 450)
	// Query traffic must NOT count toward background.
	c.RecordMessage(10*simkernel.Minute, 1, 2, simnet.CatQuery, 10000)
	c.RecordMessage(20*simkernel.Minute, 2, 3, simnet.CatPush, 50)
	r := c.Snapshot(simkernel.Hour)
	// background bytes = 2*(450+50) = 1000 → bits = 8000.
	// peer-seconds = 2 * 3600 = 7200 → 8000/7200 ≈ 1.111 bps.
	want := 8000.0 / 7200.0
	if math.Abs(r.BackgroundBps-want) > 1e-9 {
		t.Fatalf("background bps = %v, want %v", r.BackgroundBps, want)
	}
	if len(r.Series) != 1 {
		t.Fatalf("series buckets = %d, want 1", len(r.Series))
	}
	if math.Abs(r.Series[0].BackgroundBps-want) > 1e-9 {
		t.Fatalf("bucket bps = %v, want %v", r.Series[0].BackgroundBps, want)
	}
	if math.Abs(r.Series[0].Peers-2) > 1e-9 {
		t.Fatalf("bucket peers = %v, want 2", r.Series[0].Peers)
	}
}

func TestPeerTimeIntegrationAcrossBuckets(t *testing.T) {
	c := New(Config{BucketWidth: simkernel.Hour})
	c.PeerJoined(0)
	c.PeerJoined(30 * simkernel.Minute) // second peer joins mid-bucket
	c.PeerLeft(90 * simkernel.Minute)   // leaves mid-second-bucket
	r := c.Snapshot(2 * simkernel.Hour)
	// Bucket 0: 1 peer 30min + 2 peers 30min = 1.5 peer-hours.
	if math.Abs(r.Series[0].Peers-1.5) > 1e-9 {
		t.Fatalf("bucket0 peers = %v, want 1.5", r.Series[0].Peers)
	}
	// Bucket 1: 2 peers 30min + 1 peer 30min = 1.5 peer-hours.
	if math.Abs(r.Series[1].Peers-1.5) > 1e-9 {
		t.Fatalf("bucket1 peers = %v, want 1.5", r.Series[1].Peers)
	}
	if math.Abs(r.PeerSecondsTotal-3*3600) > 1e-6 {
		t.Fatalf("peer seconds = %v, want %v", r.PeerSecondsTotal, 3*3600)
	}
}

func TestCumulativeVsWindowedHitRatio(t *testing.T) {
	c := New(Config{BucketWidth: simkernel.Hour})
	c.PeerJoined(0)
	// Bucket 0: 0/2 hits. Bucket 1: 2/2 hits.
	c.RecordQuery(1*simkernel.Minute, SourceServer, 100, 100)
	c.RecordQuery(2*simkernel.Minute, SourceServer, 100, 100)
	c.RecordQuery(61*simkernel.Minute, SourcePeer, 10, 10)
	c.RecordQuery(62*simkernel.Minute, SourcePeer, 10, 10)
	r := c.Snapshot(2 * simkernel.Hour)
	if r.Series[0].HitRatio != 0 || r.Series[1].HitRatio != 1 {
		t.Fatalf("windowed hit ratios wrong: %+v", r.Series)
	}
	if math.Abs(r.Series[1].CumHitRatio-0.5) > 1e-9 {
		t.Fatalf("cumulative at bucket1 = %v, want 0.5", r.Series[1].CumHitRatio)
	}
}

func TestTrafficByCategory(t *testing.T) {
	c := New(Config{})
	c.RecordMessage(0, 1, 2, simnet.CatMaintenance, 100)
	c.RecordMessage(0, 1, 2, simnet.CatMaintenance, 100)
	c.RecordMessage(0, 1, 2, simnet.CatKeepalive, 20)
	r := c.Snapshot(simkernel.Hour)
	var maint, ka TrafficStat
	for _, ts := range r.Traffic {
		switch ts.Category {
		case simnet.CatMaintenance:
			maint = ts
		case simnet.CatKeepalive:
			ka = ts
		}
	}
	if maint.Bytes != 200 || maint.Messages != 2 {
		t.Fatalf("maintenance stat wrong: %+v", maint)
	}
	if ka.Bytes != 20 || ka.Messages != 1 {
		t.Fatalf("keepalive stat wrong: %+v", ka)
	}
}

func TestDiagnosticsCounters(t *testing.T) {
	c := New(Config{})
	c.RecordRedirectFailure()
	c.RecordRedirectFailure()
	c.RecordRouteTTLExpiry()
	r := c.Snapshot(simkernel.Hour)
	if r.RedirectFailures != 2 || r.RouteTTLExpiry != 1 {
		t.Fatalf("diag counters wrong: %+v", r)
	}
}

// Property: histogram fractions sum to 1 (when there are queries) and
// FracWithin is monotone in its threshold.
func TestQuickHistogramConsistency(t *testing.T) {
	prop := func(raw []uint16) bool {
		c := New(Config{})
		for _, v := range raw {
			c.RecordQuery(0, SourcePeer, float64(v), float64(v)/2)
		}
		r := c.Snapshot(simkernel.Hour)
		if len(raw) == 0 {
			return true
		}
		var sum float64
		for _, b := range r.LatencyHist {
			sum += b.Frac
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		prev := 0.0
		for ms := 150.0; ms <= 1050; ms += 150 {
			f := FracWithin(r.LatencyHist, ms)
			if f < prev-1e-12 {
				return false
			}
			prev = f
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentiles(t *testing.T) {
	c := New(Config{})
	// 100 lookups: 1..100 ms.
	for i := 1; i <= 100; i++ {
		c.RecordQuery(0, SourcePeer, float64(i), float64(i))
	}
	r := c.Snapshot(simkernel.Hour)
	p := r.LookupPercentiles
	if p.P50 != 50 {
		t.Fatalf("p50 = %v, want 50", p.P50)
	}
	if p.P95 != 95 {
		t.Fatalf("p95 = %v, want 95", p.P95)
	}
	if p.P99 != 99 {
		t.Fatalf("p99 = %v, want 99", p.P99)
	}
	if p.Max != 100 {
		t.Fatalf("max = %v, want 100", p.Max)
	}
	if r.TransferPercentiles.P50 != 50 {
		t.Fatalf("transfer p50 = %v", r.TransferPercentiles.P50)
	}
}

func TestPercentilesEmptyAndSingle(t *testing.T) {
	c := New(Config{})
	r := c.Snapshot(simkernel.Hour)
	if r.LookupPercentiles != (Percentiles{}) {
		t.Fatal("empty percentiles should be zero")
	}
	c.RecordQuery(0, SourcePeer, 42, 42)
	r = c.Snapshot(simkernel.Hour)
	p := r.LookupPercentiles
	if p.P50 != 42 || p.P99 != 42 || p.Max != 42 {
		t.Fatalf("single-sample percentiles wrong: %+v", p)
	}
}

// Property: percentiles are monotone and bounded by the maximum.
func TestQuickPercentilesMonotone(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		c := New(Config{})
		for _, v := range raw {
			c.RecordQuery(0, SourcePeer, float64(v), -1)
		}
		p := c.Snapshot(simkernel.Hour).LookupPercentiles
		return p.P50 <= p.P90 && p.P90 <= p.P95 && p.P95 <= p.P99 && p.P99 <= p.Max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatAndString(t *testing.T) {
	c := New(Config{})
	c.PeerJoined(0)
	c.RecordQuery(0, SourcePeer, 100, 80)
	r := c.Snapshot(simkernel.Hour)
	if s := r.String(); len(s) == 0 {
		t.Fatal("empty report string")
	}
}

func TestAvgLookupBySource(t *testing.T) {
	c := New(Config{})
	c.RecordQuery(0, SourceLocal, 0, 0)
	c.RecordQuery(0, SourcePeer, 100, 50)
	c.RecordQuery(0, SourcePeer, 200, 60)
	c.RecordQuery(0, SourceServer, 900, 300)
	r := c.Snapshot(simkernel.Hour)
	if got := r.AvgLookupBySource["peer"]; math.Abs(got-150) > 1e-9 {
		t.Fatalf("peer avg = %v, want 150", got)
	}
	if got := r.AvgLookupBySource["server"]; math.Abs(got-900) > 1e-9 {
		t.Fatalf("server avg = %v, want 900", got)
	}
	if got := r.AvgLookupBySource["local"]; got != 0 {
		t.Fatalf("local avg = %v, want 0", got)
	}
	if _, present := r.AvgLookupBySource["remote-overlay"]; present {
		t.Fatal("unused source should be absent from the map")
	}
}

func TestCSVExports(t *testing.T) {
	c := New(Config{BucketWidth: simkernel.Hour})
	c.PeerJoined(0)
	c.RecordQuery(10*simkernel.Minute, SourcePeer, 120, 80)
	c.RecordQuery(70*simkernel.Minute, SourceServer, 400, 250)
	r := c.Snapshot(2 * simkernel.Hour)
	csv := r.SeriesCSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 { // header + 2 buckets
		t.Fatalf("series csv lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "hour,queries,") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0.00,1,1.0000") {
		t.Fatalf("bad first bucket: %s", lines[1])
	}
	hcsv := HistCSV(r.LatencyHist)
	hlines := strings.Split(strings.TrimSpace(hcsv), "\n")
	if len(hlines) != len(r.LatencyHist)+1 {
		t.Fatalf("hist csv lines = %d", len(hlines))
	}
	if !strings.Contains(hcsv, "true") {
		t.Fatal("overflow bin not marked")
	}
}

func TestNegativeDistanceSkipped(t *testing.T) {
	c := New(Config{})
	c.RecordQuery(0, SourcePeer, 100, -1)
	r := c.Snapshot(simkernel.Hour)
	if r.AvgTransferMs != 0 {
		t.Fatalf("negative distance should be excluded, got %v", r.AvgTransferMs)
	}
	var total int64
	for _, b := range r.DistanceHist {
		total += b.Count
	}
	if total != 0 {
		t.Fatal("distance histogram should be empty")
	}
}

// sortedPercentiles is the oracle the counts are checked against: the
// nearest-rank values of a sorted copy of the samples.
func sortedPercentiles(samples []float64) Percentiles {
	s := slices.Clone(samples)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return Percentiles{}
	}
	return Percentiles{
		P50: s[nearestRank(0.50, n)],
		P90: s[nearestRank(0.90, n)],
		P95: s[nearestRank(0.95, n)],
		P99: s[nearestRank(0.99, n)],
		Max: s[n-1],
	}
}

// The transfer percentiles are read off per-millisecond counts, as the
// lookup ones are. Over 200 seeded series — lengths 1, 2, 3, 16 and 17, then
// random lengths up to 2·10⁵; uniform distances in [0, 500], at least a third
// exact zeros (local hits record distance 0), integral lookups with a
// retry-ladder tail, and few distinct values on the half-millisecond —
// recorded as lookups and as distances, P50–P99 must be the nearest-rank
// values of a sorted copy of the rounded samples and within 0.5 ms of the
// unrounded ones, Max the exact maximum, each count array just long enough
// for the largest rounded sample, and a second Snapshot of the same
// collector must report the same.
func TestTransferPercentilesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	shapes := []struct {
		name string
		at   func(i int) float64
	}{
		{"uniform", func(int) float64 { return 500 * rng.Float64() }},
		{"zeros", func(i int) float64 {
			if i%3 == 0 || rng.Intn(4) == 0 {
				return 0
			}
			return 500 * rng.Float64()
		}},
		{"integral lookups", func(int) float64 {
			if rng.Intn(50) == 0 {
				return float64(40 * rng.Intn(1200)) // a retry-ladder tail
			}
			return float64(rng.Intn(1200))
		}},
		{"few distinct", func(int) float64 { return 12.5 * float64(rng.Intn(4)) }},
	}
	for trial := 0; trial < 200; trial++ {
		shape := shapes[trial%len(shapes)]
		n := int(math.Exp(rng.Float64() * math.Log(2e5)))
		if edge := []int{1, 2, 3, 16, 17}; trial/len(shapes) < len(edge) {
			n = edge[trial/len(shapes)]
		}
		raw, rounded := make([]float64, n), make([]float64, n)
		c := New(Config{})
		for i := range raw {
			raw[i] = shape.at(i)
			rounded[i] = math.Round(raw[i])
			c.RecordQuery(0, SourcePeer, raw[i], raw[i])
		}
		exact, want := sortedPercentiles(raw), sortedPercentiles(rounded)
		want.Max = exact.Max
		r := c.Snapshot(simkernel.Hour)
		for _, m := range []*msCounts{&c.lookups, &c.distances} {
			if len(m.counts) != int(math.Round(exact.Max))+1 {
				t.Fatalf("%s, %d samples up to %v ms over %d slots", shape.name, n, exact.Max, len(m.counts))
			}
		}
		for _, got := range []Percentiles{r.LookupPercentiles, r.TransferPercentiles} {
			if got != want {
				t.Fatalf("%s, %d samples: counted %+v, sorted %+v", shape.name, n, got, want)
			}
			for _, d := range [4]float64{got.P50 - exact.P50, got.P90 - exact.P90, got.P95 - exact.P95, got.P99 - exact.P99} {
				if math.Abs(d) > 0.5 {
					t.Fatalf("%s, %d samples: counted %+v, %v from the unrounded %+v", shape.name, n, got, d, exact)
				}
			}
		}
		if again := c.Snapshot(simkernel.Hour); !reflect.DeepEqual(again, r) {
			t.Fatalf("%s, %d samples: a second Snapshot reads %+v, the first %+v", shape.name, n, again.TransferPercentiles, r.TransferPercentiles)
		}
	}
}

// The lookup percentiles must be the order statistics of a sorted copy of
// the same whole-ms samples, whatever the series: empty, single, all equal,
// and wide enough that the count array grew several times.
func TestCountedPercentilesMatchSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	series := [][]int{
		{},
		{0},
		{42},
		{7, 7, 7, 7, 7, 7, 7},
		{3, 250000, 3}, // one outlier grows the array past everything else
	}
	for trial := 0; trial < 300; trial++ {
		n, spread := 1+rng.Intn(400), 1+rng.Intn(5000)
		s := make([]int, n)
		for i := range s {
			s[i] = rng.Intn(spread)
			if rng.Intn(50) == 0 {
				s[i] *= 40 // a retry-ladder tail
			}
		}
		series = append(series, s)
	}
	for _, s := range series {
		c := New(Config{})
		samples := make([]float64, len(s))
		for i, ms := range s {
			samples[i] = float64(ms)
			c.RecordQuery(0, SourcePeer, float64(ms), -1)
		}
		want := sortedPercentiles(samples)
		if got := c.Snapshot(simkernel.Hour).LookupPercentiles; got != want {
			t.Fatalf("%d samples %v: counted %+v, sorted %+v", len(s), s[:min(len(s), 8)], got, want)
		}
		if len(c.lookups.counts) > 0 && len(c.lookups.counts) != int(want.Max)+1 {
			t.Fatalf("count array has %d slots for a maximum of %v ms", len(c.lookups.counts), want.Max)
		}
	}

	// A fractional lookup is counted at its nearest millisecond, and the
	// slowest one is reported exactly even when its slot is the clamped last.
	c := New(Config{})
	c.RecordQuery(0, SourcePeer, 149.4, -1)
	c.RecordQuery(0, SourcePeer, 5*maxSlot, -1)
	p := c.Snapshot(simkernel.Hour).LookupPercentiles
	if p.P50 != 149 || p.Max != 5*maxSlot || len(c.lookups.counts) != maxSlot+1 {
		t.Fatalf("p50 %v max %v over %d slots, want 149, %d, %d", p.P50, p.Max, len(c.lookups.counts), 5*maxSlot, maxSlot+1)
	}
}

// Recording a query and reading the percentiles allocate nothing in steady
// state, and the distance counts stop at the topology's 500 ms however many
// queries a run records.
func TestSnapshotPercentileAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(Config{Horizon: simkernel.Hour})
	for i := 0; i < 1000000; i++ {
		c.RecordQuery(simkernel.Time(i%3600)*simkernel.Second, Source(i%4), float64(rng.Intn(1000)), 500*rng.Float64())
	}
	if n := len(c.distances.counts); n > 501 {
		t.Fatalf("10⁶ distances in [0, 500] over %d slots, want ≤ 501", n)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		c.RecordQuery(30*simkernel.Minute, SourcePeer, 999, 499.9)
	}); allocs != 0 {
		t.Fatalf("RecordQuery: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		c.lookups.percentiles()
		c.distances.percentiles()
	}); allocs != 0 {
		t.Fatalf("percentiles of %d queries: %.1f allocs/op, want 0", c.totalQueries, allocs)
	}
}

// BenchmarkSnapshot times what ends every run: the Snapshot of a collector
// holding 500k recorded queries, a third of their transfer distances zero.
func BenchmarkSnapshot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := New(Config{Horizon: 24 * simkernel.Hour})
	c.PeerJoined(0)
	for i := 0; i < 500000; i++ {
		d := 0.0
		if i%3 != 0 {
			d = 20 + 400*rng.Float64()
		}
		c.RecordQuery(simkernel.Time(i%86400)*simkernel.Second, Source(i%4), float64(40+rng.Intn(900)), d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Snapshot(24 * simkernel.Hour)
	}
}
