package core

import (
	"testing"

	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

// testEnv is a small but complete Flower-CDN: 3 localities, 10 websites
// (2 active), pools of 5 clients per (site, locality).
type testEnv struct {
	sys  *System
	k    *simkernel.Kernel
	mets *metrics.Collector
	cfg  Config
}

func newTestEnv(t testing.TB, seed int64, mod func(*Config)) *testEnv {
	t.Helper()
	k := simkernel.New(seed)
	tcfg := topology.Config{
		Seed:         seed,
		Localities:   3,
		TotalNodes:   400,
		UniformNodes: 30,
		MinCount:     []int{60, 60, 60},
	}
	topo, err := topology.Generate(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Localities = 3
	cfg.Websites = 10
	cfg.ActiveSites = 2
	cfg.ObjectsPerSite = 30
	cfg.MaxOverlaySize = 10
	cfg.Gossip.SummaryCapacity = 30
	cfg.Gossip.ViewSize = 10
	cfg.Gossip.GossipLen = 4
	cfg.TGossip = 2 * simkernel.Minute
	cfg.TKeepalive = 2 * simkernel.Minute
	cfg.PoolSizes = [][]int{{5, 5, 5}, {5, 5, 5}}
	if mod != nil {
		mod(&cfg)
	}
	// Horizon preallocates the time-series buckets, so alloc-gate tests see
	// an append-free accounting path; empty trailing buckets are dropped at
	// Snapshot, so reports are unaffected.
	mets := metrics.New(metrics.Config{BucketWidth: 10 * simkernel.Minute, Horizon: 2 * simkernel.Hour})
	sys, err := New(cfg, Deps{Kernel: k, Topo: topo, Metrics: mets})
	if err != nil {
		t.Fatal(err)
	}
	// Use the validated config (New fills derived defaults such as Sites).
	return &testEnv{sys: sys, k: k, mets: mets, cfg: sys.Config()}
}

// submitAt schedules a query from pool member (si, loc, member).
func (e *testEnv) submitAt(at simkernel.Time, si, loc, member, obj int) {
	site := e.cfg.Sites[si]
	e.k.At(at, func() {
		e.sys.Submit(workload.Query{
			At: at, Site: site, SiteIdx: si, Locality: loc, Member: member,
			Object: model.ObjectID{Site: site, Num: obj},
		})
	})
}

func TestSystemConstruction(t *testing.T) {
	e := newTestEnv(t, 1, nil)
	if e.sys.Ring().Len() != 10*3 {
		t.Fatalf("D-ring has %d nodes, want 30", e.sys.Ring().Len())
	}
	for si := 0; si < 2; si++ {
		for loc := 0; loc < 3; loc++ {
			if e.sys.PoolSize(si, loc) != 5 {
				t.Fatalf("pool (%d,%d) size %d", si, loc, e.sys.PoolSize(si, loc))
			}
		}
	}
	// Every directory must be resolvable and live.
	for _, site := range e.cfg.Sites {
		for loc := 0; loc < 3; loc++ {
			if _, ok := e.sys.DirectoryAddr(site, loc); !ok {
				t.Fatalf("missing directory for %s/%d", site, loc)
			}
		}
	}
	// Directory peers must reside in the locality they serve.
	for _, site := range e.cfg.Sites {
		for loc := 0; loc < 3; loc++ {
			addr, _ := e.sys.DirectoryAddr(site, loc)
			if got := e.sys.Network().Topology().LocalityOf(addr); got != loc {
				t.Fatalf("directory for %s/%d lives in locality %d", site, loc, got)
			}
		}
	}
}

func TestFirstQueryMissesAndJoins(t *testing.T) {
	e := newTestEnv(t, 2, nil)
	e.submitAt(simkernel.Second, 0, 1, 0, 7)
	e.k.Run(simkernel.Minute)
	r := e.mets.Snapshot(simkernel.Minute)
	if r.TotalQueries != 1 {
		t.Fatalf("queries = %d, want 1", r.TotalQueries)
	}
	if r.Hits != 0 {
		t.Fatal("first query in an empty system must miss to the server")
	}
	if r.BySource["server"] != 1 {
		t.Fatalf("by-source: %v", r.BySource)
	}
	if e.sys.JoinedCount() != 1 {
		t.Fatalf("joined = %d, want 1", e.sys.JoinedCount())
	}
	origin := e.sys.PoolNode(0, 1, 0)
	if !e.sys.Joined(origin) {
		t.Fatal("originator did not join its overlay")
	}
	// The directory index must list the new member with its object.
	if got := e.sys.DirectoryIndexSize(e.cfg.Sites[0], 1); got != 1 {
		t.Fatalf("directory index size = %d, want 1", got)
	}
	// Lookup latency must be positive (D-ring route + server).
	if r.AvgLookupMs <= 0 {
		t.Fatal("first-query lookup latency should be positive")
	}
}

func TestSecondClientHitsPeer(t *testing.T) {
	e := newTestEnv(t, 3, nil)
	e.submitAt(simkernel.Second, 0, 1, 0, 7)
	e.submitAt(30*simkernel.Second, 0, 1, 1, 7) // same object, same locality
	e.k.Run(simkernel.Minute * 2)
	r := e.mets.Snapshot(simkernel.Minute * 2)
	if r.TotalQueries != 2 {
		t.Fatalf("queries = %d", r.TotalQueries)
	}
	if r.BySource["peer"] != 1 {
		t.Fatalf("expected one peer-served query: %v", r.BySource)
	}
	if e.sys.OverlaySize(0, 1) != 2 {
		t.Fatalf("overlay size = %d, want 2", e.sys.OverlaySize(0, 1))
	}
	// The second client was served by a content peer of its own overlay,
	// so its view must have been seeded with summaries.
	second := e.sys.PoolNode(0, 1, 1)
	h := e.sys.host(second)
	if h.cp == nil || h.cp.View().Len() == 0 {
		t.Fatal("second client view not seeded")
	}
}

func TestRepeatQueryIsLocalHit(t *testing.T) {
	e := newTestEnv(t, 4, nil)
	e.submitAt(simkernel.Second, 0, 0, 0, 3)
	e.submitAt(simkernel.Minute, 0, 0, 0, 3) // same member, same object
	e.k.Run(2 * simkernel.Minute)
	r := e.mets.Snapshot(2 * simkernel.Minute)
	if r.BySource["local"] != 1 {
		t.Fatalf("expected a local hit: %v", r.BySource)
	}
}

func TestMemberQueryUsesGossipedSummaries(t *testing.T) {
	e := newTestEnv(t, 5, nil)
	// Two members join with different objects, then gossip for a while,
	// then member 0 asks for member 1's object.
	e.submitAt(simkernel.Second, 0, 2, 0, 1)
	e.submitAt(2*simkernel.Second, 0, 2, 1, 2)
	// Let several gossip periods pass so summaries spread.
	e.submitAt(20*simkernel.Minute, 0, 2, 0, 2)
	e.k.Run(21 * simkernel.Minute)
	r := e.mets.Snapshot(21 * simkernel.Minute)
	if r.BySource["peer"] < 1 {
		t.Fatalf("expected member query served by peer via summaries: %v", r.BySource)
	}
	if r.HitRatio <= 0.3 {
		t.Fatalf("hit ratio = %v", r.HitRatio)
	}
}

func TestCrossLocalityViaDirectorySummaries(t *testing.T) {
	e := newTestEnv(t, 6, nil)
	// Locality 0 fetches object 5; directory summaries propagate; then a
	// new client in locality 1 asks for the same object. Algorithm 3
	// should forward the query to locality 0's overlay.
	e.submitAt(simkernel.Second, 0, 0, 0, 5)
	e.submitAt(30*simkernel.Minute, 0, 1, 0, 5)
	e.k.Run(31 * simkernel.Minute)
	r := e.mets.Snapshot(31 * simkernel.Minute)
	if r.BySource["remote-overlay"] != 1 {
		t.Fatalf("expected remote-overlay hit: %v", r.BySource)
	}
	// The remote hit must still count as a P2P hit.
	if r.Hits != 1 {
		t.Fatalf("hits = %d, want 1", r.Hits)
	}
}

func TestBackgroundTrafficAccounted(t *testing.T) {
	e := newTestEnv(t, 7, nil)
	for m := 0; m < 5; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 0, m, m)
	}
	e.k.Run(simkernel.Hour)
	r := e.mets.Snapshot(simkernel.Hour)
	var gossipBytes, pushBytes int64
	for _, ts := range r.Traffic {
		switch ts.Category {
		case simnet.CatGossip:
			gossipBytes = ts.Bytes
		case simnet.CatPush:
			pushBytes = ts.Bytes
		}
	}
	if gossipBytes == 0 {
		t.Fatal("no gossip traffic after an hour")
	}
	if pushBytes == 0 {
		t.Fatal("no push traffic despite content changes")
	}
	if r.BackgroundBps <= 0 {
		t.Fatal("background bps not computed")
	}
}

func TestRedirectFailureFallsBackToServer(t *testing.T) {
	e := newTestEnv(t, 8, nil)
	e.submitAt(simkernel.Second, 0, 1, 0, 9)
	// Kill the only holder, then have another member's first query target
	// the same object: the directory redirect must fail over to the server.
	e.k.At(2*simkernel.Minute, func() {
		e.sys.FailPeer(e.sys.PoolNode(0, 1, 0))
	})
	e.submitAt(3*simkernel.Minute, 0, 1, 1, 9)
	e.k.Run(10 * simkernel.Minute)
	r := e.mets.Snapshot(10 * simkernel.Minute)
	if r.TotalQueries != 2 {
		t.Fatalf("queries = %d", r.TotalQueries)
	}
	if r.BySource["server"] != 2 {
		t.Fatalf("expected both queries at server: %v", r.BySource)
	}
	if r.RedirectFailures < 1 {
		t.Fatal("redirect failure not recorded")
	}
}

func TestDirectoryFailureReplacement(t *testing.T) {
	e := newTestEnv(t, 9, func(c *Config) {
		c.MaintenancePeriod = time30s()
	})
	site := e.cfg.Sites[0]
	// Build an overlay with three members.
	for m := 0; m < 3; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 0, m, m)
	}
	oldAddr := simnet.NodeID(-1)
	e.k.At(simkernel.Minute, func() {
		a, ok := e.sys.DirectoryAddr(site, 0)
		if !ok {
			t.Error("directory missing before failure")
		}
		oldAddr = a
		e.sys.FailDirectory(site, 0)
	})
	// Keepalives every 2 minutes detect the failure; replacement follows.
	e.k.Run(20 * simkernel.Minute)
	newAddr, ok := e.sys.DirectoryAddr(site, 0)
	if !ok {
		t.Fatal("directory not replaced after failure")
	}
	if newAddr == oldAddr {
		t.Fatal("directory address unchanged after failure")
	}
	// The replacement must be one of the overlay's content peers.
	nh := e.sys.host(newAddr)
	if nh.cp == nil || nh.dir == nil {
		t.Fatal("replacement is not a content peer with directory role")
	}
	if e.sys.Stats().DirReplacements < 1 {
		t.Fatal("replacement not counted")
	}
	// New queries must be servable again through D-ring.
	e.submitAt(21*simkernel.Minute, 0, 0, 3, 0)
	e.k.Run(30 * simkernel.Minute)
	r := e.mets.Snapshot(30 * simkernel.Minute)
	if r.TotalQueries != 4 {
		t.Fatalf("queries = %d, want 4", r.TotalQueries)
	}
}

func time30s() simkernel.Time { return 30 * simkernel.Second }

func TestVoluntaryDirectoryLeave(t *testing.T) {
	e := newTestEnv(t, 10, nil)
	site := e.cfg.Sites[0]
	for m := 0; m < 3; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Second, 0, 0, m, m)
	}
	var before int
	e.k.At(simkernel.Minute, func() {
		before = e.sys.DirectoryIndexSize(site, 0)
		if !e.sys.DirectoryLeave(site, 0) {
			t.Error("voluntary leave refused")
		}
	})
	e.k.Run(2 * simkernel.Minute)
	newAddr, ok := e.sys.DirectoryAddr(site, 0)
	if !ok {
		t.Fatal("no directory after voluntary leave")
	}
	nh := e.sys.host(newAddr)
	if nh.dir == nil || nh.cp == nil {
		t.Fatal("successor not a member with directory role")
	}
	// The transferred index must be intact (§5.2: "transfers its directory").
	if nh.dir.Size() != before {
		t.Fatalf("index size after transfer = %d, want %d", nh.dir.Size(), before)
	}
}

func TestLocalityChange(t *testing.T) {
	e := newTestEnv(t, 11, nil)
	e.submitAt(simkernel.Second, 0, 0, 0, 4)
	origin := e.sys.PoolNode(0, 0, 0)
	e.k.At(simkernel.Minute, func() {
		if !e.sys.ChangeLocality(origin, 2) {
			t.Error("ChangeLocality refused")
		}
	})
	// Next query from the same member must join locality 2's overlay and
	// re-register its held content there.
	e.submitAt(2*simkernel.Minute, 0, 0, 0, 8)
	e.k.Run(10 * simkernel.Minute)
	h := e.sys.host(origin)
	if h.cp == nil || h.cp.Locality() != 2 {
		t.Fatalf("peer did not rejoin in locality 2")
	}
	// Old content came along (stash + push).
	if !h.cp.Has(e.obj(0, 4)) {
		t.Fatal("held content lost across locality change")
	}
	// The new directory should index the transferred content after pushes.
	dirAddr, _ := e.sys.DirectoryAddr(e.cfg.Sites[0], 2)
	dh := e.sys.host(dirAddr)
	if len(dh.dir.Holders(e.obj(0, 4))) == 0 {
		t.Fatal("new directory does not index transferred content")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		e := newTestEnv(t, 42, nil)
		for i := 0; i < 40; i++ {
			e.submitAt(simkernel.Time(i*7+1)*simkernel.Second, i%2, i%3, i%5, i%9)
		}
		e.k.Run(simkernel.Hour)
		return e.mets.Snapshot(simkernel.Hour).String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic runs:\n%s\n%s", a, b)
	}
}

func TestOverlayCapacityRespected(t *testing.T) {
	e := newTestEnv(t, 12, func(c *Config) {
		c.MaxOverlaySize = 2 // tiny S_co
		c.PoolSizes = [][]int{{5, 5, 5}, {5, 5, 5}}
	})
	for m := 0; m < 5; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Minute, 0, 0, m, m)
	}
	e.k.Run(10 * simkernel.Minute)
	if got := e.sys.OverlaySize(0, 0); got > 2 {
		t.Fatalf("overlay grew to %d beyond S_co=2", got)
	}
	if got := e.sys.DirectoryIndexSize(e.cfg.Sites[0], 0); got > 2 {
		t.Fatalf("index grew to %d beyond S_co=2", got)
	}
}

func TestViewThenDirectoryPolicy(t *testing.T) {
	e := newTestEnv(t, 13, func(c *Config) {
		c.QueryPolicy = PolicyViewThenDirectory
	})
	// Member 0 fetches obj 1; member 1 joins with obj 2. Member 1 then
	// asks for obj 1 BEFORE any gossip round: its view has no summary for
	// it, but the directory index does.
	e.submitAt(simkernel.Second, 0, 0, 0, 1)
	e.submitAt(2*simkernel.Second, 0, 0, 1, 2)
	e.submitAt(10*simkernel.Second, 0, 0, 1, 1)
	e.k.Run(simkernel.Minute)
	r := e.mets.Snapshot(simkernel.Minute)
	if r.BySource["peer"] < 1 {
		t.Fatalf("directory fallback should find the holder: %v", r.BySource)
	}
}

func TestViewOnlyPolicyMissesWithoutSummaries(t *testing.T) {
	e := newTestEnv(t, 13, func(c *Config) {
		c.TGossip = simkernel.Hour // ensure no gossip fires inside the window
		c.TKeepalive = simkernel.Hour
	})
	e.submitAt(simkernel.Second, 0, 0, 0, 1)
	e.submitAt(2*simkernel.Second, 0, 0, 1, 2)
	e.submitAt(10*simkernel.Second, 0, 0, 1, 1)
	e.k.Run(simkernel.Minute)
	r := e.mets.Snapshot(simkernel.Minute)
	// Without gossip yet, the view-only member query goes to the server.
	if r.BySource["server"] != 3 {
		t.Fatalf("view-only should miss pre-gossip: %v", r.BySource)
	}
}

func TestScaleUpInstances(t *testing.T) {
	// §5.3: with 1 instance bit and S_co=2, each (site, locality) can
	// absorb 4 members across two directory instances.
	e := newTestEnv(t, 16, func(c *Config) {
		c.InstanceBits = 1
		c.MaxOverlaySize = 2
	})
	if e.sys.Ring().Len() != 10*3*2 {
		t.Fatalf("ring size = %d, want 60 (two instances per slot)", e.sys.Ring().Len())
	}
	for m := 0; m < 5; m++ {
		e.submitAt(simkernel.Time(m+1)*simkernel.Minute, 0, 0, m, m)
	}
	e.k.Run(20 * simkernel.Minute)
	joined := e.sys.OverlaySize(0, 0)
	if joined <= 2 {
		t.Fatalf("scale-up should admit beyond S_co=2, joined=%d", joined)
	}
	if joined > 4 {
		t.Fatalf("joined=%d exceeds 2 instances × S_co", joined)
	}
	// Members should be split across at least two directory peers.
	dirs := map[simnet.NodeID]bool{}
	for m := 0; m < 5; m++ {
		h := e.sys.host(e.sys.PoolNode(0, 0, m))
		if h.cp != nil && h.cp.Dir().Known {
			dirs[h.cp.Dir().Addr] = true
		}
	}
	if len(dirs) < 2 {
		t.Fatalf("members concentrated on %d directory instance(s)", len(dirs))
	}
}

func TestStatsAndAccessors(t *testing.T) {
	e := newTestEnv(t, 14, nil)
	e.submitAt(simkernel.Second, 1, 2, 0, 0)
	e.k.Run(simkernel.Minute)
	if e.sys.Stats().Joins != 1 {
		t.Fatalf("joins = %d", e.sys.Stats().Joins)
	}
	if e.sys.Kernel() != e.k {
		t.Fatal("Kernel accessor wrong")
	}
	if e.sys.ServerOf(e.cfg.Sites[1]) == 0 && e.sys.ServerOf(e.cfg.Sites[1]) == e.sys.ServerOf(e.cfg.Sites[0]) {
		t.Fatal("servers not distinct")
	}
	if e.sys.Config().Websites != 10 {
		t.Fatal("Config accessor wrong")
	}
	if e.sys.KeySpec().LocalitySlots() < 3 {
		t.Fatal("KeySpec accessor wrong")
	}
}

// TestHardenedFollowsFaultPlane: the degraded-network behaviours are on
// exactly when a fault plane is installed or the gray-failure response is
// armed — never for no plane, a nil plane or a zero one.
func TestHardenedFollowsFaultPlane(t *testing.T) {
	for _, c := range []struct {
		name     string
		adaptive bool
		plane    func(*System)
		want     bool
	}{
		{"no plane", false, func(*System) {}, false},
		{"nil plane", false, func(s *System) { s.InstallFaults(nil) }, false},
		{"zero plane", false, func(s *System) { s.InstallFaults(&simnet.FaultConfig{}) }, false},
		{"enabled plane", false, func(s *System) { s.InstallFaults(scheduleOnlyPlane()) }, true},
		{"adaptive", true, func(*System) {}, true},
	} {
		e := newTestEnv(t, 19, func(cfg *Config) { cfg.Adaptive = c.adaptive })
		c.plane(e.sys)
		if got := e.sys.Hardened(); got != c.want {
			t.Errorf("%s: Hardened() = %v, want %v", c.name, got, c.want)
		}
	}
}
