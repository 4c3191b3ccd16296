package dring

import (
	"math/rand"
	"testing"

	"flowercdn/internal/chord"
	"flowercdn/internal/model"
	"flowercdn/internal/pastry"
	"flowercdn/internal/simnet"
)

func newTrialRand(trial int) *rand.Rand {
	return rand.New(rand.NewSource(int64(trial)*7919 + 17))
}

// buildDRing constructs a D-ring with one directory per (site, locality)
// over the given sites and k localities, converged.
func buildDRing(t *testing.T, sites []model.SiteID, k int) (*chord.Ring, KeySpec, map[chord.ID]*chord.Node) {
	t.Helper()
	ks, err := NewKeySpec(30, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Successor lists must exceed the longest expected run of consecutive
	// failures; one website's directories are k consecutive identifiers,
	// so the list is sized above k (the core system uses 8 as well).
	ring := chord.NewRing(chord.Config{Bits: 30, SuccessorList: 8})
	nodes := map[chord.ID]*chord.Node{}
	addr := simnet.NodeID(0)
	for _, s := range sites {
		for loc := 0; loc < k; loc++ {
			key := ks.Key(s, loc)
			n, err := ring.AddNode(key, addr)
			if err != nil {
				t.Fatalf("collision for %s/%d: %v", s, loc, err)
			}
			nodes[key] = n
			addr++
		}
	}
	ring.BuildConverged()
	return ring, ks, nodes
}

// routeDRing routes key from start, failing the test on a walk cut at
// RouteTTL.
func routeDRing[N Router[N]](t *testing.T, start N, key chord.ID, ks KeySpec) (N, int) {
	t.Helper()
	dst, hops := Route(start, key, ks)
	if hops >= RouteTTL(ks.Space) {
		t.Fatalf("routing exceeded TTL for key %d", key)
	}
	return dst, hops
}

func TestExactDelivery(t *testing.T) {
	sites := model.MakeSites(40)
	ring, ks, nodes := buildDRing(t, sites, 6)
	all := ring.Nodes()
	for _, site := range sites[:10] {
		for loc := 0; loc < 6; loc++ {
			key := ks.Key(site, loc)
			for _, start := range []*chord.Node{all[0], all[len(all)/2], all[len(all)-1]} {
				dst, _ := routeDRing(t, start, key, ks)
				if dst != nodes[key] {
					t.Fatalf("query for (%s,%d) delivered to %d, want %d", site, loc, dst.ID(), key)
				}
			}
		}
	}
}

func TestMissingDirectorySameWebsiteFallback(t *testing.T) {
	// §3.2: when d(ws,loc) is unavailable, the message must still reach a
	// directory peer of the SAME website.
	sites := model.MakeSites(40)
	ring, ks, nodes := buildDRing(t, sites, 6)
	site := sites[7]
	key := ks.Key(site, 3)
	ring.Fail(nodes[key])
	// Repair the ring around the failure.
	for round := 0; round < 4; round++ {
		for _, n := range ring.AliveNodes() {
			n.CheckPredecessor()
			n.Stabilize()
		}
	}
	for _, n := range ring.AliveNodes() {
		n.FixAllFingers()
	}
	for _, start := range ring.AliveNodes()[:10] {
		dst, _ := routeDRing(t, start, key, ks)
		if !ks.SameWebsite(dst.ID(), key) {
			t.Fatalf("fallback delivered to website %d, want website %d (node %d)",
				ks.WebsiteIDOf(dst.ID()), ks.WebsiteIDOf(key), dst.ID())
		}
		if dst.ID() == key {
			t.Fatal("delivered to the failed directory")
		}
	}
}

func TestStandardRoutingWouldMissWebsite(t *testing.T) {
	// Demonstrate why Algorithm 2 exists: with the plain Chord rule
	// (Algorithm 1), a query for a missing directory can land on another
	// website's directory; with the conditional lookup it does not.
	sites := model.MakeSites(40)
	ring, ks, nodes := buildDRing(t, sites, 6)
	// Find a site whose locality-0 directory's ring predecessor belongs to
	// a different website: killing it makes Algorithm 1 deliver to the
	// *preceding* website's directory... successor actually. Kill ALL of a
	// site's directories except one, so the gap is wide.
	site := sites[11]
	var survivor chord.ID
	for loc := 0; loc < 6; loc++ {
		key := ks.Key(site, loc)
		if loc == 5 {
			survivor = key
			continue
		}
		ring.Fail(nodes[key])
	}
	for round := 0; round < 6; round++ {
		for _, n := range ring.AliveNodes() {
			n.CheckPredecessor()
			n.Stabilize()
		}
	}
	for _, n := range ring.AliveNodes() {
		n.FixAllFingers()
	}
	key := ks.Key(site, 0)
	for _, start := range ring.AliveNodes()[:20] {
		dst, _ := routeDRing(t, start, key, ks)
		if dst.ID() != survivor {
			t.Fatalf("query should reach surviving same-website directory %d, got %d", survivor, dst.ID())
		}
	}
}

func TestRoutingHopCount(t *testing.T) {
	sites := model.MakeSites(100)
	ring, ks, _ := buildDRing(t, sites, 6)
	all := ring.Nodes()
	total, n := 0, 0
	for i, start := range all {
		if i%7 != 0 {
			continue
		}
		key := ks.Key(sites[(i*13)%len(sites)], i%6)
		_, hops := routeDRing(t, start, key, ks)
		total += hops
		n++
	}
	avg := float64(total) / float64(n)
	// 600 directory peers ⇒ ~log2(600)=9.2; average should be well below.
	if avg > 10 {
		t.Fatalf("average D-ring hops %.1f too high", avg)
	}
}

func TestConditionalLookupPrefersClosest(t *testing.T) {
	sites := model.MakeSites(10)
	ring, ks, nodes := buildDRing(t, sites, 6)
	_ = ring
	site := sites[3]
	key := ks.Key(site, 2)
	// From the directory at locality 0 of the same site, the conditional
	// lookup should find the exact target (it is a ring neighbour).
	start := nodes[ks.Key(site, 0)]
	got := ConditionalLocalLookup(start, key, ks)
	if got == nil || got.ID() != key {
		t.Fatalf("conditional lookup = %v, want node %d", got, key)
	}
}

func TestConditionalLookupNilWhenUnknown(t *testing.T) {
	// A ring with a single website: lookups for another website find no
	// matching peer.
	sites := model.MakeSites(1)
	ring, ks, _ := buildDRing(t, sites, 6)
	other := ks.Key("unknown-site", 0)
	if ks.SameWebsite(other, ks.Key(sites[0], 0)) {
		t.Skip("hash collision between test sites; skip")
	}
	start := ring.Nodes()[0]
	if got := ConditionalLocalLookup(start, other, ks); got != nil {
		t.Fatalf("expected nil, got %v", got)
	}
}

// Property: with any random subset of directories failed (leaving at
// least one live directory per affected website), Algorithm 2 still
// delivers every lookup to a live directory of the right website.
func TestQuickSameWebsiteDeliveryUnderFailures(t *testing.T) {
	sites := model.MakeSites(25)
	for trial := 0; trial < 8; trial++ {
		ring, ks, nodes := buildDRing(t, sites, 6)
		rng := newTrialRand(trial)
		// Kill up to a third of directories but never a whole website.
		all := ring.Nodes()
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		killed := 0
		for _, n := range all {
			if killed >= len(all)/3 {
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
			killed++
		}
		// Interleave stabilization and finger repair, as the periodic
		// protocols would. At 1/3 simultaneous failures Chord's successor
		// pointers converge one hop per round in the worst case (a wiped
		// successor list walks back via adopt-predecessor), so give the
		// repair enough periods.
		for round := 0; round < 16; round++ {
			for _, n := range ring.AliveNodes() {
				n.CheckPredecessor()
				n.Stabilize()
			}
			for _, n := range ring.AliveNodes() {
				n.FixAllFingers()
			}
		}
		starts := ring.AliveNodes()
		for i := 0; i < 150; i++ {
			site := sites[rng.Intn(len(sites))]
			loc := rng.Intn(6)
			key := ks.Key(site, loc)
			if _, present := nodes[key]; !present {
				continue
			}
			dst, _ := routeDRing(t, starts[rng.Intn(len(starts))], key, ks)
			if !ks.SameWebsite(dst.ID(), key) {
				t.Fatalf("trial %d: lookup for (%s,%d) landed on website %d",
					trial, site, loc, ks.WebsiteIDOf(dst.ID()))
			}
			if !dst.Up() {
				t.Fatalf("trial %d: delivered to dead directory", trial)
			}
		}
	}
}

func TestRouteTTLGenerous(t *testing.T) {
	ks, _ := NewKeySpec(30, 6, 0)
	if RouteTTL(ks.Space) < 60 {
		t.Fatalf("TTL %d suspiciously small", RouteTTL(ks.Space))
	}
}

// A routed lookup, conditional local lookup included, walks the routing
// tables in place on either substrate: no per-hop peer list.
func TestNextHopAllocFree(t *testing.T) {
	sites := model.MakeSites(40)
	cRing, ks, _ := buildDRing(t, sites, 6)
	pRing, _, _ := buildPastryDRing(t, sites, 6)
	t.Run("chord", func(t *testing.T) { assertRoutingAllocFree(t, cRing.Nodes(), sites, ks) })
	t.Run("pastry", func(t *testing.T) { assertRoutingAllocFree(t, pRing.Nodes(), sites, ks) })
}

func assertRoutingAllocFree[N Router[N]](t *testing.T, all []N, sites []model.SiteID, ks KeySpec) {
	hops := 0
	allocs := testing.AllocsPerRun(20, func() {
		for i, site := range sites {
			_, h := routeDRing(t, all[(i*7)%len(all)], ks.Key(site, i%6), ks)
			hops += h
			ConditionalLocalLookup(all[i], ks.Key(site, 5-i%6), ks)
		}
	})
	if hops == 0 {
		t.Fatal("no lookup took a hop; setup broken")
	}
	if allocs != 0 {
		t.Fatalf("routing allocates %.1f allocs/run, want 0", allocs)
	}
}

// buildPastryDRing mirrors buildDRing but over the Pastry substrate.
func buildPastryDRing(t *testing.T, sites []model.SiteID, k int) (*pastry.Ring, KeySpec, map[chord.ID]*pastry.Node) {
	t.Helper()
	ks, err := NewKeySpec(30, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	ring := pastry.NewRing()
	nodes := map[chord.ID]*pastry.Node{}
	addr := simnet.NodeID(0)
	for _, s := range sites {
		for loc := 0; loc < k; loc++ {
			key := ks.Key(s, loc)
			n, err := ring.AddNode(key, addr)
			if err != nil {
				t.Fatalf("collision for %s/%d: %v", s, loc, err)
			}
			nodes[key] = n
			addr++
		}
	}
	ring.BuildConverged()
	return ring, ks, nodes
}

func TestDRingOverPastryExactDelivery(t *testing.T) {
	sites := model.MakeSites(40)
	ring, ks, nodes := buildPastryDRing(t, sites, 6)
	all := ring.Nodes()
	for _, site := range sites[:10] {
		for loc := 0; loc < 6; loc++ {
			key := ks.Key(site, loc)
			for _, start := range []*pastry.Node{all[0], all[len(all)/2], all[len(all)-1]} {
				dst, _ := routeDRing(t, start, key, ks)
				if dst != nodes[key] {
					t.Fatalf("query for (%s,%d) delivered to %d, want %d", site, loc, dst.ID(), key)
				}
			}
		}
	}
}

func TestDRingOverPastrySameWebsiteFallback(t *testing.T) {
	sites := model.MakeSites(40)
	ring, ks, nodes := buildPastryDRing(t, sites, 6)
	site := sites[9]
	key := ks.Key(site, 2)
	ring.Fail(nodes[key])
	// The overlay re-converges over the live nodes, as after leaf-set repair.
	ring.BuildConverged()
	for i, start := range ring.AliveNodes() {
		if i%17 != 0 {
			continue
		}
		dst, _ := routeDRing(t, start, key, ks)
		if !ks.SameWebsite(dst.ID(), key) {
			t.Fatalf("fallback delivered to wrong website: %d", dst.ID())
		}
		if dst.ID() == key {
			t.Fatal("delivered to failed directory")
		}
	}
}

func TestPastryDRingHopCount(t *testing.T) {
	sites := model.MakeSites(100)
	ring, ks, _ := buildPastryDRing(t, sites, 6)
	all := ring.Nodes()
	total, n := 0, 0
	for i, start := range all {
		if i%7 != 0 {
			continue
		}
		key := ks.Key(sites[(i*13)%len(sites)], i%6)
		_, hops := routeDRing(t, start, key, ks)
		total += hops
		n++
	}
	avg := float64(total) / float64(n)
	// 600 nodes, 3-bit digits ⇒ ~log8(600) ≈ 3.1 hops expected.
	if avg > 6 {
		t.Fatalf("average Pastry D-ring hops %.1f too high", avg)
	}
}
