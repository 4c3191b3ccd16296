package dring

import (
	"testing"

	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
)

// The dirTick benchmarks model the directory's periodic behaviour at the
// 100k preset's overlay size: ~2000 indexed members, each holding a
// handful of objects. TickAges+EvictOlderThan run every T_gossip on every
// directory, so at scale this sweep dominates steady-state simulator cost.

const benchMembers = 2000

// newBenchDirectory builds a 2000-member directory over the test interner
// (64 objects); each member holds 8 deterministic objects.
func newBenchDirectory(maxOverlay int) *Directory {
	ks, _ := NewKeySpec(30, 6, 0)
	site := model.SiteID("ws-001")
	d := NewDirectory(site, ks.WebsiteID(site), 1, ks.Key(site, 1), maxOverlay, 500, 0.1, dirIn)
	var refs [8]model.ObjectRef
	for m := 0; m < benchMembers; m++ {
		for k := range refs {
			refs[k] = dref((m*13 + k*5) % 64)
		}
		if !d.ApplyPush(simnet.NodeID(m+1), refs[:], nil) {
			panic("bench directory refused a member")
		}
	}
	return d
}

// BenchmarkDirectoryTick is the steady-state dirTick: every member is kept
// alive by keepalives, so the sweep ages the whole index and the eviction
// scan finds nothing. This is the hot path at the 100k preset (stable
// network, 2000-member overlays).
func BenchmarkDirectoryTick(b *testing.B) {
	d := newBenchDirectory(benchMembers + 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TickAges()
		d.EvictOlderThan(1 << 30)
	}
}

// BenchmarkDirectoryTickEvict cycles age→evict→readmit: each iteration a
// rotating 1/8 of the members goes stale and is evicted while the rest are
// refreshed, then the evicted members rejoin via pushes — the churn shape
// of the massive preset with failures and rejoins.
func BenchmarkDirectoryTickEvict(b *testing.B) {
	const stale = benchMembers / 8
	d := newBenchDirectory(benchMembers + 100)
	var refs [8]model.ObjectRef
	cycle := func(i int) {
		lo := simnet.NodeID((i%8)*stale + 1)
		for k := 0; k < 4; k++ {
			for m := 1; m <= benchMembers; m++ {
				node := simnet.NodeID(m)
				if node < lo || node >= lo+stale {
					d.KeepaliveAt(node, -1)
				}
			}
			d.TickAges()
		}
		evicted := d.EvictOlderThan(4)
		if len(evicted) != stale {
			b.Fatalf("evicted %d members, want %d", len(evicted), stale)
		}
		for _, node := range evicted {
			m := int(node) - 1
			for k := range refs {
				refs[k] = dref((m*13 + k*5) % 64)
			}
			if !d.ApplyPush(node, refs[:], nil) {
				b.Fatal("readmission refused")
			}
		}
	}
	// Warm one full rotation first: the first eviction of each eighth grows
	// the eviction scratch slice and holder free lists once; steady state
	// recycles them (TestDirTickAllocs pins the warm cycle at 0 allocs/op),
	// and the timed region should measure steady state, not the warm-up.
	for i := 0; i < 8; i++ {
		cycle(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i)
	}
}

// TestDirTickAllocs gates the periodic directory sweep at zero heap
// allocations: aging the whole index and scanning for evictions must not
// allocate, whether the scan evicts nobody (steady state) or an eighth of
// the overlay (churn). Evicted-member readmission is exercised outside
// the measured region (its slab slots and holder entries are recycled).
func TestDirTickAllocs(t *testing.T) {
	d := newBenchDirectory(benchMembers + 100)

	// Steady state: keepalives keep every member below the age limit.
	steady := testing.AllocsPerRun(50, func() {
		d.TickAges()
		d.EvictOlderThan(1 << 30)
	})
	if steady != 0 {
		t.Errorf("steady-state dirTick allocates %.1f/op, want 0", steady)
	}

	// Churn: a rotating eighth of the members ages out, is evicted and
	// rejoins — the whole cycle must reuse slab slots and matrix columns
	// instead of allocating.
	const stale = benchMembers / 8
	round := 0
	churn := testing.AllocsPerRun(20, func() {
		round++
		lo := simnet.NodeID((round%8)*stale + 1)
		for k := 0; k < 4; k++ {
			for m := 1; m <= benchMembers; m++ {
				node := simnet.NodeID(m)
				if node < lo || node >= lo+stale {
					d.KeepaliveAt(node, -1)
				}
			}
			d.TickAges()
		}
		evicted := d.EvictOlderThan(4)
		if len(evicted) != stale {
			t.Fatalf("evicted %d members, want %d", len(evicted), stale)
		}
		var refs [8]model.ObjectRef
		for _, node := range evicted {
			m := int(node) - 1
			for k := range refs {
				refs[k] = dref((m*13 + k*5) % 64)
			}
			if !d.ApplyPush(node, refs[:], nil) {
				t.Fatal("readmission refused")
			}
		}
	})
	if churn != 0 {
		t.Errorf("churn dirTick allocates %.1f/op, want 0", churn)
	}

	// Once the matrix and the holder scratch have reached their high-water
	// marks, a push that adds and drops holdings, the evict → readmit of its
	// sender, a lowest-holder scan and a Holders copy allocate nothing.
	var skip simnet.NodeID
	var add, drop [1]model.ObjectRef
	cycle := testing.AllocsPerRun(50, func() {
		round++
		node := simnet.NodeID(round%benchMembers + 1)
		add[0], drop[0] = dref(round%64), dref((round+7)%64)
		d.ApplyPush(node, add[:], drop[:])
		d.RemovePeer(node)
		d.ApplyPush(node, drop[:], add[:])
		skip = node
		if _, ok := d.LowestHolder(dref(round%64), func(n simnet.NodeID) bool { return n != skip }); !ok {
			t.Fatal("no eligible holder")
		}
		if len(d.Holders(dref(round%64))) == 0 {
			t.Fatal("no holders")
		}
	})
	if cycle != 0 {
		t.Errorf("push → evict → readmit and holder scans allocate %.1f/op, want 0", cycle)
	}
}
