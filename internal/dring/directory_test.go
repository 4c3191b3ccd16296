package dring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowercdn/internal/bloom"
	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
)

// dirIn is the shared interned object space for directory tests: the test
// site plus a sibling, 64 objects each. Short helpers name the first few
// objects the old string-keyed tests called "a", "b", ….
var dirIn = model.NewInterner([]model.SiteID{"ws-001", "ws-002"}, 64)

func dref(num int) model.ObjectRef { return dirIn.RefFor(0, num) }

func newDir() *Directory {
	ks, _ := NewKeySpec(30, 6, 0)
	site := model.SiteID("ws-001")
	return NewDirectory(site, ks.WebsiteID(site), 1, ks.Key(site, 1), 100, 500, 0.1, dirIn)
}

func TestAddOptimisticAndHolders(t *testing.T) {
	d := newDir()
	if !d.AddOptimistic(10, dref(1)) {
		t.Fatal("admission failed")
	}
	if !d.AddOptimistic(11, dref(1)) {
		t.Fatal("admission failed")
	}
	hs := d.Holders(dref(1))
	if len(hs) != 2 || hs[0] != 10 || hs[1] != 11 {
		t.Fatalf("holders = %v", hs)
	}
	if d.Size() != 2 || d.ObjectCount() != 1 {
		t.Fatalf("size=%d objects=%d", d.Size(), d.ObjectCount())
	}
	if !d.HasPeer(10) || d.HasPeer(99) {
		t.Fatal("HasPeer wrong")
	}
}

func TestCapacityLimit(t *testing.T) {
	ks, _ := NewKeySpec(30, 6, 0)
	d := NewDirectory("ws-002", ks.WebsiteID("ws-002"), 0, ks.Key("ws-002", 0), 3, 100, 0.1, dirIn)
	o1 := dirIn.RefFor(1, 1)
	o2 := dirIn.RefFor(1, 2)
	o3 := dirIn.RefFor(1, 3)
	for i := 0; i < 3; i++ {
		if !d.AddOptimistic(simnet.NodeID(i), o1) {
			t.Fatal("admission failed below capacity")
		}
	}
	if !d.Full() {
		t.Fatal("directory should be full")
	}
	if d.AddOptimistic(99, o1) {
		t.Fatal("admitted beyond S_co")
	}
	// Existing members may still update.
	if !d.AddOptimistic(1, o2) {
		t.Fatal("existing member update refused")
	}
	if d.ApplyPush(98, []model.ObjectRef{o3}, nil) {
		t.Fatal("push from stranger admitted beyond S_co")
	}
}

func TestApplyPushDelta(t *testing.T) {
	d := newDir()
	if !d.ApplyPush(5, []model.ObjectRef{dref(0), dref(1)}, nil) {
		t.Fatal("push refused")
	}
	d.TickAges()
	if !d.ApplyPush(5, []model.ObjectRef{dref(2)}, []model.ObjectRef{dref(0)}) {
		t.Fatal("push refused")
	}
	if got := d.Holders(dref(0)); len(got) != 0 {
		t.Fatalf("removed object still held: %v", got)
	}
	if got := d.Holders(dref(2)); len(got) != 1 {
		t.Fatalf("added object missing: %v", got)
	}
	// Push resets age to 0; a subsequent eviction pass at limit 1 keeps it.
	if evicted := d.EvictOlderThan(1); len(evicted) != 0 {
		t.Fatalf("fresh entry evicted: %v", evicted)
	}
}

func TestAgingAndEviction(t *testing.T) {
	d := newDir()
	d.AddOptimistic(1, dref(9))
	d.AddOptimistic(2, dref(9))
	d.TickAges()
	d.TickAges()
	d.KeepaliveAt(2, -1) // age back to 0
	d.TickAges()
	evicted := d.EvictOlderThan(3)
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted = %v, want [1]", evicted)
	}
	if d.HasPeer(1) || !d.HasPeer(2) {
		t.Fatal("wrong peer evicted")
	}
	if hs := d.Holders(dref(9)); len(hs) != 1 || hs[0] != 2 {
		t.Fatalf("holders after eviction = %v", hs)
	}
}

func TestKeepaliveUnknownIgnored(t *testing.T) {
	d := newDir()
	d.KeepaliveAt(42, -1) // must not create an entry
	if d.Size() != 0 {
		t.Fatal("keepalive created a member")
	}
}

func TestRemovePeerCleansHolders(t *testing.T) {
	d := newDir()
	d.AddOptimistic(1, dref(9))
	d.AddOptimistic(1, dref(8))
	d.AddOptimistic(2, dref(8))
	d.RemovePeer(1)
	if len(d.Holders(dref(9))) != 0 {
		t.Fatal("x still held after removal")
	}
	if len(d.Holders(dref(8))) != 1 {
		t.Fatal("y holders wrong after removal")
	}
	if d.ObjectCount() != 1 {
		t.Fatalf("object count = %d, want 1", d.ObjectCount())
	}
}

func TestNeighborSummaries(t *testing.T) {
	d := newDir()
	f1 := bloomWith(dref(20), dref(21))
	f2 := bloomWith(dref(22))
	d.UpdateNeighborSummary(100, 0, f1)
	d.UpdateNeighborSummary(50, 2, f2)
	ns := d.NeighborSummaries()
	if len(ns) != 2 || ns[0].DirID != 50 || ns[1].DirID != 100 {
		t.Fatalf("summaries not sorted: %+v", ns)
	}
	if got := d.NeighborsWithObject(dref(21)); len(got) != 1 || got[0] != 100 {
		t.Fatalf("NeighborsWithObject = %v", got)
	}
	if got := d.NeighborsWithObject(dref(63)); len(got) != 0 {
		t.Logf("bloom false positive (tolerable): %v", got)
	}
	// Refresh replaces in place.
	d.UpdateNeighborSummary(100, 0, bloomWith(dref(23)))
	if got := d.NeighborsWithObject(dref(21)); len(got) != 0 {
		t.Fatal("stale summary survived refresh")
	}
	d.RemoveNeighborSummary(50)
	if len(d.NeighborSummaries()) != 1 {
		t.Fatal("RemoveNeighborSummary failed")
	}
}

func bloomWith(refs ...model.ObjectRef) *bloom.Filter {
	f := bloom.NewForCapacity(50)
	for _, r := range refs {
		h1, h2 := dirIn.Hashes(r)
		f.AddHash(h1, h2)
	}
	return f
}

func TestSummaryPublicationThreshold(t *testing.T) {
	d := newDir()
	if d.ShouldPublishSummary() {
		t.Fatal("empty directory should not publish")
	}
	d.AddOptimistic(1, dref(1))
	if !d.ShouldPublishSummary() {
		t.Fatal("first object should trigger publication")
	}
	d.MarkSummaryPublished()
	if d.ShouldPublishSummary() {
		t.Fatal("nothing new since publication")
	}
	// Threshold is 0.1: with 1 object at publish, a single new object is
	// 100% new ⇒ publish.
	d.AddOptimistic(1, dref(2))
	if !d.ShouldPublishSummary() {
		t.Fatal("100% new objects should trigger")
	}
	d.MarkSummaryPublished()
	// Now 2 at publish; 10% of 2 = 0.2 ⇒ one new object (ratio 0.5) triggers.
	d.AddOptimistic(2, dref(1)) // duplicate object: no new identifier
	if d.ShouldPublishSummary() {
		t.Fatal("duplicate object must not count as new")
	}
}

func TestBuildSummaryCoversIndex(t *testing.T) {
	d := newDir()
	for i := 0; i < 50; i++ {
		d.AddOptimistic(simnet.NodeID(i%5), dref(i))
	}
	f := d.BuildSummary()
	for i := 0; i < 50; i++ {
		if !f.Test(dirIn.Key(dref(i))) {
			t.Fatalf("summary missing %s", dirIn.Key(dref(i)))
		}
	}
}

func TestExportImportEntries(t *testing.T) {
	d := newDir()
	d.AddOptimistic(1, dref(0))
	d.AddOptimistic(2, dref(1))
	d.TickAges()
	d.AddOptimistic(3, dref(0))
	entries := d.ExportEntries(nil)
	if len(entries) != 3 {
		t.Fatalf("exported %d entries", len(entries))
	}
	d2 := newDir()
	d2.ImportEntries(entries)
	if d2.Size() != 3 || d2.ObjectCount() != 2 {
		t.Fatalf("import size=%d objects=%d", d2.Size(), d2.ObjectCount())
	}
	if hs := d2.Holders(dref(0)); len(hs) != 2 {
		t.Fatalf("imported holders = %v", hs)
	}
	// Ages preserved.
	found := false
	for _, e := range d2.ExportEntries(nil) {
		if e.Node == 1 && e.Age == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("ages not preserved through export/import")
	}
}

// Property: holders inverse index is always consistent with the entries.
func TestQuickHoldersConsistency(t *testing.T) {
	prop := func(ops []uint16) bool {
		d := newDir()
		for _, op := range ops {
			node := simnet.NodeID(op % 7)
			obj := dref(int(op/7) % 9)
			switch op % 3 {
			case 0:
				d.AddOptimistic(node, obj)
			case 1:
				d.ApplyPush(node, []model.ObjectRef{obj}, nil)
			case 2:
				d.RemovePeer(node)
			}
		}
		// Verify: every entry object appears in holders and vice versa.
		for _, e := range d.ExportEntries(nil) {
			ok := true
			node := e.Node
			e.Objects.ForEach(func(i int) {
				found := false
				for _, h := range d.Holders(dref(i)) {
					if h == node {
						found = true
					}
				}
				if !found {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		for i := 0; i < 9; i++ {
			for _, h := range d.Holders(dref(i)) {
				if !d.HasPeer(h) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMembersSorted(t *testing.T) {
	d := newDir()
	for _, n := range []simnet.NodeID{9, 3, 7, 1} {
		d.AddOptimistic(n, dref(0))
	}
	m := d.Members()
	for i := 1; i < len(m); i++ {
		if m[i] <= m[i-1] {
			t.Fatalf("members not sorted: %v", m)
		}
	}
}

// TestForeignSiteRefsGraceful pins the severe-churn contract: D-ring
// routing can deliver a query for website A to a directory of website B
// (TTL expiry, successor of a missing key). Every ref accessor must treat
// the foreign ref as not-indexed — never panic, never corrupt state —
// matching the old string-keyed maps, which simply missed.
func TestForeignSiteRefsGraceful(t *testing.T) {
	d := newDir() // serves ws-001 (interner site 0)
	foreign := dirIn.RefFor(1, 5)
	if got := d.Holders(foreign); got != nil {
		t.Fatalf("foreign Holders = %v, want nil", got)
	}
	if !d.AddOptimistic(7, foreign) {
		t.Fatal("peer admission must still succeed for a foreign ref")
	}
	if !d.HasPeer(7) || d.ObjectCount() != 0 {
		t.Fatalf("foreign AddOptimistic: peer=%v objects=%d", d.HasPeer(7), d.ObjectCount())
	}
	if !d.ApplyPush(7, []model.ObjectRef{foreign}, []model.ObjectRef{foreign}) {
		t.Fatal("push with foreign refs must still be accepted")
	}
	if d.ObjectCount() != 0 {
		t.Fatal("foreign refs leaked into the index")
	}
	// Off-the-end of the whole interner space must be equally safe.
	huge := model.ObjectRef(1 << 30)
	if d.Holders(huge) != nil {
		t.Fatal("out-of-universe ref not handled")
	}
}

func TestAccessors(t *testing.T) {
	d := newDir()
	if d.Site() != "ws-001" || d.Locality() != 1 {
		t.Fatal("accessors wrong")
	}
	ks, _ := NewKeySpec(30, 6, 0)
	if d.Key() != ks.Key("ws-001", 1) || d.WebsiteID() != ks.WebsiteID("ws-001") {
		t.Fatal("key accessors wrong")
	}
}

// TestKeepaliveAtAgainstMap drives a directory through random admissions,
// swap-removing evictions, re-admissions and age rounds while every
// keepalive arrives through KeepaliveAt with a correct, stale, out-of-range
// or negative hint: whatever the hint, exactly the member a map lookup finds
// is aged back to zero (checked against a plain map of ages), the returned
// slot is the member's, and a following call with it needs no map.
func TestKeepaliveAtAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newDir()
		ages := map[simnet.NodeID]int32{}
		hints := map[simnet.NodeID]int32{} // what each node last heard back, never invalidated
		for step := 0; step < 2000; step++ {
			node := simnet.NodeID(1 + rng.Intn(40))
			switch op := rng.Intn(10); {
			case op < 3: // admit or re-admit
				d.AddOptimistic(node, dref(rng.Intn(64)))
				ages[node] = 0
			case op < 5: // evict: the last member moves into the freed slot
				d.RemovePeer(node)
				delete(ages, node)
			case op < 6:
				d.TickAges()
				for n := range ages {
					ages[n]++
				}
			default:
				hint := hints[node] // correct, or stale since a swap-remove, or zero
				switch rng.Intn(4) {
				case 0:
					hint = -1 - int32(rng.Intn(3))
				case 1:
					hint = int32(d.Size() + rng.Intn(3))
				case 2:
					hint = int32(rng.Intn(d.Size() + 1))
				}
				slot := d.KeepaliveAt(node, hint)
				if _, member := ages[node]; !member {
					if slot != -1 {
						t.Fatalf("seed %d step %d: non-member %d (hint %d) got slot %d", seed, step, node, hint, slot)
					}
					break
				}
				ages[node] = 0
				if slot < 0 || d.nodes[slot] != node {
					t.Fatalf("seed %d step %d: member %d (hint %d) got slot %d", seed, step, node, hint, slot)
				}
				hints[node] = slot
				index := d.slot
				d.slot = nil // a hit must not need the map
				if again := d.KeepaliveAt(node, slot); again != slot {
					t.Fatalf("seed %d step %d: the returned slot %d missed on the next call (%d)", seed, step, slot, again)
				}
				d.slot = index
			}
			if len(ages) != d.Size() {
				t.Fatalf("seed %d step %d: %d members, model has %d", seed, step, d.Size(), len(ages))
			}
			for n, want := range ages {
				if got := d.ages[d.slot[n]]; got != want {
					t.Fatalf("seed %d step %d: member %d has age %d, want %d", seed, step, n, got, want)
				}
			}
		}
	}
}
