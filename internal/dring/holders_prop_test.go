package dring

import (
	"math/rand"
	"sort"
	"testing"

	"flowercdn/internal/bitset"
	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
)

// The property tests drive the ref-range-sharded holders index and the
// slab-backed directory with random operation streams and compare every
// observable against flat map references. The object universe is sized to
// span several shards — including a partial trailing shard — so sorted
// inserts, removals and whole-peer evictions cross shard boundaries.

const propObjects = 200 // 4 shards of 64: three full, one partial

// propIn spans two sites so foreign-ref behaviour stays covered.
var propIn = model.NewInterner([]model.SiteID{"ws-001", "ws-002"}, propObjects)

func pref(num int) model.ObjectRef { return propIn.RefFor(0, num) }

// TestHoldersIndexMatchesFlatMap drives the sharded inverse index
// directly: random add/remove plus removeBits (whole-peer eviction via the
// peer's holdings bitset), checked after every step against a flat
// map[ref]map[node] reference.
func TestHoldersIndexMatchesFlatMap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const nodes = 24

	idx := newHoldersIndex(propObjects)
	ref := make(map[int]map[simnet.NodeID]bool) // ref → holder set
	held := make([]bitset.Set, nodes)           // per-node holdings, drives removeBits
	for n := range held {
		held[n] = bitset.New(propObjects)
	}

	check := func(step int) {
		t.Helper()
		total := 0
		for i := 0; i < propObjects; i++ {
			got := idx.listAt(i)
			want := ref[i]
			if len(got) != len(want) {
				t.Fatalf("step %d: ref %d has %d holders, want %d", step, i, len(got), len(want))
			}
			if len(want) > 0 {
				total++
			}
			for p, n := range got {
				if !want[n] {
					t.Fatalf("step %d: ref %d lists stray holder %d", step, i, n)
				}
				if p > 0 && got[p-1] >= n {
					t.Fatalf("step %d: ref %d holder list not ascending: %v", step, i, got)
				}
			}
		}
		if idx.total != total {
			t.Fatalf("step %d: total=%d, want %d", step, idx.total, total)
		}
		shardSum := 0
		for s := 0; s < idx.shardCount(); s++ {
			shardSum += idx.shardHeld(s)
		}
		if shardSum != total {
			t.Fatalf("step %d: shard held sum=%d, want %d", step, shardSum, total)
		}
	}

	for step := 0; step < 4000; step++ {
		node := simnet.NodeID(rng.Intn(nodes) + 1)
		// Bias object draws toward shard boundaries (63/64/127/128/...)
		// so cross-boundary behaviour is hit constantly.
		i := rng.Intn(propObjects)
		if rng.Intn(3) == 0 {
			edges := []int{0, 63, 64, 127, 128, 191, 192, propObjects - 1}
			i = edges[rng.Intn(len(edges))]
		}
		switch op := rng.Intn(10); {
		case op < 5: // add
			if !held[node-1].Has(i) {
				held[node-1].Set(i)
				idx.add(i, node)
				if ref[i] == nil {
					ref[i] = make(map[simnet.NodeID]bool)
				}
				ref[i][node] = true
			}
		case op < 8: // remove one holding
			if held[node-1].Clear(i) {
				idx.remove(i, node)
				delete(ref[i], node)
			}
		default: // evict the whole peer through its bitset
			idx.removeBits(&held[node-1], node)
			held[node-1].ForEach(func(j int) { delete(ref[j], node) })
			held[node-1].Reset()
		}
		if step%37 == 0 || step > 3900 {
			check(step)
		}
	}
	check(-1)
}

// propDirectory builds a slab directory over the multi-shard interner.
func propDirectory(maxOverlay int) *Directory {
	ks, _ := NewKeySpec(30, 6, 0)
	site := model.SiteID("ws-001")
	return NewDirectory(site, ks.WebsiteID(site), 1, ks.Key(site, 1), maxOverlay, 500, 0.1, propIn)
}

// refDirectory is the flat reference model of the directory index.
type refDirectory struct {
	ages     map[simnet.NodeID]int
	holdings map[simnet.NodeID]map[int]bool
}

func (r *refDirectory) holders(i int) []simnet.NodeID {
	var out []simnet.NodeID
	for n, h := range r.holdings {
		if h[i] {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// TestDirectorySlabMatchesReference runs random admissions, pushes,
// keepalives, removals and age/evict rounds against the reference model
// and compares holders, membership, ages and object counts.
func TestDirectorySlabMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nodes = 40

	d := propDirectory(nodes + 8)
	ref := &refDirectory{
		ages:     make(map[simnet.NodeID]int),
		holdings: make(map[simnet.NodeID]map[int]bool),
	}
	admit := func(node simnet.NodeID) {
		if _, ok := ref.ages[node]; !ok {
			ref.ages[node] = 0
			ref.holdings[node] = make(map[int]bool)
		}
	}

	check := func(step int) {
		t.Helper()
		if d.Size() != len(ref.ages) {
			t.Fatalf("step %d: size=%d, want %d", step, d.Size(), len(ref.ages))
		}
		members := d.Members()
		if len(members) != len(ref.ages) {
			t.Fatalf("step %d: members=%d, want %d", step, len(members), len(ref.ages))
		}
		for _, m := range members {
			if _, ok := ref.ages[m]; !ok {
				t.Fatalf("step %d: stray member %d", step, m)
			}
		}
		distinct := 0
		for i := 0; i < propObjects; i++ {
			got := d.Holders(pref(i))
			want := ref.holders(i)
			if len(got) != len(want) {
				t.Fatalf("step %d: ref %d holders=%v, want %v", step, i, got, want)
			}
			for p := range got {
				if got[p] != want[p] {
					t.Fatalf("step %d: ref %d holders=%v, want %v", step, i, got, want)
				}
			}
			if len(want) > 0 {
				distinct++
			}
		}
		if d.ObjectCount() != distinct {
			t.Fatalf("step %d: ObjectCount=%d, want %d", step, d.ObjectCount(), distinct)
		}
		if want := (propObjects + shardSize - 1) / shardSize; d.ShardCount() != want {
			t.Fatalf("step %d: ShardCount=%d, want %d", step, d.ShardCount(), want)
		}
		shardSum := 0
		for s := 0; s < d.ShardCount(); s++ {
			shardSum += d.ShardHeld(s)
		}
		if shardSum != distinct {
			t.Fatalf("step %d: ShardHeld sum=%d, want %d", step, shardSum, distinct)
		}
		for _, e := range d.ExportEntries() {
			if ref.ages[e.Node] != e.Age {
				t.Fatalf("step %d: node %d age=%d, want %d", step, e.Node, e.Age, ref.ages[e.Node])
			}
			for i := 0; i < propObjects; i++ {
				if e.Objects.Has(i) != ref.holdings[e.Node][i] {
					t.Fatalf("step %d: node %d object %d mismatch", step, e.Node, i)
				}
			}
		}
	}

	for step := 0; step < 2500; step++ {
		node := simnet.NodeID(rng.Intn(nodes) + 1)
		obj := rng.Intn(propObjects)
		if rng.Intn(3) == 0 {
			edges := []int{0, 63, 64, 127, 128, 191, 192, propObjects - 1}
			obj = edges[rng.Intn(len(edges))]
		}
		switch op := rng.Intn(12); {
		case op < 4: // optimistic admission with one object
			if d.AddOptimistic(node, pref(obj)) {
				admit(node)
				ref.ages[node] = 0
				ref.holdings[node][obj] = true
			}
		case op < 7: // ∆list push: a few adds, maybe a removal
			added := []model.ObjectRef{pref(obj), pref((obj + 64) % propObjects)}
			var removed []model.ObjectRef
			if rng.Intn(2) == 0 {
				removed = []model.ObjectRef{pref((obj + 1) % propObjects)}
			}
			if d.ApplyPush(node, added, removed) {
				admit(node)
				ref.ages[node] = 0
				for _, r := range added {
					ref.holdings[node][int(r)-int(propIn.SiteBase(0))] = true
				}
				for _, r := range removed {
					delete(ref.holdings[node], int(r)-int(propIn.SiteBase(0)))
				}
			}
		case op < 9: // keepalive
			d.Keepalive(node)
			if _, ok := ref.ages[node]; ok {
				ref.ages[node] = 0
			}
		case op < 10: // explicit removal
			d.RemovePeer(node)
			delete(ref.ages, node)
			delete(ref.holdings, node)
		case op < 11: // age round
			d.TickAges()
			for n := range ref.ages {
				ref.ages[n]++
			}
		default: // eviction round
			limit := 1 + rng.Intn(4)
			evicted := d.EvictOlderThan(limit)
			var want []simnet.NodeID
			for n, age := range ref.ages {
				if age >= limit {
					want = append(want, n)
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if len(evicted) != len(want) {
				t.Fatalf("step %d: evicted %v, want %v", step, evicted, want)
			}
			for i := range want {
				if evicted[i] != want[i] {
					t.Fatalf("step %d: evicted %v, want %v", step, evicted, want)
				}
				delete(ref.ages, want[i])
				delete(ref.holdings, want[i])
			}
		}
		if step%53 == 0 || step > 2450 {
			check(step)
		}
	}
	check(-1)
}

// TestExportImportRoundTripRandom snapshots a randomly grown slab
// directory, imports it into a fresh one (and back into a dirty one), and
// requires identical exports, holders and counts — the §5.2 transfer path
// over the slab layout.
func TestExportImportRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	src := propDirectory(64)
	for step := 0; step < 800; step++ {
		node := simnet.NodeID(rng.Intn(48) + 1)
		obj := rng.Intn(propObjects)
		switch rng.Intn(6) {
		case 0:
			src.AddOptimistic(node, pref(obj))
		case 1:
			src.ApplyPush(node, []model.ObjectRef{pref(obj)}, nil)
		case 2:
			src.ApplyPush(node, nil, []model.ObjectRef{pref(obj)})
		case 3:
			src.TickAges()
		case 4:
			src.Keepalive(node)
		default:
			if rng.Intn(4) == 0 {
				src.RemovePeer(node)
			}
		}
	}

	snap := src.ExportEntries()
	if len(snap) == 0 {
		t.Fatal("random walk produced an empty directory; test is vacuous")
	}

	// Import into a fresh directory and into one that already has state
	// (the replacement may have optimistically admitted peers, §5.2).
	fresh := propDirectory(64)
	dirty := propDirectory(64)
	dirty.AddOptimistic(99, pref(0))
	dirty.ApplyPush(98, []model.ObjectRef{pref(65), pref(191)}, nil)
	dirty.TickAges()

	for _, dst := range []*Directory{fresh, dirty} {
		dst.ImportEntries(snap)
		if dst.Size() != src.Size() {
			t.Fatalf("import size=%d, want %d", dst.Size(), src.Size())
		}
		if dst.ObjectCount() != src.ObjectCount() {
			t.Fatalf("import objects=%d, want %d", dst.ObjectCount(), src.ObjectCount())
		}
		back := dst.ExportEntries()
		if len(back) != len(snap) {
			t.Fatalf("round trip rows=%d, want %d", len(back), len(snap))
		}
		for i := range snap {
			if back[i].Node != snap[i].Node || back[i].Age != snap[i].Age {
				t.Fatalf("row %d: (%d,%d), want (%d,%d)",
					i, back[i].Node, back[i].Age, snap[i].Node, snap[i].Age)
			}
			for j := 0; j < propObjects; j++ {
				if back[i].Objects.Has(j) != snap[i].Objects.Has(j) {
					t.Fatalf("row %d object %d mismatch", i, j)
				}
			}
		}
		for i := 0; i < propObjects; i++ {
			got, want := dst.Holders(pref(i)), src.Holders(pref(i))
			if len(got) != len(want) {
				t.Fatalf("ref %d holders=%v, want %v", i, got, want)
			}
			for p := range want {
				if got[p] != want[p] {
					t.Fatalf("ref %d holders=%v, want %v", i, got, want)
				}
			}
		}
	}

	// The snapshot must stay valid across source mutations (deep copies):
	// removing the peer resets its slab bitset, which must not reach
	// through to the exported row.
	before := snap[0].Objects.Count()
	src.RemovePeer(snap[0].Node)
	if snap[0].Objects.Count() != before {
		t.Fatal("snapshot bitset aliases the slab")
	}
}

// TestIdleDirectoryHoldsNothing: a directory nobody joined is queried,
// ticked, exported, imported into, reset and audited like any other, with
// no shard list table and no popularity counters to show for it; its first
// add makes exactly the touched shard's table, its first request the
// counters.
func TestIdleDirectoryHoldsNothing(t *testing.T) {
	idle := func(d *Directory) {
		t.Helper()
		for s := range d.holders.shards {
			if d.holders.shards[s].lists != nil {
				t.Fatalf("shard %d of a directory that indexes nothing has a list table", s)
			}
		}
		if d.popularity != nil {
			t.Fatal("a directory that noted no request has popularity counters")
		}
	}
	d := propDirectory(8)
	for i := 0; i < propObjects; i++ {
		if hs := d.Holders(pref(i)); len(hs) != 0 {
			t.Fatalf("empty directory lists holders %v for ref %d", hs, i)
		}
	}
	d.ApplyPush(7, nil, []model.ObjectRef{pref(3), pref(130)}) // removals of nothing
	d.RemovePeer(7)
	d.TickAges()
	d.EvictOlderThan(1)
	d.ForEachHeld(func(model.ObjectRef, []simnet.NodeID) { t.Fatal("empty directory holds a ref") })
	if d.ObjectCount() != 0 || d.Popularity(pref(3)) != 0 || len(d.TopObjects(5)) != 0 ||
		d.BuildSummary().Test(propIn.Key(pref(3))) || len(d.ExportEntries()) != 0 {
		t.Fatal("empty directory reports content")
	}
	d.ImportEntries(nil) // resets the index
	if lines, checks := d.AuditConsistency(nil, 0); len(lines) != 0 || checks == 0 {
		t.Fatalf("audit of an empty directory: %d checks, violations %v", checks, lines)
	}
	idle(d)

	d.AddOptimistic(5, pref(130)) // shard 2
	for s := range d.holders.shards {
		if made := d.holders.shards[s].lists != nil; made != (s == 2) {
			t.Fatalf("after one add to shard 2, shard %d list table made=%v", s, made)
		}
	}
	if got := len(d.holders.shards[3].lists); got != 0 {
		t.Fatalf("untouched partial shard has %d lists", got)
	}
	d.AddOptimistic(5, pref(propObjects-1)) // the partial trailing shard
	if got, want := len(d.holders.shards[3].lists), propObjects-3*shardSize; got != want {
		t.Fatalf("partial shard's table has %d lists, want %d", got, want)
	}
	if d.popularity != nil {
		t.Fatal("indexing an object made the popularity counters")
	}
	d.NoteRequest(pref(130))
	if d.Popularity(pref(130)) != 1 || len(d.TopObjects(5)) != 1 {
		t.Fatal("first noted request not counted")
	}
	if lines, _ := d.AuditConsistency(nil, 0); len(lines) != 0 {
		t.Fatalf("audit after first adds: %v", lines)
	}
}
