package dring

import (
	"math/rand"
	"slices"
	"testing"

	"flowercdn/internal/bitset"
	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
)

// The property tests drive the holder matrix and the slab-backed directory
// with random operation streams and compare every observable against
// map-of-sets references. The object universe spans several 64-ref shards —
// including a partial trailing one — and the membership hovers around the
// 64-slot word boundaries, so stride growth, swap-remove column moves and
// shard counts are all crossed constantly.

const propObjects = 200 // 4 shards of 64: three full, one partial

// propIn spans two sites so foreign-ref behaviour stays covered.
var propIn = model.NewInterner([]model.SiteID{"ws-001", "ws-002"}, propObjects)

func pref(num int) model.ObjectRef { return propIn.RefFor(0, num) }

// propObject draws a local ref, biased toward shard edges.
func propObject(rng *rand.Rand) int {
	if rng.Intn(3) == 0 {
		edges := []int{0, 63, 64, 127, 128, 191, 192, propObjects - 1}
		return edges[rng.Intn(len(edges))]
	}
	return rng.Intn(propObjects)
}

// TestHoldersIndexMatchesFlatMap drives the matrix directly: random add and
// remove plus removeSlot (the slab's swap-remove, reading the forward
// bitsets) while the slot count grows past 64 and 128 and shrinks back,
// checked against a ref → slot-set map after every step.
func TestHoldersIndexMatchesFlatMap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	idx := newHoldersIndex(propObjects)
	model := make(map[int]map[int32]bool) // ref → holding slots
	var fwd []bitset.Set                  // slot → holdings, as the slab keeps them

	check := func(step int) {
		t.Helper()
		total, held := 0, make([]int, len(idx.held))
		for i := 0; i < propObjects; i++ {
			var got []int32
			idx.forEachSlot(i, func(s int) { got = append(got, int32(s)) })
			want := make([]int32, 0, len(model[i]))
			for s := range model[i] {
				want = append(want, s)
			}
			slices.Sort(want)
			if !slices.Equal(got, want) || idx.holderCount(i) != len(want) {
				t.Fatalf("step %d: ref %d slots %v (count %d), want %v", step, i, got, idx.holderCount(i), want)
			}
			if len(want) > 0 {
				total++
				held[i>>shardBits]++
			}
		}
		for s := range held {
			if int(idx.held[s]) != held[s] {
				t.Fatalf("step %d: shard %d held %d, want %d", step, s, idx.held[s], held[s])
			}
		}
		if idx.total != total {
			t.Fatalf("step %d: total=%d, want %d", step, idx.total, total)
		}
		if idx.rows != nil && len(idx.rows) != propObjects*idx.stride {
			t.Fatalf("step %d: %d words for stride %d", step, len(idx.rows), idx.stride)
		}
	}

	grow := true
	for step := 0; step < 6000; step++ {
		if n := len(fwd); n > 140 {
			grow = false
		} else if n < 5 {
			grow = true
		}
		i := propObject(rng)
		switch op := rng.Intn(10); {
		case op < 2 && (grow || len(fwd) == 0): // admit a slot
			fwd = append(fwd, bitset.New(propObjects))
		case op < 6 && len(fwd) > 0: // add one holding
			s := int32(rng.Intn(len(fwd)))
			if fwd[s].Set(i) {
				idx.add(i, s)
				if model[i] == nil {
					model[i] = make(map[int32]bool)
				}
				model[i][s] = true
			}
		case op < 8 && len(fwd) > 0: // drop one holding
			s := int32(rng.Intn(len(fwd)))
			if fwd[s].Clear(i) {
				idx.remove(i, s)
				delete(model[i], s)
			}
		case len(fwd) > 0 && (op == 9 || !grow): // swap-remove a slot
			s, last := int32(rng.Intn(len(fwd))), int32(len(fwd)-1)
			idx.removeSlot(s, &fwd[s], last, &fwd[last])
			fwd[s].ForEach(func(j int) { delete(model[j], s) })
			if s != last {
				fwd[last].ForEach(func(j int) { delete(model[j], last); model[j][s] = true })
			}
			fwd[s] = fwd[last]
			fwd = fwd[:last]
		}
		check(step)
	}
}

// propDirectory builds a slab directory over the multi-shard interner.
func propDirectory(maxOverlay int) *Directory {
	ks, _ := NewKeySpec(30, 6, 0)
	site := model.SiteID("ws-001")
	return NewDirectory(site, ks.WebsiteID(site), 1, ks.Key(site, 1), maxOverlay, 500, 0.1, propIn)
}

// refDirectory is the map-of-sets reference model of the directory index.
type refDirectory struct {
	ages    map[simnet.NodeID]int
	objects map[simnet.NodeID]map[int]bool // member → held refs
	holders map[int]map[simnet.NodeID]bool // ref → holding members
}

func newRefDirectory() *refDirectory {
	return &refDirectory{
		ages:    make(map[simnet.NodeID]int),
		objects: make(map[simnet.NodeID]map[int]bool),
		holders: make(map[int]map[simnet.NodeID]bool),
	}
}

func (r *refDirectory) admit(node simnet.NodeID) {
	if _, ok := r.ages[node]; !ok {
		r.ages[node] = 0
		r.objects[node] = make(map[int]bool)
	}
}

func (r *refDirectory) set(node simnet.NodeID, i int) {
	r.objects[node][i] = true
	if r.holders[i] == nil {
		r.holders[i] = make(map[simnet.NodeID]bool)
	}
	r.holders[i][node] = true
}

func (r *refDirectory) clear(node simnet.NodeID, i int) {
	delete(r.objects[node], i)
	delete(r.holders[i], node)
}

func (r *refDirectory) remove(node simnet.NodeID) {
	for i := range r.objects[node] {
		delete(r.holders[i], node)
	}
	delete(r.objects, node)
	delete(r.ages, node)
}

func (r *refDirectory) holdersOf(i int) []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(r.holders[i]))
	for n := range r.holders[i] {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// TestDirectorySlabMatchesReference runs seeded random admissions, pushes,
// drops, keepalives, removals, age/evict rounds, imports and shard deltas
// against the reference model, with the membership hovering around 63/64/65
// and 127/128/129 slots. After every step it compares holders (ascending),
// ages, the object and shard counts, the lowest-eligible scan under a random
// skip set against the first eligible entry of Holders, and requires a clean
// AuditConsistency.
func TestDirectorySlabMatchesReference(t *testing.T) {
	for _, slots := range []int{63, 64, 65, 127, 128, 129} {
		rng := rand.New(rand.NewSource(int64(42 + slots)))
		universe := make([]simnet.NodeID, slots+8)
		for k, p := range rng.Perm(len(universe)) {
			universe[k] = simnet.NodeID(3 + 7*p) // slot order is not node order
		}
		d := propDirectory(slots + 1)
		ref := newRefDirectory()

		check := func(step int) {
			t.Helper()
			if d.Size() != len(ref.ages) {
				t.Fatalf("slots %d step %d: size=%d, want %d", slots, step, d.Size(), len(ref.ages))
			}
			for n, age := range ref.ages {
				s, ok := d.slot[n]
				if !ok || int(d.ages[s]) != age {
					t.Fatalf("slots %d step %d: member %d (present %v) age mismatch, want %d", slots, step, n, ok, age)
				}
			}
			distinct, held := 0, make([]int, d.ShardCount())
			for i := 0; i < propObjects; i++ {
				want := ref.holdersOf(i)
				if got := d.Holders(pref(i)); !slices.Equal(got, want) {
					t.Fatalf("slots %d step %d: ref %d holders=%v, want %v", slots, step, i, got, want)
				}
				if len(want) > 0 {
					distinct++
					held[i>>shardBits]++
				}
			}
			if d.ObjectCount() != distinct {
				t.Fatalf("slots %d step %d: ObjectCount=%d, want %d", slots, step, d.ObjectCount(), distinct)
			}
			if want := (propObjects + shardSize - 1) / shardSize; d.ShardCount() != want {
				t.Fatalf("slots %d step %d: ShardCount=%d, want %d", slots, step, d.ShardCount(), want)
			}
			for s, want := range held {
				if d.ShardHeld(s) != want {
					t.Fatalf("slots %d step %d: ShardHeld(%d)=%d, want %d", slots, step, s, d.ShardHeld(s), want)
				}
			}
			skip := make(map[simnet.NodeID]bool)
			p := []int{0, 3, 7, 10}[rng.Intn(4)]
			for _, n := range universe {
				if rng.Intn(10) < p {
					skip[n] = true
				}
			}
			for k := 0; k < 8; k++ {
				i := propObject(rng)
				got, ok := d.LowestHolder(pref(i), func(n simnet.NodeID) bool { return !skip[n] })
				var want simnet.NodeID
				found := false
				for _, n := range d.Holders(pref(i)) {
					if !skip[n] {
						want, found = n, true
						break
					}
				}
				if got != want || ok != found {
					t.Fatalf("slots %d step %d: ref %d lowest eligible (%d, %v), want (%d, %v)", slots, step, i, got, ok, want, found)
				}
			}
			if lines, _ := d.AuditConsistency(nil, 0); len(lines) != 0 {
				t.Fatalf("slots %d step %d: audit: %v", slots, step, lines)
			}
		}

		// Fill to the boundary, then hover around it.
		for _, node := range universe[:slots] {
			objs := []model.ObjectRef{pref(propObject(rng)), pref(propObject(rng))}
			d.ApplyPush(node, objs, nil)
			ref.admit(node)
			for _, o := range objs {
				ref.set(node, int(o)-int(propIn.SiteBase(0)))
			}
		}
		check(-1)
		for step := 0; step < 400; step++ {
			node := universe[rng.Intn(len(universe))]
			obj := propObject(rng)
			switch op := rng.Intn(40); {
			case op < 8: // optimistic admission with one object
				if d.AddOptimistic(node, pref(obj)) {
					ref.admit(node)
					ref.ages[node] = 0
					ref.set(node, obj)
				}
			case op < 16: // ∆list push: two adds, maybe a removal
				added := []model.ObjectRef{pref(obj), pref((obj + 64) % propObjects)}
				var removed []model.ObjectRef
				if rng.Intn(2) == 0 {
					removed = []model.ObjectRef{pref((obj + 1) % propObjects)}
				}
				if d.ApplyPush(node, added, removed) {
					ref.admit(node)
					ref.ages[node] = 0
					for _, r := range added {
						ref.set(node, int(r)-int(propIn.SiteBase(0)))
					}
					for _, r := range removed {
						ref.clear(node, int(r)-int(propIn.SiteBase(0)))
					}
				}
			case op < 20: // drop-only push from a member
				if _, ok := ref.ages[node]; ok {
					d.ApplyPush(node, nil, []model.ObjectRef{pref(obj)})
					ref.ages[node] = 0
					ref.clear(node, obj)
				}
			case op < 24: // keepalive
				d.Keepalive(node)
				if _, ok := ref.ages[node]; ok {
					ref.ages[node] = 0
				}
			case op < 30: // explicit removal
				d.RemovePeer(node)
				ref.remove(node)
			case op < 33: // age round
				d.TickAges()
				for n := range ref.ages {
					ref.ages[n]++
				}
			case op < 36: // eviction round
				limit := 1 + rng.Intn(4)
				var want []simnet.NodeID
				for n, age := range ref.ages {
					if age >= limit {
						want = append(want, n)
					}
				}
				slices.Sort(want)
				if got := d.EvictOlderThan(limit); !slices.Equal(got, want) {
					t.Fatalf("slots %d step %d: evicted %v, want %v", slots, step, got, want)
				}
				for _, n := range want {
					ref.remove(n)
				}
			case op < 38: // shard delta: replace one shard's content
				s := rng.Intn(d.ShardCount())
				valid := ^uint64(0)
				if n := propObjects - s*shardSize; n < shardSize {
					valid = 1<<n - 1
				}
				var entries []ShardEntry
				for _, n := range universe {
					if rng.Intn(3) == 0 {
						if w := rng.Uint64() & rng.Uint64() & valid; w != 0 {
							entries = append(entries, ShardEntry{Node: n, Age: int32(rng.Intn(3)), Word: w})
						}
					}
				}
				d.ApplyShardDelta(s, entries)
				named := make(map[simnet.NodeID]bool)
				for _, e := range entries {
					named[e.Node] = true
					ref.admit(e.Node)
					ref.ages[e.Node] = int(e.Age)
					for b := 0; b < shardSize; b++ {
						if i := s*shardSize + b; e.Word>>b&1 != 0 {
							ref.set(e.Node, i)
						} else if i < propObjects {
							ref.clear(e.Node, i)
						}
					}
				}
				for n := range ref.ages {
					for b := 0; b < shardSize && !named[n]; b++ {
						ref.clear(n, s*shardSize+b)
					}
				}
			default: // import a perturbed, reordered snapshot
				snap := d.ExportEntries()
				rng.Shuffle(len(snap), func(a, b int) { snap[a], snap[b] = snap[b], snap[a] })
				if len(snap) > 2 {
					snap = snap[:len(snap)-rng.Intn(3)]
				}
				for k := range snap {
					if o := propObject(rng); !snap[k].Objects.Set(o) {
						snap[k].Objects.Clear(o)
					}
				}
				d.ImportEntries(snap)
				ref = newRefDirectory()
				for _, e := range snap {
					ref.admit(e.Node)
					ref.ages[e.Node] = e.Age
					e.Objects.ForEach(func(i int) { ref.set(e.Node, i) })
				}
			}
			check(step)
		}
	}
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
			got := slices.Clone(dst.Holders(pref(i)))
			if want := src.Holders(pref(i)); !slices.Equal(got, want) {
				t.Fatalf("ref %d holders=%v, want %v", i, got, want)
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
// no holder matrix to show for it; its first add makes the matrix one word
// wide.
func TestIdleDirectoryHoldsNothing(t *testing.T) {
	idle := func(d *Directory) {
		t.Helper()
		if d.holders.rows != nil || d.holders.count != nil {
			t.Fatalf("a directory that indexes nothing has a %d-word matrix", len(d.holders.rows))
		}
	}
	d := propDirectory(8)
	for i := 0; i < propObjects; i++ {
		if hs := d.Holders(pref(i)); len(hs) != 0 {
			t.Fatalf("empty directory lists holders %v for ref %d", hs, i)
		}
		if _, ok := d.LowestHolder(pref(i), func(simnet.NodeID) bool { return true }); ok {
			t.Fatalf("empty directory has a lowest holder for ref %d", i)
		}
	}
	d.ApplyPush(7, nil, []model.ObjectRef{pref(3), pref(130)}) // removals of nothing
	d.RemovePeer(7)
	d.TickAges()
	d.EvictOlderThan(1)
	d.ForEachHeld(func(model.ObjectRef, []simnet.NodeID) { t.Fatal("empty directory holds a ref") })
	if d.ObjectCount() != 0 || d.BuildSummary().Test(propIn.Key(pref(3))) || len(d.ExportEntries()) != 0 {
		t.Fatal("empty directory reports content")
	}
	d.ImportEntries(nil) // resets the index
	if lines, checks := d.AuditConsistency(nil, 0); len(lines) != 0 || checks == 0 {
		t.Fatalf("audit of an empty directory: %d checks, violations %v", checks, lines)
	}
	idle(d)

	d.AddOptimistic(5, pref(130)) // shard 2
	if d.holders.stride != 1 || len(d.holders.rows) != propObjects {
		t.Fatalf("first add made a stride-%d matrix of %d words, want 1 and %d", d.holders.stride, len(d.holders.rows), propObjects)
	}
	for s := 0; s < d.ShardCount(); s++ {
		if held := d.ShardHeld(s); held != btoi(s == 2) {
			t.Fatalf("after one add to shard 2, shard %d holds %d refs", s, held)
		}
	}
	if lines, _ := d.AuditConsistency(nil, 0); len(lines) != 0 {
		t.Fatalf("audit after first adds: %v", lines)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDirectoryIndexBytes pins the holder matrix's footprint at the
// dirstress shape: 2,100 members over 100 objects, about 60 holdings each.
// Per-ref sorted holder lists held ≈ 1.3 MB for this index; the matrix and
// its counts must stay under 64 KB.
func TestDirectoryIndexBytes(t *testing.T) {
	in := model.NewInterner([]model.SiteID{"ws-001"}, 100)
	ks, _ := NewKeySpec(30, 6, 0)
	d := NewDirectory("ws-001", ks.WebsiteID("ws-001"), 1, ks.Key("ws-001", 1), 2200, 500, 0.1, in)
	rng := rand.New(rand.NewSource(7))
	var refs []model.ObjectRef
	holdings := 0
	for m := 0; m < 2100; m++ {
		refs = refs[:0]
		for _, o := range rng.Perm(100)[:55+rng.Intn(11)] {
			refs = append(refs, in.RefFor(0, o))
		}
		if !d.ApplyPush(simnet.NodeID(m+1), refs, nil) {
			t.Fatal("push refused below S_co")
		}
		holdings += len(refs)
	}
	h := &d.holders
	bytes := 8*cap(h.rows) + 4*cap(h.count) + 4*cap(h.held)
	t.Logf("%d holdings: %d-word stride, %d B", holdings, h.stride, bytes)
	if bytes >= 64<<10 {
		t.Fatalf("holder matrix and counts take %d B for %d members, want < 64 KB", bytes, d.Size())
	}
	if lines, _ := d.AuditConsistency(nil, 0); len(lines) != 0 {
		t.Fatalf("audit: %v", lines)
	}
}
