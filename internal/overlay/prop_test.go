package overlay

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"flowercdn/internal/bloom"
	"flowercdn/internal/gossip"
	"flowercdn/internal/model"
)

// TestDeltaListAgainstReference checks the two-bitset ∆list against the
// dense []int8 it replaced (+1 added, -1 removed, 0 none, net effect per
// object) over random add/remove/TakePush sequences: same pending count,
// same push decision, same lists in the same ascending order.
func TestDeltaListAgainstReference(t *testing.T) {
	n := testIn.ObjectsPerSite()
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newPeer(1)
		stored := make([]bool, n)
		pending := make([]int8, n)
		for step := 0; step < 400; step++ {
			i := rng.Intn(n)
			switch op := rng.Intn(8); {
			case op < 4:
				p.AddObject(ref(i))
				if !stored[i] {
					stored[i] = true
					pending[i]++ // -1 → 0: remove+add cancels; 0 → +1
				}
			case op < 7:
				p.RemoveObject(ref(i))
				if stored[i] {
					stored[i] = false
					pending[i]-- // +1 → 0: add+remove cancels; 0 → -1
				}
			default:
				var added, removed []model.ObjectRef
				for j, d := range pending {
					if d > 0 {
						added = append(added, ref(j))
					} else if d < 0 {
						removed = append(removed, ref(j))
					}
					pending[j] = 0
				}
				msg, ok := p.TakePush(nil, nil)
				if ok != (len(added)+len(removed) > 0) {
					t.Fatalf("seed %d step %d: TakePush ok=%v with %d reference changes", seed, step, ok, len(added)+len(removed))
				}
				if !reflect.DeepEqual(msg.Added, added) || !reflect.DeepEqual(msg.Removed, removed) {
					t.Fatalf("seed %d step %d: pushed +%v -%v, reference +%v -%v", seed, step, msg.Added, msg.Removed, added, removed)
				}
			}
			changes, size := 0, 0
			for j := range pending {
				if pending[j] != 0 {
					changes++
				}
				if stored[j] {
					size++
				}
			}
			if p.PendingChanges() != changes || p.ContentSize() != size {
				t.Fatalf("seed %d step %d: %d pending of %d stored, reference %d of %d", seed, step, p.PendingChanges(), p.ContentSize(), changes, size)
			}
			if size < 1 {
				size = 1
			}
			if want := changes > 0 && float64(changes)/float64(size) >= p.sh.cfg.PushThreshold; p.NeedPush() != want {
				t.Fatalf("seed %d step %d: NeedPush=%v with %d changes over %d objects", seed, step, p.NeedPush(), changes, size)
			}
		}
	}
}

// rebuilt is the summary p's content list must publish: a Bloom filter of
// the overlay's shape rebuilt from the list or, when the overlay publishes
// answer sets, for each of the site's objects TestHash of that filter.
func rebuilt(p *ContentPeer) *bloom.Filter {
	in := p.sh.in
	f := bloom.NewForCapacity(p.sh.cfg.SummaryCapacity)
	for _, o := range p.Objects() {
		f.AddHash(in.Hashes(o))
	}
	if p.sh.probes == nil {
		return f
	}
	a := bloom.NewAnswers(in.ObjectsPerSite())
	for i := 0; i < in.ObjectsPerSite(); i++ {
		if f.TestHash(in.Hashes(p.sh.base + model.ObjectRef(i))) {
			a.SetAnswer(i)
		}
	}
	return a
}

// wire is f's serialised form (nil for nil), to compare bit for bit.
func wire(f *bloom.Filter) []byte {
	if f == nil {
		return nil
	}
	b, _ := f.MarshalBinary()
	return b
}

func sameBits(a, b *bloom.Filter) bool { return bytes.Equal(wire(a), wire(b)) }

// TestSummaryDeltaAgainstRebuild: every published summary equals the one
// rebuilt from the content list — for an overlay of answer sets, for each of
// the site's objects, TestHash of a Bloom filter rebuilt from the list; for
// one of short filters, that filter's bits and insertion count — whether it
// extended the last snapshot or was rebuilt, over random
// add/remove/publish sequences — bursts longer than the fresh list,
// removals, re-adds of removed objects — and no snapshot changes once
// published while someone holds it (the test, here: one nobody holds is a
// spare block the next publication overwrites). The third shape's filter is
// small for its site, so false positives are common and an extension must
// find the answers it turns on.
func TestSummaryDeltaAgainstRebuild(t *testing.T) {
	dense := model.NewInterner([]model.SiteID{"ws-000"}, 400)
	for _, shape := range []struct {
		in       *model.Interner
		capacity int
	}{{testIn, 100}, {testIn, 8}, {dense, 66}} {
		n := shape.in.ObjectsPerSite()
		cfg := DefaultConfig()
		cfg.SummaryCapacity = shape.capacity
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := New(1, "ws-000", 2, cfg, 0, shape.in)
			var published []*bloom.Filter
			var frozen [][]byte
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(10); {
				case op < 6:
					p.AddObject(shape.in.RefFor(0, rng.Intn(n)))
				case op == 6:
					p.RemoveObject(shape.in.RefFor(0, rng.Intn(n)))
				default:
					got := p.Summary()
					if !sameBits(got, rebuilt(p)) {
						t.Fatalf("capacity %d seed %d step %d: published summary differs from the rebuild", shape.capacity, seed, step)
					}
					if p.Summary() != got {
						t.Fatalf("capacity %d seed %d step %d: unchanged content published a second snapshot", shape.capacity, seed, step)
					}
					got.Retain()
					published, frozen = append(published, got), append(frozen, wire(got))
				}
			}
			for i, f := range published {
				if !bytes.Equal(wire(f), frozen[i]) {
					t.Fatalf("capacity %d seed %d: snapshot %d changed after publication", shape.capacity, seed, i)
				}
			}
		}
	}
}

// A join's worth of overlay state is the struct and the one word array
// behind its three bitsets; the view's slot array comes with the first
// seed. The overlay's descriptor is paid once, not per member — the
// one-peer New builds its own.
func TestNewAllocs(t *testing.T) {
	var p *ContentPeer
	sh := NewShared("ws-000", 2, DefaultConfig(), testIn)
	if avg := testing.AllocsPerRun(50, func() { p = sh.NewPeer(1, 0) }); avg != 2 {
		t.Fatalf("a member of an existing overlay costs %.0f allocations, want 2", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { p = newPeer(1) }); avg != 3 {
		t.Fatalf("overlay.New costs %.0f allocations, want 3", avg)
	}
	seed := []gossip.Entry{{Node: 2}, {Node: 3, Age: 1}}
	if avg := testing.AllocsPerRun(50, func() {
		p = sh.NewPeer(1, 0)
		p.SeedView(seed)
		p.AddObject(ref(1))
		p.RemoveObject(ref(1))
		p.AddObject(ref(2))
		p.TakePush(nil, nil)
	}); avg != 4 { // NewPeer's two, the slot array, the Added list
		t.Fatalf("a seeded peer with a first push costs %.0f allocations, want 4", avg)
	}

	// Publishing a summary costs the snapshot — one block — on both paths
	// while every snapshot stays held, and nothing once the overlay holds a
	// spare: here the previous snapshot, which its peer held last. Listing the
	// content into a grown buffer costs nothing.
	p = sh.NewPeer(1, 0)
	next := 0
	for _, held := range []bool{true, false} {
		want := 0.0
		if held {
			want = 1
		}
		if avg := testing.AllocsPerRun(50, func() {
			next++
			p.AddObject(ref(next))
			if f := p.Summary(); held { // the last snapshot plus the object stored since
				f.Retain()
			}
		}); avg != want {
			t.Fatalf("an incremental summary (held: %v) costs %.0f allocations, want %.0f", held, avg, want)
		}
		if avg := testing.AllocsPerRun(50, func() {
			p.RemoveObject(ref(next))
			next--
			if f := p.Summary(); held { // rebuilt from the content list
				f.Retain()
			}
		}); avg != want {
			t.Fatalf("a rebuilt summary (held: %v) costs %.0f allocations, want %.0f", held, avg, want)
		}
	}
	p.AddObject(ref(1))
	buf := p.Objects()
	if avg := testing.AllocsPerRun(50, func() { buf = p.AppendObjects(buf[:0]) }); avg != 0 || len(buf) != p.ContentSize() {
		t.Fatalf("AppendObjects into a grown buffer: %.0f allocations, %d of %d objects", avg, len(buf), p.ContentSize())
	}
}

// The per-member record: what 66k joined peers of a 100k-client run each
// hold. 208 bytes today (a malloc size class); the descriptor's five fields
// must not creep back in.
func TestContentPeerSize(t *testing.T) {
	if got := unsafe.Sizeof(ContentPeer{}); got > 240 {
		t.Fatalf("ContentPeer is %d bytes, want <= 240", got)
	}
}
