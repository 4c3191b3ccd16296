package overlay

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flowercdn/internal/bloom"
	"flowercdn/internal/gossip"
	"flowercdn/internal/simnet"
)

// world is one overlay's peers under a shared descriptor, with the gossip
// messages and view seeds they built that no receiver has handed back yet
// (pending[i] is addressed to peer to[i]; a seed is a message without a
// summary) and the RNG their exchanges draw from.
type world struct {
	sh      *Shared
	peers   []*ContentPeer
	pending []GossipMsg
	to      []int
	rng     *rand.Rand
}

func newWorld(seed int64, peers, capacity int) *world {
	cfg := Config{ViewSize: 4, GossipLen: 2, PushThreshold: 0.1, SummaryCapacity: capacity}
	w := &world{sh: NewShared("ws-000", 2, cfg, testIn), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < peers; i++ {
		w.peers = append(w.peers, w.sh.NewPeer(simnet.NodeID(i+1), 0))
	}
	return w
}

// step applies operation op with arguments a, b (peer indices or an object)
// and c (a pending message, when there is one).
func (w *world) step(op, a, b, c int) {
	p, q := w.peers[a], w.peers[b]
	switch op {
	case 0, 1:
		p.AddObject(ref(b * 3 % 24))
	case 2:
		p.RemoveObject(ref(b * 3 % 24))
	case 3:
		if target, m, ok := p.MakeGossip(w.rng, nil); ok {
			w.pending, w.to = append(w.pending, m), append(w.to, int(target)-1)
		}
	case 4, 5: // deliver: the passive half answers, the active half applies
		if len(w.pending) == 0 {
			return
		}
		m, at := w.pending[c%len(w.pending)], w.to[c%len(w.pending)]
		w.drop(c % len(w.pending))
		if m.Summary == nil {
			w.peers[at].SeedView(m.ViewSubset)
		} else if m.IsReply {
			w.peers[at].ApplyGossipReply(m)
		} else {
			r := w.peers[at].AcceptGossip(m, w.rng, nil)
			w.pending, w.to = append(w.pending, r), append(w.to, int(m.From)-1)
		}
		m.Lease.End()
	case 6: // lost on the way
		if len(w.pending) > 0 {
			m := w.pending[c%len(w.pending)]
			w.drop(c % len(w.pending))
			m.Lease.End()
		}
	case 7:
		p.TickAges()
		p.DropOldContacts(3)
	case 8:
		p.RemoveContact(q.Addr())
	case 9: // a served joiner's seed, delivered like a message
		seed, lease := p.ViewSeedFor(w.rng, nil)
		w.pending, w.to = append(w.pending, GossipMsg{From: p.Addr(), ViewSubset: seed, Lease: lease}), append(w.to, b)
	case 10: // a directory's seed: no summaries
		q.SeedView([]gossip.Entry{{Node: p.Addr()}, {Node: simnet.NodeID(c%len(w.peers) + 1), Age: 1}})
	case 11:
		p.Leave()
		w.peers[a] = w.sh.NewPeer(p.Addr(), 0)
	}
}

func (w *world) drop(i int) {
	w.pending = append(w.pending[:i], w.pending[i+1:]...)
	w.to = append(w.to[:i], w.to[i+1:]...)
}

// holders counts, per summary, the references the world's state should hold
// — one per owner and view slot carrying it — and marks the summaries pending
// messages carry, which hold a lease instead.
func (w *world) holders() (held map[*bloom.Filter]int, carried map[*bloom.Filter]bool) {
	held, carried = map[*bloom.Filter]int{}, map[*bloom.Filter]bool{}
	for _, p := range w.peers {
		for _, e := range append(p.View().Entries(), gossip.Entry{Summary: p.summary}) {
			if e.Summary != nil {
				held[e.Summary]++
			}
		}
	}
	for _, m := range w.pending {
		for _, e := range append(slices.Clip(m.ViewSubset), gossip.Entry{Summary: m.Summary}) {
			if e.Summary != nil {
				carried[e.Summary] = true
			}
		}
	}
	return held, carried
}

// reachable is every summary an owner, a view slot or a pending message holds.
func (w *world) reachable() map[*bloom.Filter]bool {
	held, carried := w.holders()
	for f := range held {
		carried[f] = true
	}
	return carried
}

// TestSnapshotRecyclingAgainstClones drives two identical overlays through
// the same random operations — stores and removals, gossip made, answered,
// applied and lost, old contacts dropped, contacts removed, views seeded by a
// peer and by a directory, peers leaving — where the reference keeps a
// reference to every summary it ever sees, so that none is recycled and
// every publication is a fresh copy; once with short Bloom filters, once
// with answer sets. After every operation each view, owner and pending
// message carries bit for bit the summaries of the reference; each owner's
// last one, unless its content changed since, equals the one rebuilt from
// its content list; every summary it ever reached counts exactly the
// holders a walk finds —
// none when only pending messages carry it, or nothing does; one lease is
// open per pending message; and no spare block is reachable, held, in limbo
// or listed twice.
func TestSnapshotRecyclingAgainstClones(t *testing.T) {
	same := func(a, b []gossip.Entry) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Node != b[i].Node || a[i].Age != b[i].Age || !bytes.Equal(wire(a[i].Summary), wire(b[i].Summary)) {
				return false
			}
		}
		return true
	}
	const peers = 6
	for i := 0; i < 60; i++ {
		// Short Bloom filters, then answer sets, over the same 30 seeds.
		seed, capacity := int64(i%30+1), []int{20, 100}[i/30]
		got, ref := newWorld(seed, peers, capacity), newWorld(seed, peers, capacity)
		pinned, seen := map[*bloom.Filter]bool{}, map[*bloom.Filter]bool{}
		ops := rand.New(rand.NewSource(-seed))
		for step := 0; step < 500; step++ {
			op, a, b, c := ops.Intn(12), ops.Intn(peers), ops.Intn(peers), ops.Int()
			got.step(op, a, b, c)
			ref.step(op, a, b, c)
			for f := range ref.reachable() {
				if !pinned[f] {
					pinned[f] = true
					f.Retain()
				}
			}
			if len(ref.sh.spare) != 0 {
				t.Fatalf("seed %d step %d: the reference recycled a summary", seed, step)
			}

			for i, p := range got.peers {
				r := ref.peers[i]
				if !same(p.View().Entries(), r.View().Entries()) || !bytes.Equal(wire(p.summary), wire(r.summary)) {
					t.Fatalf("seed %d step %d (op %d): peer %d's view or summary differs from the reference", seed, step, op, i)
				}
				if err := p.View().Check(); err != nil || (p.Published() != nil && p.Published().Refs() == 0) {
					t.Fatalf("seed %d step %d (op %d): peer %d: %v, or its own summary is unheld", seed, step, op, i, err)
				}
				if p.summary != nil && p.nFresh == 0 && !sameBits(p.summary, rebuilt(p)) {
					t.Fatalf("seed %d step %d (op %d): peer %d's answers differ from its rebuilt filter's", seed, step, op, i)
				}
			}
			for i, m := range got.pending {
				r := ref.pending[i]
				if !bytes.Equal(wire(m.Summary), wire(r.Summary)) || !same(m.ViewSubset, r.ViewSubset) {
					t.Fatalf("seed %d step %d (op %d): pending message %d differs from the reference", seed, step, op, i)
				}
			}
			held, carried := got.holders()
			reach := got.reachable()
			for f := range reach {
				seen[f] = true
			}
			for f := range seen { // a summary nothing reaches counts no holder
				if f.Refs() != held[f] {
					t.Fatalf("seed %d step %d (op %d): a summary counts %d holders, the walk finds %d (reachable: %v)", seed, step, op, f.Refs(), held[f], reach[f])
				}
			}
			if open := got.sh.open[0] + got.sh.open[1]; int(open) != len(got.pending) {
				t.Fatalf("seed %d step %d (op %d): %d leases open for %d pending messages", seed, step, op, open, len(got.pending))
			}
			spare := map[*bloom.Filter]bool{}
			for _, f := range got.sh.spare {
				inLimbo := slices.Contains(got.sh.limbo[0], f) || slices.Contains(got.sh.limbo[1], f)
				if held[f] > 0 || carried[f] || inLimbo || spare[f] || f.Refs() != 0 {
					t.Fatalf("seed %d step %d (op %d): a spare block is reachable, in limbo, listed twice or held", seed, step, op)
				}
				spare[f] = true
			}
		}
		if len(seen) >= len(pinned) {
			t.Fatalf("capacity %d seed %d: %d blocks for %d publications: nothing was recycled", capacity, seed, len(seen), len(pinned))
		}
	}
}

// TestSaturatedSummaryNeverRecycled: a snapshot whose holder count saturated
// is pinned — when every holder has let go it is neither in limbo nor a
// spare, and the next publication allocates rather than overwrite it.
func TestSaturatedSummaryNeverRecycled(t *testing.T) {
	sh := NewShared("ws-000", 2, DefaultConfig(), testIn)
	p := sh.NewPeer(1, 0)
	p.AddObject(ref(1))
	f := p.Summary()
	for i := 0; i < math.MaxUint16; i++ {
		f.Retain()
	}
	for i := 0; i < math.MaxUint16; i++ {
		sh.release(f)
	}
	p.AddObject(ref(2))
	if g := p.Summary(); g == f || len(sh.spare)+len(sh.limbo[0])+len(sh.limbo[1]) != 0 || f.Refs() != math.MaxUint16 {
		t.Fatalf("a pinned summary was recycled (%d spares, %d holders)", len(sh.spare), f.Refs())
	}
}
