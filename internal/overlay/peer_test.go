package overlay

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"flowercdn/internal/bloom"
	"flowercdn/internal/gossip"
	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
)

// testIn is the shared dense object space for peer tests: one site, 64
// objects. Tests refer to objects by their ref (testIn.SiteBase(0)+i = i).
var testIn = model.NewInterner([]model.SiteID{"ws-000"}, 64)

// ref interns object num of the test site.
func ref(num int) model.ObjectRef { return testIn.RefFor(0, num) }

// testHash probes a filter for object num via its precomputed hashes.
func testHas(p *ContentPeer, num int) bool { return p.Has(ref(num)) }

func newPeer(addr simnet.NodeID) *ContentPeer {
	cfg := DefaultConfig()
	cfg.SummaryCapacity = 100
	return New(addr, "ws-000", 2, cfg, 0, testIn)
}

func TestContentManagement(t *testing.T) {
	p := newPeer(1)
	p.AddObject(ref(1))
	p.AddObject(ref(0))
	p.AddObject(ref(0)) // duplicate ignored
	if p.ContentSize() != 2 || !testHas(p, 0) || testHas(p, 25) {
		t.Fatal("content bookkeeping wrong")
	}
	objs := p.Objects()
	if len(objs) != 2 || objs[0] != ref(0) || objs[1] != ref(1) {
		t.Fatalf("Objects() = %v", objs)
	}
	p.RemoveObject(ref(0))
	p.RemoveObject(ref(60)) // absent: no-op
	if testHas(p, 0) || p.ContentSize() != 1 {
		t.Fatal("removal wrong")
	}
}

// TestSummarySnapshotImmutable: each publication is the answer set of a
// Bloom filter rebuilt from the content list, and one held across the next
// publication keeps its bits.
func TestSummarySnapshotImmutable(t *testing.T) {
	p := newPeer(1)
	p.AddObject(ref(10))
	s1 := p.Summary()
	s1.Retain() // held past the next publication
	want1 := rebuilt(p)
	if s1.Hashes() != 0 || !s1.Answer(10) || !sameBits(s1, want1) {
		t.Fatal("summary is not the answer set of the content's Bloom filter")
	}
	p.AddObject(ref(11))
	s2 := p.Summary()
	if s1 == s2 {
		t.Fatal("summary not rebuilt after change")
	}
	if s1.Answer(11) || !sameBits(s1, want1) {
		t.Fatal("old snapshot mutated")
	}
	if !s2.Answer(11) || !s2.Answer(10) || !sameBits(s2, rebuilt(p)) {
		t.Fatal("new summary incomplete")
	}
	if p.Summary() != s2 {
		t.Fatal("unchanged content must reuse the snapshot")
	}
}

func TestPushThreshold(t *testing.T) {
	p := newPeer(1)
	if p.NeedPush() {
		t.Fatal("no changes should mean no push")
	}
	p.AddObject(ref(0)) // 1 change / list size 1 = 100% ≥ 10%
	if !p.NeedPush() {
		t.Fatal("first object must trigger a push")
	}
	msg, ok := p.TakePush(nil, nil)
	if !ok || len(msg.Added) != 1 || msg.Added[0] != ref(0) || msg.From != 1 {
		t.Fatalf("TakePush = %+v", msg)
	}
	if p.NeedPush() || p.PendingChanges() != 0 {
		t.Fatal("push did not reset counters")
	}
	// Build a 20-object list; threshold 0.1 ⇒ 2 new changes trigger.
	for i := 0; i < 19; i++ {
		p.AddObject(ref(20 + i))
	}
	p.TakePush(nil, nil)
	p.AddObject(ref(1))
	if p.NeedPush() { // 1/20 = 5% < 10%
		t.Fatal("below threshold should not push")
	}
	p.AddObject(ref(2))
	if !p.NeedPush() { // 2/22 ≈ 9.1%... list is now 22: recompute
		// 2 changes / 22 objects = 9.09% < 10% — actually still below.
		t.Log("2/22 below threshold as computed against current list")
	}
	p.AddObject(ref(3))
	if !p.NeedPush() { // 3/23 ≈ 13% ≥ 10%
		t.Fatal("threshold crossing not detected")
	}
	msg, _ = p.TakePush(nil, nil)
	if len(msg.Added) != 3 {
		t.Fatalf("delta size = %d, want 3", len(msg.Added))
	}
}

func TestPushIncludesRemovals(t *testing.T) {
	p := newPeer(1)
	p.AddObject(ref(0))
	p.TakePush(nil, nil)
	p.RemoveObject(ref(0))
	msg, ok := p.TakePush(nil, nil)
	if !ok || len(msg.Removed) != 1 || msg.Removed[0] != ref(0) {
		t.Fatalf("removal delta wrong: %+v", msg)
	}
	if _, ok := p.TakePush(nil, nil); ok {
		t.Fatal("empty TakePush should report not-ok")
	}
}

func TestDirEntryLifecycle(t *testing.T) {
	p := newPeer(1)
	if p.Dir().Known {
		t.Fatal("fresh peer should not know a directory")
	}
	p.SetDir(50)
	p.TickAges()
	p.TickAges()
	if d := p.Dir(); d.Addr != 50 || d.Age != 2 {
		t.Fatalf("dir = %+v", d)
	}
	p.RefreshDir()
	if p.Dir().Age != 0 {
		t.Fatal("RefreshDir failed")
	}
	// Fresher gossiped info wins.
	p.TickAges()
	p.ConsiderDir(DirInfo{Addr: 60, Age: 0, Known: true})
	if p.Dir().Addr != 60 {
		t.Fatal("fresher directory info not adopted")
	}
	// Staler info is ignored.
	p.ConsiderDir(DirInfo{Addr: 70, Age: 9, Known: true})
	if p.Dir().Addr != 70 && p.Dir().Addr != 60 {
		t.Fatal("unexpected dir")
	}
	if p.Dir().Addr == 70 {
		t.Fatal("staler directory info adopted")
	}
	p.ForgetDir()
	if p.Dir().Known {
		t.Fatal("ForgetDir failed")
	}
	p.ConsiderDir(DirInfo{}) // unknown: no-op
	if p.Dir().Known {
		t.Fatal("unknown dir info adopted")
	}
}

func TestGossipRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := newPeer(1), newPeer(2)
	a.AddObject(ref(1))
	b.AddObject(ref(2))
	a.SetDir(99)
	a.SeedView([]gossip.Entry{{Node: 2, Age: 3}})
	target, msg, ok := a.MakeGossip(rng, nil)
	if !ok || target != 2 {
		t.Fatalf("MakeGossip target = %d ok=%v", target, ok)
	}
	if msg.Summary == nil || !msg.Summary.Answer(1) {
		t.Fatal("gossip message missing sender summary")
	}
	reply := b.AcceptGossip(msg, rng, nil)
	if !reply.IsReply || reply.From != 2 {
		t.Fatalf("reply malformed: %+v", reply)
	}
	// b must now know a, fresh, with a's summary; and a's directory.
	e, found := b.View().Get(1)
	if !found || e.Age != 0 || e.Summary == nil || !e.Summary.Answer(1) {
		t.Fatalf("b's entry for a: %+v found=%v", e, found)
	}
	if d := b.Dir(); !d.Known || d.Addr != 99 {
		t.Fatalf("directory info not gossiped: %+v", d)
	}
	a.ApplyGossipReply(reply)
	e, found = a.View().Get(2)
	if !found || e.Age != 0 || e.Summary == nil || !e.Summary.Answer(2) {
		t.Fatalf("a's entry for b: %+v found=%v", e, found)
	}
}

func TestMakeGossipEmptyView(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := newPeer(1)
	if _, _, ok := p.MakeGossip(rng, nil); ok {
		t.Fatal("empty view should not gossip")
	}
}

// TestCandidatesForUsesSummaries: a contact is a candidate for an object
// exactly when its published answer set — the answers of a Bloom filter
// rebuilt from its content list — says yes.
func TestCandidatesForUsesSummaries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := newPeer(1)
	holder := newPeer(2)
	holder.AddObject(ref(30))
	other := newPeer(3)
	other.AddObject(ref(31))
	p.SeedView([]gossip.Entry{
		{Node: 2, Age: 0, Summary: holder.Summary()},
		{Node: 3, Age: 0, Summary: other.Summary()},
	})
	cands := p.CandidatesFor(ref(30), rng)
	if len(cands) != 1 || cands[0] != 2 {
		t.Fatalf("candidates = %v, want [2]", cands)
	}
	for i := 0; i < testIn.ObjectsPerSite(); i++ {
		var want []simnet.NodeID
		for _, q := range []*ContentPeer{holder, other} {
			if rebuilt(q).Answer(i) {
				want = append(want, q.Addr())
			}
		}
		got := p.CandidatesFor(ref(i), rng)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("object %d: candidates %v, the rebuilt filters' %v", i, got, want)
		}
	}
}

// TestCandidatesForBloomSeededView: a view seeded with Bloom filters, not
// answer sets, is still asked as such: a contact is a candidate exactly when
// its filter tests positive for the object's hashes, beside contacts whose
// answer sets are read.
func TestCandidatesForBloomSeededView(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := newPeer(1)
	var entries []gossip.Entry
	filters := map[simnet.NodeID]*bloom.Filter{}
	for i := 0; i < 6; i++ {
		f := bloom.NewForCapacity(500)
		for j := 0; j < 12; j++ {
			f.AddHash(testIn.Hashes(ref((i*9 + j) % testIn.ObjectsPerSite())))
		}
		node := simnet.NodeID(10 + i)
		filters[node] = f
		entries = append(entries, gossip.Entry{Node: node, Age: i % 3, Summary: f})
	}
	member := newPeer(2)
	member.AddObject(ref(7))
	entries = append(entries, gossip.Entry{Node: 2, Summary: member.Summary()})
	p.SeedView(entries)
	for i := 0; i < testIn.ObjectsPerSite(); i++ {
		var want []simnet.NodeID
		if i == 7 {
			want = append(want, 2)
		}
		for node, f := range filters {
			if f.TestHash(testIn.Hashes(ref(i))) {
				want = append(want, node)
			}
		}
		slices.Sort(want)
		got := p.CandidatesFor(ref(i), rng)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("object %d: candidates %v, want %v", i, got, want)
		}
	}
}

// TestCandidatesForForeignRef: no member of an overlay stores another
// website's objects (AddObject refuses them), so a lookup for one — a
// directory handed another site's key under churn — finds no candidate,
// even in a view whose every summary tests positive for everything.
func TestCandidatesForForeignRef(t *testing.T) {
	in := model.NewInterner([]model.SiteID{"ws-000", "ws-001"}, 16)
	cfg := Config{ViewSize: 8, GossipLen: 2, PushThreshold: 0.1, SummaryCapacity: 16}
	sh := NewShared("ws-000", 0, cfg, in)
	p := sh.NewPeer(1, 0)
	saturated := bloom.NewForCapacity(cfg.SummaryCapacity)
	for k := 0; saturated.FillRatio() < 1; k++ {
		saturated.Add(fmt.Sprint(k))
	}
	entries := []gossip.Entry{{Node: 2, Summary: saturated}}
	for i := 3; i < 6; i++ {
		h := sh.NewPeer(simnet.NodeID(i), 0)
		for j := 0; j < in.ObjectsPerSite(); j++ {
			h.AddObject(in.RefFor(0, j))
		}
		entries = append(entries, gossip.Entry{Node: h.Addr(), Summary: h.Summary()})
	}
	p.SeedView(entries)
	rng := rand.New(rand.NewSource(6))
	if cands := p.CandidatesFor(in.RefFor(0, 3), rng); len(cands) != 4 {
		t.Fatalf("own-site object: %d candidates, want all 4", len(cands))
	}
	for j := 0; j < in.ObjectsPerSite(); j++ {
		if cands := p.CandidatesFor(in.RefFor(1, j), rng); len(cands) != 0 {
			t.Fatalf("object %d of another site: candidates %v, want none", j, cands)
		}
	}
}

func TestCandidatesShuffled(t *testing.T) {
	// With many holders, ordering should vary across queries (load
	// spreading): check that at least two orderings occur.
	p := newPeer(1)
	var holders []*ContentPeer
	var entries []gossip.Entry
	for i := 2; i < 12; i++ {
		h := newPeer(simnet.NodeID(i))
		h.AddObject(ref(40))
		holders = append(holders, h)
		entries = append(entries, gossip.Entry{Node: h.Addr(), Age: 0, Summary: h.Summary()})
	}
	p.SeedView(entries)
	rng := rand.New(rand.NewSource(3))
	first := fmt.Sprint(p.CandidatesFor(ref(40), rng))
	varied := false
	for i := 0; i < 10; i++ {
		if fmt.Sprint(p.CandidatesFor(ref(40), rng)) != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("candidate order never varies")
	}
}

func TestViewSeedForIncludesSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := newPeer(7)
	p.AddObject(ref(5))
	p.SeedView([]gossip.Entry{{Node: 2, Age: 1}, {Node: 3, Age: 2}})
	seed, lease := p.ViewSeedFor(rng, nil)
	defer lease.End()
	foundSelf := false
	for _, e := range seed {
		if e.Node == 7 {
			foundSelf = true
			if e.Age != 0 || e.Summary == nil || !e.Summary.Answer(5) {
				t.Fatalf("self entry malformed: %+v", e)
			}
		}
	}
	if !foundSelf {
		t.Fatal("seed must include the serving peer")
	}
}

func TestDropOldContacts(t *testing.T) {
	p := newPeer(1)
	p.SeedView([]gossip.Entry{{Node: 2, Age: 0}, {Node: 3, Age: 0}})
	for i := 0; i < 4; i++ {
		p.TickAges()
	}
	p.View().Refresh(2, nil)
	if n := p.DropOldContacts(4); n != 1 || p.View().Contains(3) || !p.View().Contains(2) {
		t.Fatalf("evicted %d, view %v; want node 3 alone gone", n, p.View().Entries())
	}
	p.RemoveContact(2)
	if p.View().Len() != 0 {
		t.Fatal("RemoveContact failed")
	}
}

func TestGossipWireBytes(t *testing.T) {
	p := newPeer(1)
	p.AddObject(ref(0))
	p.SetDir(9)
	p.SeedView([]gossip.Entry{{Node: 2, Age: 0, Summary: p.Summary()}})
	rng := rand.New(rand.NewSource(5))
	_, msg, ok := p.MakeGossip(rng, nil)
	if !ok {
		t.Fatal("gossip failed")
	}
	// header 20 + dir 8 + own summary 100 + 1 entry (8 + 100).
	want := 20 + 8 + 100 + 108
	if got := msg.WireBytes(p.sh.cfg.SummaryBytes()); got != want {
		t.Fatalf("WireBytes = %d, want %d", got, want)
	}
	// 3 interned refs at 4 B each on top of the 20-byte header.
	push := PushMsg{From: 1, Added: []model.ObjectRef{ref(0), ref(1)}, Removed: []model.ObjectRef{ref(2)}}
	if push.WireBytes() != 20+12 {
		t.Fatalf("push bytes = %d, want 32", push.WireBytes())
	}
}

// Property: whatever sequence of adds/removes, (1) the summary never has
// false negatives on current content, and (2) concatenated pushes replay
// to exactly the same content set.
func TestQuickContentPushConsistency(t *testing.T) {
	prop := func(ops []uint8) bool {
		p := newPeer(1)
		replay := map[model.ObjectRef]struct{}{}
		apply := func(msg PushMsg) {
			for _, o := range msg.Added {
				replay[o] = struct{}{}
			}
			for _, o := range msg.Removed {
				delete(replay, o)
			}
		}
		for _, op := range ops {
			obj := ref(int(op) % 17)
			if op%3 == 2 {
				p.RemoveObject(obj)
			} else {
				p.AddObject(obj)
			}
			if op%5 == 0 {
				if msg, ok := p.TakePush(nil, nil); ok {
					apply(msg)
				}
			}
		}
		if msg, ok := p.TakePush(nil, nil); ok {
			apply(msg)
		}
		if len(replay) != p.ContentSize() {
			return false
		}
		sum := p.Summary()
		for _, o := range p.Objects() {
			if _, ok := replay[o]; !ok {
				return false
			}
			if !sum.Answer(int(o)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	in := model.NewInterner([]model.SiteID{"ws-009"}, 8)
	p := New(5, "ws-009", 3, DefaultConfig(), 1234, in)
	if p.Addr() != 5 || p.Site() != "ws-009" || p.Locality() != 3 || p.JoinedAt() != 1234 {
		t.Fatal("accessors wrong")
	}
	if p.View() == nil {
		t.Fatal("view missing")
	}
}
