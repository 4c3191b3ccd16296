package gossip

import (
	"math/rand"
	"testing"

	"flowercdn/internal/simnet"
)

// BenchmarkGossipRound drives the per-round view operations of Algorithm 4
// — age, select a subset, merge the partner's subset — on two steady-state
// views. After warm-up the only allocation left is the subset slice that
// escapes into the outgoing message; Merge works in place and the
// Fisher–Yates state is stack storage.
func BenchmarkGossipRound(b *testing.B) {
	const viewSize, gossipLen = 24, 10
	a := NewView(1, viewSize)
	c := NewView(2, viewSize)
	for i := 0; i < viewSize; i++ {
		a.Insert(Entry{Node: simnet.NodeID(10 + i), Age: i % 7})
		c.Insert(Entry{Node: simnet.NodeID(40 + i), Age: i % 5})
	}
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.IncrementAges()
		sub := a.SelectSubsetAppend(rng, gossipLen, nil)
		c.Merge(sub)
		back := c.SelectSubsetAppend(rng, gossipLen, nil)
		a.Merge(back)
	}
}

// Merge on its own must allocate nothing once the slot array exists, and
// getting there from an empty view must cost that one right-sized array,
// not an append-doubling crawl. Insert and a Refresh of an absent node ride
// the same in-place path.
func TestMergeAllocFree(t *testing.T) {
	const viewSize, gossipLen = 24, 8
	growth := testing.AllocsPerRun(20, func() {
		g := NewView(0, viewSize) // 1: the View itself
		sub := make([]Entry, gossipLen)
		for round := 0; round < 8; round++ {
			for i := range sub {
				sub[i] = Entry{Node: simnet.NodeID(1 + round*gossipLen + i), Age: i % 3}
			}
			g.Merge(sub)
		}
	})
	// View + subset + the slot array, sized once.
	if growth > 3 {
		t.Fatalf("empty view to steady state costs %.0f allocations, want <= 3", growth)
	}

	v := NewView(0, 24)
	for i := 1; i <= 24; i++ {
		v.Insert(Entry{Node: simnet.NodeID(i), Age: i % 9})
	}
	in := make([]Entry, 8)
	for i := range in {
		in[i] = Entry{Node: simnet.NodeID(20 + i), Age: i % 3}
	}
	v.Merge(in) // sizes the slot array for this input
	if avg := testing.AllocsPerRun(100, func() { v.Merge(in) }); avg != 0 {
		t.Fatalf("Merge allocates %.1f/op in steady state, want 0", avg)
	}
	node := simnet.NodeID(1000)
	if avg := testing.AllocsPerRun(100, func() {
		node++
		v.IncrementAges()
		v.Insert(Entry{Node: node, Age: 1})
		v.Refresh(node+5000, nil) // absent: inserted
	}); avg != 0 {
		t.Fatalf("Insert + Refresh of an absent node allocate %.1f/op, want 0", avg)
	}
	if !v.Contains(node + 5000) {
		t.Fatal("Refresh did not insert the absent node")
	}
}

// Evicting every period (the sparse-gossip regime, where contacts age out
// between rounds) must not allocate: DropOlderThan truncates in place.
func TestDropOlderAllocFree(t *testing.T) {
	v := NewView(0, 24)
	for i := 1; i <= 24; i++ {
		v.Insert(Entry{Node: simnet.NodeID(i), Age: i % 9})
	}
	if v.DropOlderThan(release, 4) == 0 {
		t.Fatal("setup evicts nothing")
	}
	in := make([]Entry, 12)
	for i := range in {
		in[i] = Entry{Node: simnet.NodeID(100 + i), Age: 4 + i%3}
	}
	v.Merge(in) // size the slot array so only DropOlderThan is measured
	v.DropOlderThan(release, 4)
	evicted := 0
	avg := testing.AllocsPerRun(100, func() {
		v.Merge(in)
		evicted += v.DropOlderThan(release, 4)
	})
	if evicted == 0 {
		t.Fatal("measured rounds evicted nothing")
	}
	if avg != 0 {
		t.Fatalf("DropOlderThan allocates %.1f/op in steady state, want 0", avg)
	}
}
