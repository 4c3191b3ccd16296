package chord

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowercdn/internal/simnet"
)

func buildRing(t *testing.T, bits uint, ids []uint64) *Ring {
	t.Helper()
	r := NewRing(Config{Bits: bits, SuccessorList: 4})
	for i, id := range ids {
		if _, err := r.AddNode(ID(id), simnet.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.BuildConverged()
	return r
}

func TestBuildConvergedLinks(t *testing.T) {
	r := buildRing(t, 8, []uint64{10, 50, 100, 200})
	nodes := r.Nodes()
	for i, n := range nodes {
		want := nodes[(i+1)%len(nodes)]
		if n.Successor() != want {
			t.Fatalf("node %d successor = %v, want %v", n.ID(), n.Successor(), want)
		}
		wantPred := nodes[(i-1+len(nodes))%len(nodes)]
		if n.Predecessor() != wantPred {
			t.Fatalf("node %d predecessor wrong", n.ID())
		}
	}
}

func TestResponsibleExactlyOne(t *testing.T) {
	r := buildRing(t, 8, []uint64{10, 50, 100, 200})
	for key := uint64(0); key < 256; key++ {
		count := 0
		for _, n := range r.Nodes() {
			if n.Responsible(ID(key)) {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("key %d claimed by %d nodes", key, count)
		}
	}
}

func TestFindSuccessorMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids := map[uint64]bool{}
	for len(ids) < 64 {
		ids[rng.Uint64()&((1<<16)-1)] = true
	}
	var list []uint64
	for id := range ids {
		list = append(list, id)
	}
	r := buildRing(t, 16, list)
	for i := 0; i < 2000; i++ {
		key := ID(rng.Uint64() & ((1 << 16) - 1))
		start := r.Nodes()[rng.Intn(r.Len())]
		got := start.FindSuccessor(key)
		want := r.SuccessorOfKey(key)
		if got != want {
			t.Fatalf("FindSuccessor(%d) from %v = %v, want %v", key, start, got, want)
		}
	}
	if r.RouteLoopCount() != 0 {
		t.Fatalf("route loops on converged ring: %d", r.RouteLoopCount())
	}
}

func routeHops(start *Node, key ID) int {
	cur, hops := start, 0
	for {
		next, deliver := cur.RouteStep(key)
		if deliver {
			return hops
		}
		cur = next
		hops++
		if hops > 1000 {
			return hops
		}
	}
}

func TestLogarithmicHops(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ids := map[uint64]bool{}
	for len(ids) < 512 {
		ids[rng.Uint64()&((1<<24)-1)] = true
	}
	var list []uint64
	for id := range ids {
		list = append(list, id)
	}
	r := buildRing(t, 24, list)
	nodes := r.Nodes()
	total, worst := 0, 0
	const trials = 1500
	for i := 0; i < trials; i++ {
		key := ID(rng.Uint64() & ((1 << 24) - 1))
		h := routeHops(nodes[rng.Intn(len(nodes))], key)
		total += h
		if h > worst {
			worst = h
		}
	}
	avg := float64(total) / trials
	// log2(512) = 9; Chord average is ~(1/2)·log2 n. Allow headroom.
	if avg > 9 {
		t.Fatalf("average hops %.2f too high for 512 nodes", avg)
	}
	if worst > 24 {
		t.Fatalf("worst-case hops %d too high", worst)
	}
}

// Property: routing from any start node reaches the unique responsible
// node, for arbitrary memberships and keys.
func TestQuickRoutingCorrect(t *testing.T) {
	f := func(rawIDs []uint16, rawKey uint16, startIdx uint8) bool {
		if len(rawIDs) == 0 {
			return true
		}
		r := NewRing(Config{Bits: 16, SuccessorList: 4})
		for i, raw := range rawIDs {
			if _, err := r.AddNode(ID(raw), simnet.NodeID(i)); err != nil {
				continue // duplicate id in input: skip
			}
		}
		if r.Len() == 0 {
			return true
		}
		r.BuildConverged()
		nodes := r.Nodes()
		start := nodes[int(startIdx)%len(nodes)]
		got := start.FindSuccessor(ID(rawKey))
		return got == r.SuccessorOfKey(ID(rawKey))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinAndStabilizeConvergence(t *testing.T) {
	r := NewRing(Config{Bits: 16, SuccessorList: 4})
	rng := rand.New(rand.NewSource(7))
	first, err := r.AddNode(ID(rng.Uint64()&0xFFFF), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.BuildConverged()
	for i := 1; i < 40; i++ {
		n, err := r.AddNode(r.HashAddr(simnet.NodeID(i)), simnet.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Join(n, first); err != nil {
			t.Fatal(err)
		}
		// A few stabilization rounds across all nodes after each join.
		for round := 0; round < 3; round++ {
			for _, m := range r.AliveNodes() {
				m.Stabilize()
				m.CheckPredecessor()
			}
		}
	}
	for round := 0; round < 5; round++ {
		for _, m := range r.AliveNodes() {
			m.Stabilize()
			m.FixAllFingers()
		}
	}
	// Ring must now be exactly sorted successor order.
	nodes := r.AliveNodes()
	for i, n := range nodes {
		want := nodes[(i+1)%len(nodes)]
		if n.Successor() != want {
			t.Fatalf("after joins: node %d successor = %v, want %v", n.ID(), n.Successor(), want)
		}
	}
	// And routing must be exact.
	for i := 0; i < 500; i++ {
		key := ID(rng.Uint64() & 0xFFFF)
		if got := nodes[rng.Intn(len(nodes))].FindSuccessor(key); got != r.SuccessorOfKey(key) {
			t.Fatalf("routing wrong after joins for key %d", key)
		}
	}
}

func TestFailureRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ids := map[uint64]bool{}
	for len(ids) < 60 {
		ids[rng.Uint64()&0xFFFF] = true
	}
	var list []uint64
	for id := range ids {
		list = append(list, id)
	}
	r := buildRing(t, 16, list)
	// Kill 15 random nodes.
	nodes := r.Nodes()
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	for _, n := range nodes[:15] {
		r.Fail(n)
	}
	for round := 0; round < 6; round++ {
		for _, m := range r.AliveNodes() {
			m.CheckPredecessor()
			m.Stabilize()
		}
	}
	for _, m := range r.AliveNodes() {
		m.FixAllFingers()
	}
	alive := r.AliveNodes()
	for i, n := range alive {
		want := alive[(i+1)%len(alive)]
		if n.Successor() != want {
			t.Fatalf("after failures: node %d successor = %v, want %v", n.ID(), n.Successor(), want)
		}
	}
	for i := 0; i < 500; i++ {
		key := ID(rng.Uint64() & 0xFFFF)
		if got := alive[rng.Intn(len(alive))].FindSuccessor(key); got != r.SuccessorOfKey(key) {
			t.Fatalf("routing wrong after failures for key %d", key)
		}
	}
}

func TestGracefulLeave(t *testing.T) {
	r := buildRing(t, 16, []uint64{100, 200, 300, 400, 500})
	nodes := r.Nodes()
	leaver := nodes[2]
	r.Leave(leaver)
	if leaver.Up() {
		t.Fatal("leaver still up")
	}
	// Immediate neighbours should already be spliced.
	if nodes[1].Successor() != nodes[3] {
		t.Fatalf("predecessor of leaver has successor %v, want %v", nodes[1].Successor(), nodes[3])
	}
	if nodes[3].Predecessor() != nodes[1] {
		t.Fatal("successor of leaver kept stale predecessor")
	}
}

func TestDuplicateID(t *testing.T) {
	r := NewRing(DefaultConfig())
	if _, err := r.AddNode(42, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddNode(42, 1); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestHashAddrProbing(t *testing.T) {
	r := NewRing(Config{Bits: 4, SuccessorList: 2}) // tiny space forces collisions
	seen := map[ID]bool{}
	for i := 0; i < 16; i++ {
		id := r.HashAddr(simnet.NodeID(i))
		if seen[id] {
			t.Fatalf("HashAddr returned duplicate %d", id)
		}
		seen[id] = true
		if _, err := r.AddNode(id, simnet.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSingleNodeRing(t *testing.T) {
	r := buildRing(t, 8, []uint64{7})
	n := r.Nodes()[0]
	if !n.Responsible(200) || !n.Responsible(7) {
		t.Fatal("singleton must own all keys")
	}
	if got := n.FindSuccessor(99); got != n {
		t.Fatal("singleton FindSuccessor should return itself")
	}
	if n.Successor() != n {
		t.Fatal("singleton successor should be itself")
	}
}

func TestTransplantPreservesRouting(t *testing.T) {
	r := buildRing(t, 16, []uint64{100, 200, 300, 400, 500})
	nodes := r.Nodes()
	old := nodes[2] // id 300
	nn := r.Transplant(old, simnet.NodeID(99))
	if old.Up() {
		t.Fatal("old node still up after transplant")
	}
	if nn.ID() != 300 || nn.Addr() != 99 || !nn.Up() {
		t.Fatalf("new node wrong: %v", nn)
	}
	if r.Lookup(300) != nn {
		t.Fatal("registry not updated")
	}
	// No node may still reference the old object.
	for _, n := range r.Nodes() {
		if n == old {
			continue
		}
		if n.Predecessor() == old {
			t.Fatalf("node %d predecessor still old", n.ID())
		}
		for _, s := range n.SuccessorList() {
			if s == old {
				t.Fatalf("node %d successor list still old", n.ID())
			}
		}
	}
	// Routing still exact for every key.
	for key := uint64(0); key < 1<<16; key += 997 {
		got := nodes[0].FindSuccessor(ID(key))
		want := r.SuccessorOfKey(ID(key))
		if got != want {
			t.Fatalf("routing broken after transplant for key %d", key)
		}
	}
}

func TestTransplantSingleton(t *testing.T) {
	r := buildRing(t, 8, []uint64{42})
	old := r.Nodes()[0]
	nn := r.Transplant(old, 7)
	if nn.Successor() != nn || nn.Predecessor() != nn {
		t.Fatal("singleton transplant must self-link")
	}
	if got := nn.FindSuccessor(5); got != nn {
		t.Fatal("singleton routing broken")
	}
}

func TestKnownPeersSortedAndLive(t *testing.T) {
	r := buildRing(t, 16, []uint64{100, 200, 300, 400, 500, 600})
	n := r.Nodes()[0]
	r.Fail(r.Nodes()[3])
	peers := n.KnownPeers()
	prev := ID(0)
	for i, p := range peers {
		if !p.Up() {
			t.Fatal("KnownPeers returned dead node")
		}
		if p == n {
			t.Fatal("KnownPeers included self")
		}
		if i > 0 && p.ID() <= prev {
			t.Fatal("KnownPeers not sorted")
		}
		prev = p.ID()
	}
}
