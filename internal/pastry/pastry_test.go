package pastry

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flowercdn/internal/chord"
	"flowercdn/internal/simnet"
)

func buildRing(t *testing.T, ids []uint64) *Ring {
	t.Helper()
	r := NewRing()
	for i, id := range ids {
		if _, err := r.AddNode(chord.ID(id), simnet.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.BuildConverged()
	return r
}

func randomIDs(rng *rand.Rand, n int) []uint64 {
	seen := map[uint64]bool{}
	for len(seen) < n {
		seen[rng.Uint64()&((1<<30)-1)] = true
	}
	out := make([]uint64, 0, n)
	for id := range seen {
		out = append(out, id)
	}
	return out
}

// groundTruth returns the live node numerically closest to key.
func groundTruth(r *Ring, key chord.ID) *Node {
	var best *Node
	var bestD uint64
	for _, n := range r.AliveNodes() {
		d := r.Space().CircularDistance(n.ID(), key)
		if best == nil || d < bestD || (d == bestD && n.ID() < best.ID()) {
			best, bestD = n, d
		}
	}
	return best
}

func TestDigitExtraction(t *testing.T) {
	r := NewRing()
	// Ten octal digits fill the 30-bit space, most significant first.
	id := chord.ID(0o1234567012)
	want := []int{1, 2, 3, 4, 5, 6, 7, 0, 1, 2}
	for i, w := range want {
		if got := r.digit(id, i); got != w {
			t.Fatalf("digit %d = %o, want %o", i, got, w)
		}
	}
	if got := r.sharedPrefix(0o1234567012, 0o1234567000); got != 8 {
		t.Fatalf("sharedPrefix = %d, want 8", got)
	}
	if got := r.sharedPrefix(0o1234567012, 0o1234567012); got != 10 {
		t.Fatalf("identical prefix = %d, want 10", got)
	}
	if got := r.sharedPrefix(0o1234567012, 0o7234567012); got != 0 {
		t.Fatalf("disjoint prefix = %d, want 0", got)
	}
}

func TestRoutingDeliversNumericallyClosest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := buildRing(t, randomIDs(rng, 128))
	nodes := r.AliveNodes()
	for i := 0; i < 2000; i++ {
		key := chord.ID(rng.Uint64() & ((1 << 30) - 1))
		start := nodes[rng.Intn(len(nodes))]
		got, _ := r.Route(start, key)
		want := groundTruth(r, key)
		if got != want {
			t.Fatalf("Route(%d) from %v = %v, want %v", key, start, got, want)
		}
	}
}

func TestLogarithmicHops(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := buildRing(t, randomIDs(rng, 512))
	nodes := r.AliveNodes()
	total, worst := 0, 0
	const trials = 1500
	for i := 0; i < trials; i++ {
		key := chord.ID(rng.Uint64() & ((1 << 30) - 1))
		_, hops := r.Route(nodes[rng.Intn(len(nodes))], key)
		total += hops
		if hops > worst {
			worst = hops
		}
	}
	avg := float64(total) / trials
	// log_8(512) = 3 digits resolved per hop on average; generous bound.
	if avg > 5 {
		t.Fatalf("average hops %.2f too high for 512 nodes (b=3)", avg)
	}
	if worst > 12 {
		t.Fatalf("worst hops %d too high", worst)
	}
}

// Property: routing reaches the unique numerically closest live node for
// arbitrary memberships, keys and starting points.
func TestQuickRoutingCorrect(t *testing.T) {
	prop := func(rawIDs []uint32, rawKey uint32, startIdx uint8) bool {
		if len(rawIDs) == 0 {
			return true
		}
		r := NewRing()
		for i, raw := range rawIDs {
			_, _ = r.AddNode(chord.ID(raw)&((1<<30)-1), simnet.NodeID(i))
		}
		if r.Len() == 0 {
			return true
		}
		r.BuildConverged()
		nodes := r.AliveNodes()
		start := nodes[int(startIdx)%len(nodes)]
		key := chord.ID(rawKey) & ((1 << 30) - 1)
		got, _ := r.Route(start, key)
		return got == groundTruth(r, key)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoutingAroundFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := buildRing(t, randomIDs(rng, 100))
	nodes := r.AliveNodes()
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	for _, n := range nodes[:20] {
		r.Fail(n)
	}
	// Repair: at this abstraction level the ring re-converges from live
	// membership (the protocol's leaf-set repair outcome).
	r.BuildConverged()
	alive := r.AliveNodes()
	for i := 0; i < 500; i++ {
		key := chord.ID(rng.Uint64() & ((1 << 30) - 1))
		got, _ := r.Route(alive[rng.Intn(len(alive))], key)
		if got != groundTruth(r, key) {
			t.Fatalf("post-failure routing wrong for key %d", key)
		}
		if !got.Up() {
			t.Fatal("delivered to dead node")
		}
	}
}

func TestSingleNode(t *testing.T) {
	r := buildRing(t, []uint64{42})
	n := r.AliveNodes()[0]
	got, hops := r.Route(n, 7)
	if got != n || hops != 0 {
		t.Fatalf("singleton should deliver to itself, got %v in %d hops", got, hops)
	}
}

// Known's tables cover the routing state: every leaf and routing-table
// slot exactly once, and nothing else.
func TestKnownVisitsEverySlotOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := buildRing(t, randomIDs(rng, 64))
	nodes := r.AliveNodes()
	r.Fail(nodes[10])
	for _, n := range nodes[:5] {
		visits := map[**Node]int{}
		for tab := 0; ; tab++ {
			entries, ok := n.Known(tab)
			if !ok {
				break
			}
			for i := range entries {
				visits[&entries[i]]++
			}
		}
		want := 0
		check := func(slot **Node) {
			want++
			if visits[slot] != 1 {
				t.Fatalf("node %d: slot holding %v visited %d times", n.ID(), *slot, visits[slot])
			}
		}
		for i := range n.leftLeaves {
			check(&n.leftLeaves[i])
		}
		for i := range n.rightLeaves {
			check(&n.rightLeaves[i])
		}
		for _, row := range n.table {
			for c := range row {
				check(&row[c])
			}
		}
		if n.Predecessor() != n.leftLeaves[0] {
			t.Fatalf("node %d: predecessor is not the closest left leaf", n.ID())
		}
		if len(visits) != want {
			t.Fatalf("node %d: walk visits %d slots, routing state has %d", n.ID(), len(visits), want)
		}
	}
}

func TestDuplicateID(t *testing.T) {
	r := NewRing()
	if _, err := r.AddNode(5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddNode(5, 1); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestAccessors(t *testing.T) {
	r := buildRing(t, []uint64{1, 2, 3})
	if r.Len() != 3 {
		t.Fatalf("accessors wrong: len=%d", r.Len())
	}
	if r.Lookup(2) == nil || r.Lookup(9) != nil {
		t.Fatal("Lookup wrong")
	}
	if len(r.Nodes()) != 3 {
		t.Fatal("Nodes wrong")
	}
	if r.Lookup(1).Addr() != 0 {
		t.Fatal("Addr wrong")
	}
	if r.Lookup(1).String() == "" {
		t.Fatal("String empty")
	}
}
