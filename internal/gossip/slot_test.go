package gossip

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"flowercdn/internal/bloom"
	"flowercdn/internal/simnet"
)

// A view's resident cost is its slots: one key word and the summary pointer.
func TestViewSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 16 {
		t.Fatalf("view slot is %d bytes, want 16", got)
	}
}

// sortByAgeNode is the order a view keeps, said over the exchange form: the
// reference the one-word key compare stands for.
func sortByAgeNode(es []Entry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && (es[j].Age > e.Age || (es[j].Age == e.Age && es[j].Node > e.Node)) {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}

// TestSlotPackUnpack drives Insert and Merge with entries drawn from the
// whole packable range — ages to 2³¹−1, nodes to 2³²−1, the corners
// included — and few enough distinct ages that ties are common: Entries()
// must hand back exactly what went in, in sortByAgeNode's order, and
// SelectOldest must pick the highest age's lowest node.
func TestSlotPackUnpack(t *testing.T) {
	ages := []int{0, 1, 2, 1 << 16, math.MaxInt32 - 1, math.MaxInt32}
	sums := []*bloom.Filter{nil, bloom.New(64, 2), bloom.New(64, 2)}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const owner = math.MaxUint32 - 7
		n := 1 + rng.Intn(24)
		want := make([]Entry, 0, n)
		seen := map[simnet.NodeID]bool{owner: true}
		for len(want) < n {
			node := simnet.NodeID(rng.Int63n(1 << 32))
			switch rng.Intn(8) {
			case 0:
				node = 0
			case 1:
				node = math.MaxUint32
			}
			if seen[node] {
				continue
			}
			seen[node] = true
			want = append(want, Entry{Node: node, Age: ages[rng.Intn(len(ages))], Summary: sums[rng.Intn(len(sums))]})
		}
		v := NewView(owner, n)
		half := len(want) / 2
		for _, e := range want[:half] {
			v.Insert(e)
		}
		v.Merge(want[half:], Entry{Node: owner, Age: 0})
		if err := v.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sortByAgeNode(want)
		got := v.Entries()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d entries, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: entry %d is %+v, want %+v", seed, i, got[i], want[i])
			}
		}
		oldest := want[len(want)-1]
		for _, e := range want {
			if e.Age == oldest.Age && e.Node < oldest.Node {
				oldest = e
			}
		}
		if e, ok := v.SelectOldest(); !ok || e != oldest {
			t.Fatalf("seed %d: SelectOldest = %+v, want %+v", seed, e, oldest)
		}
	}
}

// An entry that does not fit a slot would alias another contact's key: the
// view refuses it loudly, and an owner it could never tell from a contact.
func TestSlotRangePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	v := NewView(0, 4)
	mustPanic("node 2^32", func() { v.Insert(Entry{Node: 1 << 32}) })
	mustPanic("negative node", func() { v.Insert(Entry{Node: -1}) })
	mustPanic("age 2^31", func() { v.Merge([]Entry{{Node: 1, Age: 1 << 31}}) })
	mustPanic("negative age", func() { v.Merge(nil, Entry{Node: 1, Age: -1}) })
	mustPanic("owner 2^32", func() { NewView(1<<32, 4) })
	if v.Len() != 0 {
		t.Fatalf("a refused entry left %d slots behind", v.Len())
	}
}

// Check is the auditor's only look at a view, so each invariant it names
// must trip on a view that breaks exactly that one.
func TestCheckCatchesCorruption(t *testing.T) {
	fill := func() *View {
		v := NewView(9, 4)
		v.Merge([]Entry{{Node: 1, Age: 0}, {Node: 2, Age: 1}, {Node: 3, Age: 1, Summary: bloom.New(64, 2)}})
		return v
	}
	if err := fill().Check(); err != nil {
		t.Fatalf("sound view: %v", err)
	}
	for name, corrupt := range map[string]func(v *View){
		"over capacity": func(v *View) { v.capacity = 2 },
		"owner present": func(v *View) { v.slots[2] = pack(Entry{Node: 9, Age: 1}) },
		"duplicate":     func(v *View) { v.slots[2] = pack(Entry{Node: 2, Age: 2}) },
		"out of order":  func(v *View) { v.slots[0], v.slots[1] = v.slots[1], v.slots[0] },
		"pinned tail":   func(v *View) { v.slots = v.slots[:2] },
	} {
		v := fill()
		corrupt(v)
		if v.Check() == nil {
			t.Errorf("%s: Check found nothing", name)
		}
	}
}
