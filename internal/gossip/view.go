// Package gossip implements the membership-view machinery behind the
// content-overlay gossip protocol (Algorithm 4 in the paper), in the style
// of Cyclon and the peer-sampling service (references [21] and [10]): a
// bounded partial view of (peer, age, content-summary) entries, with the
// select-oldest / select-subset / merge / select-recent operations the
// algorithm composes each round.
//
// The package is pure data structure — protocol timing and message
// exchange live in internal/overlay — which keeps these invariants easy to
// property-test: a view never contains its owner, never holds duplicate
// peers, never exceeds its capacity, and merging always keeps the
// freshest instance of every entry.
//
// Entry is the exchange form: what messages, seeds and Entries() carry. At
// rest a contact is a 16-byte slot, packed and unpacked at the view's edge.
package gossip

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"flowercdn/internal/bloom"
	"flowercdn/internal/simnet"
)

// Entry is one view contact: its address, the age of the information and
// its last known content summary (§4.2: address, age, summary): a Bloom
// filter, or the answer set an overlay publishes for one (see
// bloom.NewAnswers). Summaries are treated as immutable snapshots; owners
// publish a fresh one rather than mutating a shared one.
type Entry struct {
	Node    simnet.NodeID
	Age     int
	Summary *bloom.Filter
}

// entryHdrBytes is an entry's serialized address (6 B) and age (2 B).
const entryHdrBytes = 6 + 2

// WireBytes models the serialized size of entries for traffic accounting:
// address and age, plus summaryBytes — the overlay's one summary size — per
// entry with a summary. The size is counted without loading any filter.
func WireBytes(entries []Entry, summaryBytes int) int {
	n := entryHdrBytes * len(entries)
	for i := range entries {
		if entries[i].Summary != nil {
			n += summaryBytes
		}
	}
	return n
}

// slot is an entry at rest. The key is age<<32 | node: the (Age, Node) order
// every operation keeps is one integer compare, ageing a slot one add.
type slot struct {
	key uint64
	sum *bloom.Filter
}

// pack builds e's slot. A node outside [0, 2³²) or an age outside [0, 2³¹)
// would alias another contact's key, so either panics; the age bound is half
// the field, which leaves IncrementAges 2³¹ periods before a carry-out.
func pack(e Entry) slot {
	if uint64(e.Node) >= 1<<32 || uint64(e.Age) >= 1<<31 {
		panic("gossip: entry's node or age does not fit a view slot")
	}
	return slot{key: uint64(e.Age)<<32 | uint64(e.Node), sum: e.Summary}
}

func (s slot) node() simnet.NodeID { return simnet.NodeID(uint32(s.key)) }

func (s slot) entry() Entry {
	return Entry{Node: s.node(), Age: int(s.key >> 32), Summary: s.sum}
}

// View is a bounded set of entries about distinct peers, owned by one peer
// (the owner never appears in its own view).
//
// The per-round operations stop allocating once the slot array exists: Merge
// works in place on it (it is sized once, with room for a received subset
// past the capacity) and SelectSubsetAppend shuffles on the stack. A slot
// holds a reference to its summary, which it passes to a sink when dropped.
type View struct {
	owner    uint32
	capacity int32
	slots    []slot // kept sorted by key — "most recent" first
}

// MakeView returns an empty view with the given capacity (V_gossip), for
// owners that embed their view by value. The owner must fit a slot's node.
func MakeView(owner simnet.NodeID, capacity int) View {
	if uint64(owner) >= 1<<32 || capacity > math.MaxInt32 {
		panic("gossip: view owner or capacity out of range")
	}
	return View{owner: uint32(owner), capacity: int32(max(capacity, 1))}
}

// NewView is MakeView on the heap.
func NewView(owner simnet.NodeID, capacity int) *View {
	v := MakeView(owner, capacity)
	return &v
}

// release is a sink that recycles nothing (any sink also gets slots' nil summaries).
func release(f *bloom.Filter) { f.Release() }

// Owner returns the peer owning this view.
func (v *View) Owner() simnet.NodeID { return simnet.NodeID(v.owner) }

// Capacity returns V_gossip.
func (v *View) Capacity() int { return int(v.capacity) }

// Len returns the number of entries.
func (v *View) Len() int { return len(v.slots) }

// Entries returns a copy of the entries (most recent first).
func (v *View) Entries() []Entry {
	out := make([]Entry, len(v.slots))
	for i, s := range v.slots {
		out[i] = s.entry()
	}
	return out
}

// find returns the position of node's slot, -1 when absent.
func (v *View) find(node simnet.NodeID) int {
	for i, s := range v.slots {
		if s.node() == node {
			return i
		}
	}
	return -1
}

// Get returns the entry for node, if present.
func (v *View) Get(node simnet.NodeID) (Entry, bool) {
	if i := v.find(node); i >= 0 {
		return v.slots[i].entry(), true
	}
	return Entry{}, false
}

// Contains reports whether node is in the view.
func (v *View) Contains(node simnet.NodeID) bool { return v.find(node) >= 0 }

// sortSlots is an insertion sort by key. Views are small (bounded by
// V_gossip, tens of entries), where insertion sort beats the generic sort
// and — unlike sort.Slice, whose reflect.Swapper allocates — costs nothing
// on the heap. The key is a total order (nodes are distinct after dedup), so
// the result is deterministic.
func sortSlots(ss []slot) {
	for i := 1; i < len(ss); i++ {
		s := ss[i]
		j := i - 1
		for j >= 0 && ss[j].key > s.key {
			ss[j+1] = ss[j]
			j--
		}
		ss[j+1] = s
	}
}

// IncrementAges ages every entry by one gossip period (§4.2: "periodically,
// cws,loc increments by 1 the age of all its view entries").
func (v *View) IncrementAges() {
	for i := range v.slots {
		v.slots[i].key += 1 << 32
	}
}

// SelectOldest returns the entry with the highest age (ties broken by the
// lowest node ID for determinism), as gossip target selection requires.
func (v *View) SelectOldest() (Entry, bool) {
	i := len(v.slots) - 1
	if i < 0 {
		return Entry{}, false
	}
	// Slots ascend by (age, node): the oldest age's run ends the array and
	// its lowest node starts the run.
	for i > 0 && v.slots[i-1].key>>32 == v.slots[i].key>>32 {
		i--
	}
	return v.slots[i].entry(), true
}

// SelectSubsetAppend appends up to l random distinct entries — the view
// subset of length L_gossip exchanged each round — to dst (nil for a fresh
// slice) and returns the extended slice; callers whose subset escapes into a
// message they later get back pool dst and select without allocating.
func (v *View) SelectSubsetAppend(rng *rand.Rand, l int, dst []Entry) []Entry {
	var buf [SampleStack]int32
	pos := SamplePositions(rng, len(v.slots), l, buf[:0])
	dst = slices.Grow(dst, len(pos))
	for _, i := range pos {
		dst = append(dst, v.slots[i].entry())
	}
	return dst
}

// SampleStack is how many positions SamplePositions draws without a heap
// buffer, and the stack array its callers collect them in.
const SampleStack = 64

// SamplePositions appends min(l, n) distinct positions of [0, n), drawn
// uniformly without replacement, to dst in ascending order and returns the
// extended slice. The draw is the first l steps of a Fisher–Yates shuffle of
// 0..n-1: l draws from rng instead of rng.Perm's n, and none when l >= n
// takes every position. It allocates only past SampleStack positions or
// when dst lacks room.
func SamplePositions(rng *rand.Rand, n, l int, dst []int32) []int32 {
	if l <= 0 || n <= 0 {
		return dst
	}
	if l >= n {
		for i := range n {
			dst = append(dst, int32(i))
		}
		return dst
	}
	// The position array is not materialised past a dense prefix — the l
	// positions drawn into and, stack room allowing, all n. Beyond it a
	// position holds itself unless a swap displaced it: at[k] then holds
	// val[k]. Each step displaces at most one, so l of those suffice.
	var small [3 * SampleStack]int32
	buf := small[:]
	if l > SampleStack {
		buf = make([]int32, 3*l)
	}
	d := len(buf) / 3
	pre, at, val := buf[:min(n, d)], buf[d:d:2*d], buf[2*d:2*d:3*d]
	for i := range pre {
		pre[i] = int32(i)
	}
	sel := pre[:l]
	for i := range sel {
		j := int32(i + rng.Intn(n-i))
		if int(j) < len(pre) {
			pre[i], pre[j] = pre[j], pre[i]
			continue
		}
		k := 0
		for k < len(at) && at[k] != j {
			k++
		}
		if k == len(at) {
			at, val = append(at, j), append(val, j)
		}
		pre[i], val[k] = val[k], pre[i]
	}
	slices.Sort(sel) // deterministic output order: ascending position
	return append(dst, sel...)
}

// Insert adds or refreshes a single entry, keeping the freshest instance,
// then truncates to capacity (a one-entry Merge).
func (v *View) Insert(e Entry) { v.Merge(nil, e) }

// Merge is MergeWith a sink that recycles nothing.
func (v *View) Merge(received []Entry, extra ...Entry) { v.MergeWith(release, received, extra...) }

// MergeWith implements merge() + select_recent() from Algorithm 4: combine
// the current entries with the received ones and then the extra ones (a
// gossip partner's own entry rides there, so callers need not assemble one
// slice), discard duplicates keeping the smallest age (refreshing the summary
// from the fresher instance), drop the owner, and keep the capacity
// most-recent entries. Slots retain what they take up, and sink gets the rest.
//
// The combined set is built in place, in the spare room the slot array
// keeps past the capacity, and duplicates are found by linear scan — views
// are tens of entries, where the scan beats a throwaway map and, unlike the
// map, allocates nothing.
func (v *View) MergeWith(sink func(*bloom.Filter), received []Entry, extra ...Entry) {
	s := v.slots
	if in := len(received) + len(extra); cap(s) < len(s)+in {
		// One right-sized array (entries never exceed capacity) instead of
		// append's doubling crawl.
		s = make([]slot, len(s), v.Capacity()+in)
		copy(s, v.slots)
	}
	s = v.mergeInto(sink, s, received)
	s = v.mergeInto(sink, s, extra)
	sortSlots(s)
	if c := v.Capacity(); len(s) > c {
		for _, x := range s[c:] {
			sink(x.sum)
		}
		clear(s[c:]) // truncated entries must not pin their summaries
		s = s[:c]
	}
	v.slots = s
}

// mergeInto folds in into s, which has room for all of it. The slots
// already in s are deduped and owner-free (invariant).
func (v *View) mergeInto(sink func(*bloom.Filter), s []slot, in []Entry) []slot {
fold:
	for _, e := range in {
		if e.Node == v.Owner() {
			continue
		}
		p := pack(e)
		for i, x := range s { // by value: the compiler walks a pointer, not a scaled index
			if uint32(x.key) != uint32(p.key) {
				continue
			}
			if p.key < x.key { // same node: the fresher age
				// Never lose a known summary to a fresher entry that lacks one.
				if p.sum == nil {
					p.sum = x.sum
				} else if p.sum != x.sum {
					p.sum.Retain()
					sink(x.sum)
				}
				s[i] = p
			} else if x.sum == nil {
				p.sum.Retain()
				s[i].sum = p.sum
			}
			continue fold
		}
		p.sum.Retain()
		s = append(s, p)
	}
	return s
}

// Remove deletes the entry for node (dead peer, per §5.1/§5.4) into sink.
func (v *View) Remove(sink func(*bloom.Filter), node simnet.NodeID) {
	if i := v.find(node); i >= 0 {
		sink(v.slots[i].sum)
		v.slots = slices.Delete(v.slots, i, i+1) // zeroes the vacated slot: no pinned summary
	}
}

// DropOlderThan evicts entries whose age reached the limit (T_dead) into sink
// and reports how many went. Slots ascend by age, so they are the array's tail.
func (v *View) DropOlderThan(sink func(*bloom.Filter), ageLimit int) int {
	n := len(v.slots)
	kept := n
	for kept > 0 && int(v.slots[kept-1].key>>32) >= ageLimit {
		kept--
		sink(v.slots[kept].sum)
	}
	clear(v.slots[kept:]) // the vacated tail must not pin summaries
	v.slots = v.slots[:kept]
	return n - kept
}

// Refresh sets node's age to zero and updates its summary, inserting the
// entry if absent.
func (v *View) Refresh(node simnet.NodeID, summary *bloom.Filter) {
	if i := v.find(node); i >= 0 {
		v.slots[i].key += 1 << 32 // older than age 0: the Insert replaces the slot
	}
	v.Insert(Entry{Node: node, Age: 0, Summary: summary})
}

// AppendMatching appends to dst the nodes whose summary tests positive for
// the key at position i of the answer sets' list with precomputed hash pair
// (h1, h2) — see bloom.HashKey — freshest entries first: the candidate set
// for a content-overlay lookup (§4.1). An answer set (no hash functions) is
// read at i, a Bloom filter probed with (h1, h2). No hashing, and no
// allocation once dst has room for Len() nodes.
func (v *View) AppendMatching(dst []simnet.NodeID, i int, h1, h2 uint64) []simnet.NodeID {
	for _, s := range v.slots {
		f := s.sum
		if f == nil {
			continue
		}
		if f.Hashes() == 0 {
			if !f.Answer(i) {
				continue
			}
		} else if !f.TestHash(h1, h2) {
			continue
		}
		dst = append(dst, s.node())
	}
	return dst
}

// MatchingSummaries is AppendMatching into a fresh slice for a key on no
// answer set's list: only Bloom filters can test positive for it.
func (v *View) MatchingSummaries(h1, h2 uint64) []simnet.NodeID {
	return v.AppendMatching(nil, -1, h1, h2)
}

// Check returns the first structural invariant the view breaks, nil when all
// hold: no more entries than the capacity, the owner absent, nodes distinct,
// slots in key order, every summary held, and the array past Len() zeroed (a
// dropped entry must not pin its summary). It is the core auditor's look.
func (v *View) Check() error {
	all := v.slots[:cap(v.slots)]
	for i, s := range all {
		switch {
		case i >= len(v.slots):
			if s != (slot{}) {
				return fmt.Errorf("vacated slot %d still holds node %d", i, s.node())
			}
		case i >= v.Capacity():
			return fmt.Errorf("%d entries exceed capacity %d", len(v.slots), v.capacity)
		case s.node() == v.Owner():
			return fmt.Errorf("slot %d holds the owner", i)
		case s.sum != nil && s.sum.Refs() == 0:
			return fmt.Errorf("slot %d's summary has no holder: used after release", i)
		case v.find(s.node()) != i:
			return fmt.Errorf("node %d held twice", s.node())
		case i > 0 && all[i-1].key > s.key:
			return fmt.Errorf("slot %d out of (age, node) order", i)
		}
	}
	return nil
}
