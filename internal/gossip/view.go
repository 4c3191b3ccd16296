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
package gossip

import (
	"math/rand"

	"flowercdn/internal/bloom"
	"flowercdn/internal/simnet"
)

// Entry is one view slot: a contact plus the age of the information and
// the contact's last known content summary (§4.2: address, age, summary).
// Summaries are treated as immutable snapshots; owners publish a fresh
// filter rather than mutating a shared one.
type Entry struct {
	Node    simnet.NodeID
	Age     int
	Summary *bloom.Filter
}

// entryHdrBytes is an entry's serialized address (6 B) and age (2 B).
const entryHdrBytes = 6 + 2

// WireBytes models the serialized entry size for traffic accounting:
// address and age + the summary bit-array.
func (e Entry) WireBytes() int {
	n := entryHdrBytes
	if e.Summary != nil {
		n += e.Summary.SizeBytes()
	}
	return n
}

// WireBytes is the sum of Entry.WireBytes over entries when every summary
// is summaryBytes long — an overlay's summaries share one shape — so sizing
// a message does not load one cold filter header per entry.
func WireBytes(entries []Entry, summaryBytes int) int {
	n := entryHdrBytes * len(entries)
	for i := range entries {
		if entries[i].Summary != nil {
			n += summaryBytes
		}
	}
	return n
}

// View is a bounded set of entries about distinct peers, owned by one peer
// (the owner never appears in its own view).
//
// The per-round operations stop allocating once their storage exists: Merge
// works in place on the entries array, which is sized once with room for a
// received subset past the capacity, and SelectSubset's partial shuffle
// runs over a stack buffer (views past 64 entries keep one of their own).
type View struct {
	owner    simnet.NodeID
	capacity int
	entries  []Entry // kept sorted by (Age, Node) — "most recent" first

	idx     []int32         // SelectSubset's index buffer, views past 64 entries only
	match   []simnet.NodeID // MatchingSummaries' reusable result buffer
	evicted []simnet.NodeID // DropOlderThan's reusable result buffer
}

// MakeView returns an empty view with the given capacity (V_gossip), for
// owners that embed their view by value.
func MakeView(owner simnet.NodeID, capacity int) View {
	if capacity <= 0 {
		capacity = 1
	}
	return View{owner: owner, capacity: capacity}
}

// NewView is MakeView on the heap.
func NewView(owner simnet.NodeID, capacity int) *View {
	v := MakeView(owner, capacity)
	return &v
}

// Owner returns the peer owning this view.
func (v *View) Owner() simnet.NodeID { return v.owner }

// Capacity returns V_gossip.
func (v *View) Capacity() int { return v.capacity }

// Len returns the number of entries.
func (v *View) Len() int { return len(v.entries) }

// Entries returns a copy of the entries (most recent first).
func (v *View) Entries() []Entry {
	out := make([]Entry, len(v.entries))
	copy(out, v.entries)
	return out
}

// Get returns the entry for node, if present.
func (v *View) Get(node simnet.NodeID) (Entry, bool) {
	for _, e := range v.entries {
		if e.Node == node {
			return e, true
		}
	}
	return Entry{}, false
}

// Contains reports whether node is in the view.
func (v *View) Contains(node simnet.NodeID) bool {
	_, ok := v.Get(node)
	return ok
}

// sortByAgeNode is an insertion sort by (Age, Node). Views are small
// (bounded by V_gossip, tens of entries), where insertion sort beats the
// generic sort and — unlike sort.Slice, whose reflect.Swapper allocates —
// costs nothing on the heap. The key is a total order (nodes are distinct
// after dedup), so the result is deterministic.
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

func (v *View) sortEntries() { sortByAgeNode(v.entries) }

// IncrementAges ages every entry by one gossip period (§4.2: "periodically,
// cws,loc increments by 1 the age of all its view entries").
func (v *View) IncrementAges() {
	for i := range v.entries {
		v.entries[i].Age++
	}
}

// SelectOldest returns the entry with the highest age (ties broken by the
// lowest node ID for determinism), as gossip target selection requires.
func (v *View) SelectOldest() (Entry, bool) {
	if len(v.entries) == 0 {
		return Entry{}, false
	}
	best := v.entries[0]
	for _, e := range v.entries[1:] {
		if e.Age > best.Age || (e.Age == best.Age && e.Node < best.Node) {
			best = e
		}
	}
	return best, true
}

// SelectSubset returns up to l random distinct entries (the view subset of
// length L_gossip exchanged each round) in a fresh slice. It is
// SelectSubsetAppend without a reuse buffer; callers on the gossip hot
// path (whose subset escapes into an outgoing message they later get
// back) pool their buffers through the append variant instead.
func (v *View) SelectSubset(rng *rand.Rand, l int) []Entry {
	if l <= 0 || len(v.entries) == 0 {
		return nil
	}
	return v.SelectSubsetAppend(rng, l, nil)
}

// SelectSubsetAppend appends up to l random distinct entries to dst and
// returns the extended slice (allocation-free once dst has capacity).
// Selection is a partial Fisher–Yates over a reusable index buffer — l
// draws from rng instead of rng.Perm's n fresh ints — and draws exactly
// the same rng sequence as SelectSubset for any given view.
func (v *View) SelectSubsetAppend(rng *rand.Rand, l int, dst []Entry) []Entry {
	if l <= 0 || len(v.entries) == 0 {
		return dst
	}
	n := len(v.entries)
	want := l
	if want > n {
		want = n
	}
	// One right-sized growth when dst is short (e.g. nil from the
	// compatibility wrapper) instead of append's doubling crawl.
	if cap(dst)-len(dst) < want {
		grown := make([]Entry, len(dst), len(dst)+want)
		copy(grown, dst)
		dst = grown
	}
	if l >= n {
		return append(dst, v.entries...)
	}
	// The index buffer is stack storage for all but outsized views, which
	// keep one sized once to the capacity (n never exceeds it).
	var small [64]int32
	idx := small[:]
	if n > len(small) {
		if cap(v.idx) < n {
			v.idx = make([]int32, v.capacity)
		}
		idx = v.idx
	}
	idx = idx[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := 0; i < l; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	sel := idx[:l]
	// Deterministic output order: ascending view position (insertion sort;
	// sort.Ints on a converted []int would allocate).
	for i := 1; i < len(sel); i++ {
		x := sel[i]
		j := i - 1
		for j >= 0 && sel[j] > x {
			sel[j+1] = sel[j]
			j--
		}
		sel[j+1] = x
	}
	for _, i := range sel {
		dst = append(dst, v.entries[i])
	}
	return dst
}

// Insert adds or refreshes a single entry, keeping the freshest instance,
// then truncates to capacity (a one-entry Merge).
func (v *View) Insert(e Entry) {
	v.Merge(nil, e)
}

// Merge implements merge() + select_recent() from Algorithm 4: combine the
// current entries with the received ones and then the extra ones (a gossip
// partner's own entry rides there, so callers need not assemble one slice),
// discard duplicates keeping the smallest age (refreshing the summary from
// the fresher instance), drop the owner, and keep the capacity most-recent
// entries.
//
// The combined set is built in place, in the spare room the entries array
// keeps past the capacity, and duplicates are found by linear scan — views
// are tens of entries, where the scan beats a throwaway map and, unlike the
// map, allocates nothing.
func (v *View) Merge(received []Entry, extra ...Entry) {
	s := v.entries
	if in := len(received) + len(extra); cap(s) < len(s)+in {
		// One right-sized array (entries never exceed capacity) instead of
		// append's doubling crawl.
		s = make([]Entry, len(s), v.capacity+in)
		copy(s, v.entries)
	}
	s = v.mergeInto(s, received)
	s = v.mergeInto(s, extra)
	sortByAgeNode(s)
	if len(s) > v.capacity {
		clear(s[v.capacity:]) // truncated entries must not pin their summaries
		s = s[:v.capacity]
	}
	v.entries = s
}

// mergeInto folds in into s, which has room for all of it. The entries
// already in s are deduped and owner-free (invariant).
func (v *View) mergeInto(s, in []Entry) []Entry {
	for _, e := range in {
		if e.Node == v.owner {
			continue
		}
		found := false
		for i := range s {
			if s[i].Node != e.Node {
				continue
			}
			found = true
			if e.Age < s[i].Age {
				// Never lose a known summary to a fresher entry that lacks one.
				if e.Summary == nil && s[i].Summary != nil {
					e.Summary = s[i].Summary
				}
				s[i] = e
			} else if s[i].Summary == nil && e.Summary != nil {
				s[i].Summary = e.Summary
			}
			break
		}
		if !found {
			s = append(s, e)
		}
	}
	return s
}

// Remove deletes the entry for node (dead peer, per §5.1/§5.4).
func (v *View) Remove(node simnet.NodeID) {
	out := v.entries[:0]
	for _, e := range v.entries {
		if e.Node != node {
			out = append(out, e)
		}
	}
	clear(v.entries[len(out):]) // the vacated tail must not pin summaries
	v.entries = out
}

// DropOlderThan evicts entries whose age reached the limit (T_dead); it
// returns the evicted nodes. The returned slice is the view's reusable
// scratch buffer: it is valid until the next call and must not be retained
// (copy it to keep it), like MatchingSummaries' result.
func (v *View) DropOlderThan(ageLimit int) []simnet.NodeID {
	evicted := v.evicted[:0]
	out := v.entries[:0]
	for _, e := range v.entries {
		if e.Age >= ageLimit {
			evicted = append(evicted, e.Node)
			continue
		}
		out = append(out, e)
	}
	clear(v.entries[len(out):]) // the vacated tail must not pin summaries
	v.entries = out
	v.evicted = evicted
	return evicted
}

// Refresh sets node's age to zero and updates its summary, inserting the
// entry if absent.
func (v *View) Refresh(node simnet.NodeID, summary *bloom.Filter) {
	for i := range v.entries {
		if v.entries[i].Node == node {
			v.entries[i].Age = 0
			if summary != nil {
				v.entries[i].Summary = summary
			}
			v.sortEntries()
			return
		}
	}
	v.Insert(Entry{Node: node, Age: 0, Summary: summary})
}

// MatchingSummaries returns the nodes whose summary tests positive for
// the key with precomputed hash pair (h1, h2) — see bloom.HashKey —
// freshest entries first: the candidate set for a content-overlay lookup
// (§4.1). The probes do zero hashing and the returned slice is the view's
// reusable scratch buffer: it is valid until the next call and must not
// be retained (copy it to keep it).
func (v *View) MatchingSummaries(h1, h2 uint64) []simnet.NodeID {
	out := v.match[:0]
	for _, e := range v.entries {
		if e.Summary != nil && e.Summary.TestHash(h1, h2) {
			out = append(out, e.Node)
		}
	}
	v.match = out
	return out
}
