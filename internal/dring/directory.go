package dring

import (
	"cmp"
	"math"
	"slices"

	"flowercdn/internal/bitset"
	"flowercdn/internal/bloom"
	"flowercdn/internal/chord"
	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
)

// IndexEntry is one row of the directory index (§3.3): a content peer, the
// age of the information, and the objects it holds as a bitset over the
// site's dense object space (local indices; see model.Interner). Inside a
// Directory the index lives as parallel slabs (see below); IndexEntry is
// the boxed row used by snapshots (ExportEntries/ImportEntries).
type IndexEntry struct {
	Node    simnet.NodeID
	Age     int
	Objects bitset.Set
}

// Directory is the state of one directory peer d(ws,loc): the complete
// view of its content overlay plus the summaries of its D-ring neighbours.
// It contains no networking; the core system drives it with events and
// messages.
//
// All object state is ref-indexed: the directory serves one website whose
// ObjectsPerSite objects map to dense local indices, so the inverse index
// (object → holders) and the known-object set are flat structures instead
// of string-keyed maps.
//
// The member index is a struct-of-arrays slab — here a loop does scan the
// arrays: nodes/ages/objects are parallel arrays in admission order
// (swap-removed on eviction) and the only map left is the NodeID→slot
// lookup, which a keepalive skips when its caller remembers the slot
// (KeepaliveAt). The periodic dirTick (age every entry, scan for evictions)
// is therefore a linear, pointer-free array sweep instead of a walk over
// map-boxed entries, and it allocates nothing — evicted slots and their
// bitsets are recycled, and their matrix columns are reused in place.
type Directory struct {
	site      model.SiteID
	websiteID uint64
	loc       int
	key       chord.ID

	in   *model.Interner
	base model.ObjectRef // first ref of the site
	nObj int             // objects per site

	maxOverlay int // S_co: directory refuses new members beyond this

	// Member slab: slot is the only pointer-bearing structure; nodes holds
	// the members in admission order (so it doubles as the member list the
	// view-seed sampler draws from), ages and objects are parallel.
	slot    map[simnet.NodeID]int32
	nodes   []simnet.NodeID
	ages    []int32
	objects []bitset.Set

	// freeSets recycles the bitsets of evicted slots so churn (evict +
	// readmit) does not allocate per rejoin.
	freeSets []bitset.Set

	// holders is the inverse index (local object → holder slots), a bit
	// matrix over the slab; see holders.go.
	holders holdersIndex

	neighbors []NeighborSummary // sorted by DirID

	// Directory-summary publication bookkeeping (§4.2.1: delayed
	// propagation on a threshold of new object identifiers).
	summaryThreshold float64
	objectsAtPublish int
	knownObjects     bitset.Set // every local object ever indexed (grow-only per epoch)
	newSincePublish  int
	published        bool

	summaryCapacity int // Bloom sizing: nb-ob

	// neighborScratch backs NeighborsWithObject's result between calls;
	// evictScratch backs EvictOlderThan's, holderScratch Holders'.
	neighborScratch []chord.ID
	evictScratch    []simnet.NodeID
	holderScratch   []simnet.NodeID

	// Standby-replication seam (delta.go): when dirtyTrack is armed, every
	// index mutation marks the 64-ref shard it touches, and the periodic
	// anti-entropy round ships exactly the dirty shards to the standby.
	// Disabled tracking is one branch per mutation.
	dirtyTrack   bool
	dirty        bitset.Set
	applyScratch []int32
}

// NeighborSummary is a directory summary received from another directory
// peer of the same website (§3.3), identified by its D-ring ID.
type NeighborSummary struct {
	DirID    chord.ID
	Locality int
	Filter   *bloom.Filter
}

// NewDirectory creates an empty directory peer state. The interner must
// cover site; it defines the dense object space the index is keyed by.
func NewDirectory(site model.SiteID, websiteID uint64, loc int, key chord.ID,
	maxOverlay int, summaryCapacity int, summaryThreshold float64, in *model.Interner) *Directory {
	si := in.SiteIndex(site)
	if si < 0 {
		panic("dring: site not covered by interner")
	}
	n := in.ObjectsPerSite()
	return &Directory{
		site:             site,
		websiteID:        websiteID,
		loc:              loc,
		key:              key,
		in:               in,
		base:             in.SiteBase(si),
		nObj:             n,
		maxOverlay:       maxOverlay,
		slot:             make(map[simnet.NodeID]int32),
		holders:          newHoldersIndex(n),
		knownObjects:     bitset.New(n),
		summaryThreshold: summaryThreshold,
		summaryCapacity:  summaryCapacity,
	}
}

// Site returns the website this directory serves.
func (d *Directory) Site() model.SiteID { return d.site }

// WebsiteID returns the hashed website identifier.
func (d *Directory) WebsiteID() uint64 { return d.websiteID }

// Locality returns the covered locality.
func (d *Directory) Locality() int { return d.loc }

// Key returns the D-ring identifier.
func (d *Directory) Key() chord.ID { return d.key }

// Size returns the number of indexed content peers.
func (d *Directory) Size() int { return len(d.nodes) }

// Full reports whether the content overlay reached S_co (§6.1: "when a
// content overlay reaches its maximum size, no new clients may join").
func (d *Directory) Full() bool { return d.maxOverlay > 0 && len(d.nodes) >= d.maxOverlay }

// HasPeer reports whether node is indexed.
func (d *Directory) HasPeer(node simnet.NodeID) bool {
	_, ok := d.slot[node]
	return ok
}

// Members returns the indexed content peers in ascending node order.
func (d *Directory) Members() []simnet.NodeID {
	out := slices.Clone(d.nodes)
	slices.Sort(out)
	return out
}

// MemberCount returns the number of indexed content peers (= Size).
func (d *Directory) MemberCount() int { return len(d.nodes) }

// MemberAt returns the i'th member in admission order (positions shift on
// removal): with MemberCount and MemberIndex, the O(1) access the view-seed
// sampler draws from instead of materialising the whole membership.
func (d *Directory) MemberAt(i int) simnet.NodeID { return d.nodes[i] }

// MemberIndex returns node's MemberAt position, -1 when it is not indexed.
func (d *Directory) MemberIndex(node simnet.NodeID) int {
	if s, ok := d.slot[node]; ok {
		return int(s)
	}
	return -1
}

// local maps a ref to the site's dense index. Refs of other sites map
// outside [0, nObj); callers treat them as not-indexed (the string-keyed
// predecessor simply missed on such keys — severe-churn routing can
// deliver a query to a wrong-website directory, so this must stay
// graceful, not panic).
func (d *Directory) local(ref model.ObjectRef) int { return int(ref) - int(d.base) }

// inRange reports whether ref belongs to this directory's site.
func (d *Directory) inRange(ref model.ObjectRef) bool {
	i := d.local(ref)
	return i >= 0 && i < d.nObj
}

// slotFor returns node's slab slot, admitting it at age 0 when absent.
// Freed slots' bitsets are recycled, so readmission after eviction does
// not allocate once the slab has reached its high-water capacity.
func (d *Directory) slotFor(node simnet.NodeID) int32 {
	if s, ok := d.slot[node]; ok {
		return s
	}
	s := int32(len(d.nodes))
	d.slot[node] = s
	d.nodes = append(d.nodes, node)
	d.ages = append(d.ages, 0)
	var set bitset.Set
	if n := len(d.freeSets); n > 0 {
		set = d.freeSets[n-1]
		d.freeSets = d.freeSets[:n-1]
	} else {
		set = bitset.New(d.nObj)
	}
	d.objects = append(d.objects, set)
	return s
}

func (d *Directory) addObject(node simnet.NodeID, ref model.ObjectRef) {
	if !d.inRange(ref) {
		return // foreign-site ref: nothing of ours to index
	}
	i := d.local(ref)
	s := d.slotFor(node)
	if !d.objects[s].Set(i) {
		return // duplicate
	}
	d.holders.add(i, s)
	if d.knownObjects.Set(i) {
		d.newSincePublish++
	}
	d.markDirtyLocal(i)
}

func (d *Directory) dropObject(node simnet.NodeID, ref model.ObjectRef) {
	s, ok := d.slot[node]
	if !ok || !d.inRange(ref) {
		return
	}
	i := d.local(ref)
	if !d.objects[s].Clear(i) {
		return
	}
	d.holders.remove(i, s)
	d.markDirtyLocal(i)
}

// AddOptimistic records a freshly served client with its requested object
// at age zero (§3.4: "dws,loc optimistically adds a new entry in its
// directory index"). It reports whether the peer is (now) a member; false
// means the overlay is full and the client was not admitted.
func (d *Directory) AddOptimistic(node simnet.NodeID, ref model.ObjectRef) bool {
	if _, member := d.slot[node]; !member && d.Full() {
		return false
	}
	d.addObject(node, ref)
	// slotFor rather than the addObject slot: addObject indexes nothing
	// for a foreign-site ref, but the peer itself is still admitted at
	// age 0.
	d.ages[d.slotFor(node)] = 0
	return true
}

// ApplyPush ingests a ∆list push (Algorithm 6): added/removed object refs
// from a content peer, resetting the entry age. Unknown peers are
// admitted if capacity allows (this is how a replacement directory
// rebuilds its index from pushes, §5.2); the return value reports whether
// the push was accepted.
func (d *Directory) ApplyPush(node simnet.NodeID, added, removed []model.ObjectRef) bool {
	if _, member := d.slot[node]; !member && d.Full() {
		return false
	}
	for _, ref := range added {
		d.addObject(node, ref)
	}
	for _, ref := range removed {
		d.dropObject(node, ref)
	}
	d.ages[d.slotFor(node)] = 0
	return true
}

// Keepalive resets a member's age (§5.1); unknown nodes are ignored.
func (d *Directory) Keepalive(node simnet.NodeID) { d.KeepaliveAt(node, -1) }

// KeepaliveAt is Keepalive for a caller that remembers where the member was
// last found: while hint is node's slot the age is reset without touching
// the NodeID→slot map; a stale, out-of-range or foreign hint (swap-removes
// move slots) falls back to it. Returns the slot to remember, -1 if unknown.
func (d *Directory) KeepaliveAt(node simnet.NodeID, hint int32) int32 {
	if uint32(hint) >= uint32(len(d.nodes)) || d.nodes[hint] != node {
		var ok bool
		if hint, ok = d.slot[node]; !ok {
			return -1
		}
	}
	d.ages[hint] = 0
	return hint
}

// RemovePeer drops a member and its holdings (dead peer or redirection
// failure, §5.1): the slab slot is swap-removed with its bitset recycled,
// and the matrix clears exactly the refs the member held and moves the last
// slot's bits into its column.
func (d *Directory) RemovePeer(node simnet.NodeID) {
	s, ok := d.slot[node]
	if !ok {
		return
	}
	last := int32(len(d.nodes) - 1)
	set := d.objects[s]
	d.markDirtyWords(&set)
	d.holders.removeSlot(s, &set, last, &d.objects[last])
	set.Reset()
	d.freeSets = append(d.freeSets, set)

	moved := d.nodes[last]
	d.nodes[s] = moved
	d.ages[s] = d.ages[last]
	d.objects[s] = d.objects[last]
	d.slot[moved] = s
	d.nodes = d.nodes[:last]
	d.ages = d.ages[:last]
	d.objects = d.objects[:last]
	delete(d.slot, node)
}

// TickAges ages every index entry by one period (Algorithm 6's active
// behaviour): one branch-free sweep over the age slab.
func (d *Directory) TickAges() {
	for i := range d.ages {
		d.ages[i]++
	}
}

// EvictOlderThan removes entries whose age reached ageLimit (T_dead) and
// returns them in ascending node order. The returned slice is reusable
// scratch, valid until the next call.
func (d *Directory) EvictOlderThan(ageLimit int) []simnet.NodeID {
	evicted := d.evictScratch[:0]
	if ageLimit <= math.MaxInt32 {
		limit := int32(ageLimit)
		for s, age := range d.ages {
			if age >= limit {
				evicted = append(evicted, d.nodes[s])
			}
		}
	}
	// Ascending node order (eviction sets are small; insertion sort keeps
	// the sweep allocation-free). The order is part of the observable
	// behaviour: removals permute the slab, which the sparse view-seed
	// sampler draws from.
	for i := 1; i < len(evicted); i++ {
		for j := i; j > 0 && evicted[j-1] > evicted[j]; j-- {
			evicted[j-1], evicted[j] = evicted[j], evicted[j-1]
		}
	}
	for _, node := range evicted {
		d.RemovePeer(node)
	}
	d.evictScratch = evicted
	return evicted
}

// Holders returns the indexed peers holding ref, ascending (the caller
// picks one, typically at random, to spread load — §4.1). The returned
// slice is directory-owned scratch: read-only, valid until the next call.
func (d *Directory) Holders(ref model.ObjectRef) []simnet.NodeID {
	if !d.inRange(ref) {
		return nil
	}
	return d.holdersAt(d.local(ref))
}

// holdersAt fills the holder scratch with local ref i's holders, ascending.
func (d *Directory) holdersAt(i int) []simnet.NodeID {
	hs := d.holderScratch[:0]
	d.holders.forEachSlot(i, func(s int) { hs = append(hs, d.nodes[s]) })
	slices.Sort(hs)
	d.holderScratch = hs
	return hs
}

// LowestHolder returns the lowest-numbered holder of ref that ok accepts —
// the one a walk of Holders in ascending order would stop at — found in
// one pass over ref's row without sorting or allocating; false if none.
func (d *Directory) LowestHolder(ref model.ObjectRef, ok func(simnet.NodeID) bool) (simnet.NodeID, bool) {
	var best simnet.NodeID
	found := false
	if d.inRange(ref) {
		d.holders.forEachSlot(d.local(ref), func(s int) {
			if n := d.nodes[s]; (!found || n < best) && ok(n) {
				best, found = n, true
			}
		})
	}
	return best, found
}

// ObjectCount returns the number of distinct objects currently indexed.
func (d *Directory) ObjectCount() int { return d.holders.total }

// ShardCount returns the number of ref-range shards of the inverse index
// (each spans shardSize refs of the site's dense object space).
func (d *Directory) ShardCount() int { return len(d.holders.held) }

// ShardHeld returns how many refs in shard s currently have at least one
// holder. Together with ShardCount it exposes the per-range occupancy a
// future split of a hot website's index across directory instances would
// partition on.
func (d *Directory) ShardHeld(s int) int { return int(d.holders.held[s]) }

// --- Directory summaries (§3.3, §4.2.1) ---------------------------------

// UpdateNeighborSummary stores (or refreshes) the summary received from a
// directory peer of the same website.
func (d *Directory) UpdateNeighborSummary(dirID chord.ID, locality int, filter *bloom.Filter) {
	for i := range d.neighbors {
		if d.neighbors[i].DirID == dirID {
			d.neighbors[i].Locality = locality
			d.neighbors[i].Filter = filter
			return
		}
	}
	d.neighbors = append(d.neighbors, NeighborSummary{DirID: dirID, Locality: locality, Filter: filter})
	slices.SortFunc(d.neighbors, func(a, b NeighborSummary) int { return cmp.Compare(a.DirID, b.DirID) })
}

// RemoveNeighborSummary forgets a neighbour (departed directory).
func (d *Directory) RemoveNeighborSummary(dirID chord.ID) {
	out := d.neighbors[:0]
	for _, ns := range d.neighbors {
		if ns.DirID != dirID {
			out = append(out, ns)
		}
	}
	d.neighbors = out
}

// NeighborSummaries returns the stored summaries (sorted by directory ID),
// in place: read them before the next summary update or removal.
func (d *Directory) NeighborSummaries() []NeighborSummary { return d.neighbors }

// NeighborsWithObject returns the directory IDs whose summary tests
// positive for ref (Algorithm 3's directory-summaries lookup), in
// ascending ID order. Probes use the ref's precomputed hashes; the
// returned slice is reusable scratch, valid until the next call.
func (d *Directory) NeighborsWithObject(ref model.ObjectRef) []chord.ID {
	h1, h2 := d.in.Hashes(ref)
	out := d.neighborScratch[:0]
	for _, ns := range d.neighbors {
		if ns.Filter != nil && ns.Filter.TestHash(h1, h2) {
			out = append(out, ns.DirID)
		}
	}
	d.neighborScratch = out
	return out
}

// BuildSummary produces the Bloom summary of the directory index (the
// summary sent to neighbouring directory peers), probing precomputed
// hashes in ascending canonical order. Empty ref-range shards are skipped
// wholesale.
func (d *Directory) BuildSummary() *bloom.Filter {
	f := bloom.NewForCapacity(d.summaryCapacity)
	d.holders.forEachHeld(func(i int) {
		h1, h2 := d.in.Hashes(d.base + model.ObjectRef(i))
		f.AddHash(h1, h2)
	})
	return f
}

// ShouldPublishSummary implements the delayed propagation rule of §4.2.1:
// publish when the fraction of object identifiers not yet reflected in the
// last published summary reaches the threshold (or on the first objects).
func (d *Directory) ShouldPublishSummary() bool {
	if d.knownObjects.Count() == 0 {
		return false
	}
	if !d.published {
		return true
	}
	base := d.objectsAtPublish
	if base < 1 {
		base = 1
	}
	return float64(d.newSincePublish)/float64(base) >= d.summaryThreshold
}

// MarkSummaryPublished resets the publication counters.
func (d *Directory) MarkSummaryPublished() {
	d.published = true
	d.objectsAtPublish = d.knownObjects.Count()
	d.newSincePublish = 0
}

// --- Directory transfer (§5.2 voluntary leave) --------------------------

// ExportEntries snapshots the index for transfer to a replacement
// directory peer, in ascending node order. The rows own deep copies of
// the holdings bitsets, so the snapshot stays valid across later slab
// mutations.
func (d *Directory) ExportEntries() []IndexEntry {
	out := make([]IndexEntry, 0, len(d.nodes))
	for _, node := range d.Members() {
		s := d.slot[node]
		out = append(out, IndexEntry{Node: node, Age: int(d.ages[s]), Objects: d.objects[s].Clone()})
	}
	return out
}

// ImportEntries loads a transferred index (replacing any current content).
func (d *Directory) ImportEntries(entries []IndexEntry) {
	d.markDirtyAll()
	for s := range d.objects {
		d.objects[s].Reset()
		d.freeSets = append(d.freeSets, d.objects[s])
	}
	d.slot = make(map[simnet.NodeID]int32, len(entries))
	d.nodes = d.nodes[:0]
	d.ages = d.ages[:0]
	d.objects = d.objects[:0]
	d.holders.reset()
	for _, e := range entries {
		node := e.Node
		e.Objects.ForEach(func(i int) {
			d.addObject(node, d.base+model.ObjectRef(i))
		})
		d.ages[d.slotFor(node)] = int32(e.Age)
	}
}
