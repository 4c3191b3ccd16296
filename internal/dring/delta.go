package dring

import (
	"math/bits"

	"flowercdn/internal/bitset"
	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
)

// This file is the incremental-replication seam of the directory index:
// dirty-word tracking plus per-shard export/apply, built on the same
// 64-ref shard grid as the holder matrix's held counts (holders.go). A warm
// standby keeps a replica Directory fresh by applying shard deltas — one
// ShardEntry per member with holdings in the shard, one 64-bit word each —
// instead of re-importing the full index. Apply uses replace semantics
// (the shard's content after ApplyShardDelta equals the primary's at
// export time), so a full sync followed by syncing every dirty shard
// reconstructs ExportEntries exactly; the randomized equivalence property
// test in delta_test.go pins that.

// ShardEntry is one member's holdings within a single 64-ref shard: the
// objects word covering refs [64s, 64s+64) of the site's dense space,
// plus the entry age at export time. Wire accounting charges the interned
// 4 B/ref rate for the refs the word carries.
type ShardEntry struct {
	Node simnet.NodeID
	Age  int32
	Word uint64
}

// EnableDeltaTracking arms dirty-word tracking: from now on every index
// mutation marks the 64-ref shards it touches. Tracking starts clean —
// callers designate a standby by full sync (ExportEntries) and then ship
// only shards dirtied since. Disabled tracking costs one branch per
// mutation and nothing else.
func (d *Directory) EnableDeltaTracking() {
	if d.dirty.Cap() == 0 {
		d.dirty = bitset.New(d.ShardCount())
	} else {
		d.dirty.Reset()
	}
	d.dirtyTrack = true
}

// DisableDeltaTracking stops dirty-word tracking and forgets pending
// dirt (standby revoked or directory departing).
func (d *Directory) DisableDeltaTracking() {
	d.dirtyTrack = false
	if d.dirty.Cap() != 0 {
		d.dirty.Reset()
	}
}

// DeltaTracking reports whether dirty-word tracking is armed.
func (d *Directory) DeltaTracking() bool { return d.dirtyTrack }

// DirtyShardCount returns the number of shards dirtied since they were
// last taken — the replica's staleness in shard units.
func (d *Directory) DirtyShardCount() int {
	if !d.dirtyTrack {
		return 0
	}
	return d.dirty.Count()
}

// TakeDirtyShards appends up to max dirty shard indices to buf in
// ascending order, clearing each taken bit, and returns the extended
// slice. max <= 0 takes everything. Untaken shards stay dirty for the
// next anti-entropy round, which is what bounds per-round sync traffic
// without losing updates.
func (d *Directory) TakeDirtyShards(buf []int32, max int) []int32 {
	if !d.dirtyTrack {
		return buf
	}
	taken := 0
	for s := 0; s < d.dirty.Cap(); s++ {
		if max > 0 && taken >= max {
			break
		}
		if d.dirty.Clear(s) {
			buf = append(buf, int32(s))
			taken++
		}
	}
	return buf
}

// markDirtyLocal marks the shard holding local index i.
func (d *Directory) markDirtyLocal(i int) {
	if d.dirtyTrack {
		d.dirty.Set(i >> shardBits)
	}
}

// markDirtyAll marks every shard (bulk rewrites: ImportEntries).
func (d *Directory) markDirtyAll() {
	if d.dirtyTrack {
		for s := 0; s < d.dirty.Cap(); s++ {
			d.dirty.Set(s)
		}
	}
}

// ExportShard appends shard s's rows — every member with holdings in the
// shard, in slab (admission) order — to buf and returns the extended
// slice. Admission order is deterministic simulation state, so the wire
// content is reproducible without sorting.
func (d *Directory) ExportShard(s int, buf []ShardEntry) []ShardEntry {
	if s < 0 || s >= d.ShardCount() {
		return buf
	}
	for slot, node := range d.nodes {
		if w := d.holders.word(s, slot); w != 0 {
			buf = append(buf, ShardEntry{Node: node, Age: d.ages[slot], Word: w})
		}
	}
	return buf
}

// ApplyShardDelta replaces the replica's shard s with the exported rows:
// named members diff toward their word (admitting unknown members — the
// replica mirrors a primary that already enforced S_co), unnamed members
// lose their shard-s holdings. The holder matrix, its counters and the
// known-object bookkeeping move together, so a promoted replica passes
// AuditConsistency as-is.
func (d *Directory) ApplyShardDelta(s int, entries []ShardEntry) {
	if s < 0 || s >= d.ShardCount() {
		return
	}
	base := s << shardBits
	touched := d.applyScratch[:0]
	for _, e := range entries {
		slot := d.slotFor(e.Node)
		cur := d.holders.word(s, int(slot))
		for add := e.Word &^ cur; add != 0; add &= add - 1 {
			i := base + bits.TrailingZeros64(add)
			if i < d.nObj {
				d.holders.add(i, slot)
				if d.knownObjects.Set(i) {
					d.newSincePublish++
				}
				d.markDirtyLocal(i)
			}
		}
		for del := cur &^ e.Word; del != 0; del &= del - 1 {
			i := base + bits.TrailingZeros64(del)
			d.holders.remove(i, slot)
			d.markDirtyLocal(i)
		}
		d.ages[slot] = e.Age
		touched = append(touched, slot)
	}
	for slot := range d.nodes {
		if slotTouched(touched, int32(slot)) {
			continue
		}
		for w := d.holders.word(s, slot); w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			d.holders.remove(i, int32(slot))
			d.markDirtyLocal(i)
		}
	}
	d.applyScratch = touched
}

func slotTouched(touched []int32, slot int32) bool {
	for _, t := range touched {
		if t == slot {
			return true
		}
	}
	return false
}

// ShardRefCount returns how many refs entry rows for one shard carry —
// the 4 B/ref payload the wire model charges for a delta message.
func ShardRefCount(entries []ShardEntry) int {
	n := 0
	for _, e := range entries {
		n += bits.OnesCount64(e.Word)
	}
	return n
}

// EntriesRefCount is ShardRefCount's full-sync analogue: the total refs a
// snapshot of IndexEntry rows carries.
func EntriesRefCount(entries []IndexEntry) int {
	n := 0
	for i := range entries {
		n += entries[i].Objects.Count()
	}
	return n
}

// local→ref conversion helper for tests and callers that reason in refs.
func (d *Directory) RefAt(i int) model.ObjectRef { return d.base + model.ObjectRef(i) }
