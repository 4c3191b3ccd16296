package dring

import (
	"math/bits"

	"flowercdn/internal/bitset"
	"flowercdn/internal/simnet"
)

// The inverse index (local object → holders) is sharded by ref range:
// each shard owns a contiguous, bitset-word-aligned range of the site's
// dense object space and tracks how many of its refs currently have at
// least one holder. Sharding buys two things the flat [][]NodeID table
// could not:
//
//   - Removing an evicted peer walks its holdings word-by-word and only
//     touches the shards those words land in — O(held objects), never
//     O(nObj) — and whole-index sweeps (summary rebuilds, range scans)
//     skip empty shards in one comparison.
//   - A shard is a self-contained slice of the index for a ref range, so
//     a hot website's directory can later be split across instances along
//     shard boundaries without the §5.3 key-space split.
//
// A shard's list table is made at its first add — a run has a directory per
// website and locality and a handful of active websites, and a directory
// that indexes nothing should hold nothing; readers take nil as all-empty.

// shardBits sizes a shard at 64 refs: exactly one bitset word, so a
// member's holdings map 1:1 onto shards and the word walk *is* the shard
// walk.
const shardBits = 6

// shardSize is the number of local refs per shard.
const shardSize = 1 << shardBits

// holdersShard is one ref-range shard: per-ref holder lists (sorted
// ascending by node; nil until the first add) and the count of refs held.
type holdersShard struct {
	lists [][]simnet.NodeID
	held  int
}

// holdersIndex is the sharded inverse index over [0, nObj) local refs.
type holdersIndex struct {
	nObj   int
	total  int // refs with ≥1 holder, across all shards
	shards []holdersShard
}

func newHoldersIndex(nObj int) holdersIndex {
	nShards := (nObj + shardSize - 1) / shardSize
	return holdersIndex{nObj: nObj, shards: make([]holdersShard, nShards)}
}

// listAt returns the holder list for local ref i (read-only view).
func (h *holdersIndex) listAt(i int) []simnet.NodeID {
	if lists := h.shards[i>>shardBits].lists; lists != nil {
		return lists[i&(shardSize-1)]
	}
	return nil
}

// add inserts node into ref i's holder list, keeping ascending node order
// (holder lists are small).
func (h *holdersIndex) add(i int, node simnet.NodeID) {
	sh := &h.shards[i>>shardBits]
	if sh.lists == nil {
		lo := i &^ (shardSize - 1)
		sh.lists = make([][]simnet.NodeID, min(shardSize, h.nObj-lo))
	}
	hs := sh.lists[i&(shardSize-1)]
	if len(hs) == 0 {
		sh.held++
		h.total++
	}
	pos := len(hs)
	for pos > 0 && hs[pos-1] > node {
		pos--
	}
	hs = append(hs, 0)
	copy(hs[pos+1:], hs[pos:])
	hs[pos] = node
	sh.lists[i&(shardSize-1)] = hs
}

// remove deletes node from ref i's holder list (no-op when absent).
func (h *holdersIndex) remove(i int, node simnet.NodeID) {
	sh := &h.shards[i>>shardBits]
	hs := h.listAt(i)
	for p, n := range hs {
		if n == node {
			copy(hs[p:], hs[p+1:])
			sh.lists[i&(shardSize-1)] = hs[:len(hs)-1]
			if len(hs) == 1 {
				sh.held--
				h.total--
			}
			return
		}
	}
}

// removeBits deletes node from every ref set in bits, visiting only the
// shards the bitset's nonzero words land in: evicting a peer costs its
// held-object count, independent of the object universe. Words map 1:1
// onto shards (shardBits = 6 = one uint64), so the word walk is the
// shard walk.
func (h *holdersIndex) removeBits(held *bitset.Set, node simnet.NodeID) {
	held.ForEachWord(func(w int, word uint64) {
		base := w << shardBits
		for word != 0 {
			h.remove(base+bits.TrailingZeros64(word), node)
			word &= word - 1 // clear lowest set bit
		}
	})
}

// forEachHeld calls fn for every ref with ≥1 holder in ascending ref
// order, skipping empty shards wholesale.
func (h *holdersIndex) forEachHeld(fn func(i int, hs []simnet.NodeID)) {
	for s := range h.shards {
		sh := &h.shards[s]
		if sh.held == 0 {
			continue
		}
		base := s << shardBits
		for j, hs := range sh.lists {
			if len(hs) > 0 {
				fn(base+j, hs)
			}
		}
	}
}

// reset empties every shard, keeping list capacities for reuse.
func (h *holdersIndex) reset() {
	for s := range h.shards {
		sh := &h.shards[s]
		for j := range sh.lists {
			sh.lists[j] = sh.lists[j][:0]
		}
		sh.held = 0
	}
	h.total = 0
}

// shardCount returns the number of ref-range shards.
func (h *holdersIndex) shardCount() int { return len(h.shards) }

// shardHeld returns how many refs in shard s currently have holders.
func (h *holdersIndex) shardHeld(s int) int { return h.shards[s].held }
