package dring

import (
	"math/bits"

	"flowercdn/internal/bitset"
)

// The inverse index (local object → holders) is a ref-major bit matrix over
// the member slab's slots: row i holds one bit per slot, set while the
// member in that slot holds local ref i. Every row is stride words and all
// rows live in one []uint64, so an add or a drop is one bit set or clear,
// and the matrix is the forward bitsets (member → refs) transposed.
//
// Per-ref holder counts and per-shard held counts keep ObjectCount,
// ShardHeld and whole-index sweeps (summary rebuilds, TopObjects) O(1) per
// ref and skip-empty per 64-ref shard. A shard is exactly one forward
// bitset word, which is also the grain of the standby's delta sync
// (delta.go).
//
// The matrix and the per-ref counts are made at the first add — a run has
// a directory per website and locality and a handful of active websites,
// and a directory that indexes nothing should hold nothing.

// shardBits sizes a shard at 64 refs: exactly one bitset word, so a
// member's holdings map 1:1 onto shards and the word walk *is* the shard
// walk.
const shardBits = 6

// shardSize is the number of local refs per shard.
const shardSize = 1 << shardBits

// holdersIndex is the slot-matrix inverse index over [0, nObj) local refs.
type holdersIndex struct {
	nObj   int
	stride int      // words per row: slots [0, 64·stride) are addressable
	rows   []uint64 // nObj rows of stride words; nil until the first add
	count  []int32  // holders per ref; nil until the first add
	held   []int32  // refs with ≥1 holder, per shard
	total  int      // refs with ≥1 holder, across all shards
}

func newHoldersIndex(nObj int) holdersIndex {
	return holdersIndex{nObj: nObj, held: make([]int32, (nObj+shardSize-1)/shardSize)}
}

// add sets slot's bit in ref i's row, widening the rows first when the
// slot lies beyond the stride.
func (h *holdersIndex) add(i int, slot int32) {
	w := int(slot >> 6)
	if w >= h.stride {
		h.grow(w + 1)
	}
	h.rows[i*h.stride+w] |= 1 << (slot & 63)
	if h.count[i]++; h.count[i] == 1 {
		h.held[i>>shardBits]++
		h.total++
	}
}

// remove clears slot's bit in ref i's row; the caller knows it is set.
func (h *holdersIndex) remove(i int, slot int32) {
	h.rows[i*h.stride+int(slot>>6)] &^= 1 << (slot & 63)
	if h.count[i]--; h.count[i] == 0 {
		h.held[i>>shardBits]--
		h.total--
	}
}

// grow widens every row to at least words, at least doubling the stride so
// a growing slab re-lays the matrix O(log members) times.
func (h *holdersIndex) grow(words int) {
	stride := max(words, 2*h.stride)
	rows := make([]uint64, h.nObj*stride)
	for i := range h.nObj {
		copy(rows[i*stride:], h.rows[i*h.stride:(i+1)*h.stride])
	}
	if h.count == nil {
		h.count = make([]int32, h.nObj)
	}
	h.rows, h.stride = rows, stride
}

// removeSlot is the matrix half of the slab's swap-remove: slot s's bits
// (the refs in gone, its forward bitset) are cleared and the last slot's
// bits (the refs in moved) move into s.
func (h *holdersIndex) removeSlot(s int32, gone *bitset.Set, last int32, moved *bitset.Set) {
	gone.ForEach(func(i int) { h.remove(i, s) })
	if s == last {
		return
	}
	moved.ForEach(func(i int) {
		row := h.rows[i*h.stride:]
		row[last>>6] &^= 1 << (last & 63)
		row[s>>6] |= 1 << (s & 63)
	})
}

// has reports whether slot's bit is set in ref i's row.
func (h *holdersIndex) has(i, slot int) bool {
	return slot>>6 < h.stride && h.rows[i*h.stride+(slot>>6)]&(1<<(slot&63)) != 0
}

// holderCount returns how many slots hold ref i.
func (h *holdersIndex) holderCount(i int) int {
	if h.count == nil {
		return 0
	}
	return int(h.count[i])
}

// forEachSlot calls fn for every slot holding ref i, in ascending slot
// (admission) order.
func (h *holdersIndex) forEachSlot(i int, fn func(slot int)) {
	if h.rows == nil {
		return
	}
	for w, word := range h.rows[i*h.stride : (i+1)*h.stride] {
		for ; word != 0; word &= word - 1 {
			fn(w<<6 | bits.TrailingZeros64(word))
		}
	}
}

// forEachHeld calls fn for every ref with ≥1 holder in ascending ref
// order, skipping empty shards wholesale.
func (h *holdersIndex) forEachHeld(fn func(i int)) {
	for s, held := range h.held {
		if held == 0 {
			continue
		}
		for i := s << shardBits; i < min((s+1)<<shardBits, h.nObj); i++ {
			if h.count[i] > 0 {
				fn(i)
			}
		}
	}
}

// reset empties the index, keeping the matrix for reuse.
func (h *holdersIndex) reset() {
	clear(h.rows)
	clear(h.count)
	clear(h.held)
	h.total = 0
}
