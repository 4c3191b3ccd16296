package dring

import "math/bits"

// The directory index (member ↔ object) is one ref-major bit matrix over
// the member slab's slots: row i holds one bit per slot, set while the
// member in that slot holds local ref i. Every row is stride words and all
// rows live in one []uint64, so an add or a drop is one bit set or clear.
// Nothing else stores the relation: a member's holdings are its column, read
// bit by bit.
//
// Per-ref holder counts and per-shard held counts keep ObjectCount,
// ShardHeld and whole-index sweeps (summary rebuilds) O(1) per
// ref and skip-empty per 64-ref shard.
//
// The matrix and the per-ref counts are made at the first add — a run has
// a directory per website and locality and a handful of active websites,
// and a directory that indexes nothing should hold nothing.

// shardBits sizes a shard at 64 refs.
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

// removeSlot is the matrix half of the slab's swap-remove, one pass over
// the rows: slot s's bits are cleared and the last slot's bits move into s.
func (h *holdersIndex) removeSlot(s, last int32) {
	ws, wl := int(s>>6), int(last>>6)
	if ws >= h.stride {
		return // no add ever reached s's word, nor last's beyond it
	}
	ms, ml := uint64(1)<<(s&63), uint64(1)<<(last&63)
	move := s != last && wl < h.stride
	for i := range h.nObj {
		row := h.rows[i*h.stride : (i+1)*h.stride]
		if row[ws]&ms != 0 {
			h.remove(i, s)
		}
		if move && row[wl]&ml != 0 {
			row[wl] &^= ml
			row[ws] |= ms
		}
	}
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
