// Package bitset provides a dense fixed-capacity bit set keyed by small
// integer indices. It backs the content plane's interned-object state: a
// content peer's stored-object set, a directory entry's holdings and the
// directory's known-object set are all bitsets over the per-site dense
// object space, replacing string-keyed maps on the query hot path.
package bitset

import (
	"math"
	"math/bits"
)

// Set is a fixed-capacity bit set. Construct with New or Over; the zero
// value is an empty set of capacity 0. Capacity and count are 32-bit, the
// set 32 bytes: every content peer and directory member slot holds some.
type Set struct {
	words []uint64
	n     int32 // capacity in bits
	count int32 // set bits, maintained incrementally
}

// New creates an empty set able to hold indices [0, n).
func New(n int) Set {
	n = max(n, 0)
	return Over(make([]uint64, Words(n)), n)
}

// Words returns the number of 64-bit words a set of capacity n occupies.
func Words(n int) int { return (n + 63) / 64 }

// Over creates a set of capacity n over caller-owned storage, so an owner
// of several sets can carve them all from one array. words must be
// Words(n) long and must not be shared with another set; bits already set
// in it are members.
func Over(words []uint64, n int) Set {
	if n < 0 || n > math.MaxInt32 || len(words) != Words(n) {
		panic("bitset: storage does not match capacity")
	}
	s := Set{words: words, n: int32(n)}
	for _, w := range words {
		s.count += int32(bits.OnesCount64(w))
	}
	return s
}

// Cap returns the capacity in bits.
func (s *Set) Cap() int { return int(s.n) }

// Count returns the number of set bits.
func (s *Set) Count() int { return int(s.count) }

// Has reports whether bit i is set. Out-of-range indices are false.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.Cap() {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i and reports whether it was previously clear. Out-of-range
// indices panic: the caller owns the dense index space.
func (s *Set) Set(i int) bool {
	if i < 0 || i >= s.Cap() {
		panic("bitset: index out of range")
	}
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if s.words[w]&m != 0 {
		return false
	}
	s.words[w] |= m
	s.count++
	return true
}

// Clear clears bit i and reports whether it was previously set.
func (s *Set) Clear(i int) bool {
	if i < 0 || i >= s.Cap() {
		return false
	}
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if s.words[w]&m == 0 {
		return false
	}
	s.words[w] &^= m
	s.count--
	return true
}

// Reset clears every bit, keeping the capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}

// ForEach calls fn for every set bit in ascending index order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			fn(i)
			w &= w - 1 // clear lowest set bit
		}
	}
}

// Word returns the w'th 64-bit word (indices [64w, 64w+64)); out-of-range
// word indices are zero. It is the read half of the word-granular seam
// ForEachWord iterates: range-sharded consumers (the directory's inverse
// index, its standby delta sync) address exactly one word per shard.
func (s *Set) Word(w int) uint64 {
	if w < 0 || w >= len(s.words) {
		return 0
	}
	return s.words[w]
}

// ForEachWord calls fn for every nonzero 64-bit word in ascending word
// order; word w covers indices [64w, 64w+64). Callers that batch work by
// index range (e.g. range-sharded inverse indexes) visit exactly the
// ranges holding set bits.
func (s *Set) ForEachWord(fn func(w int, word uint64)) {
	for wi, w := range s.words {
		if w != 0 {
			fn(wi, w)
		}
	}
}

// AppendIndices appends the set bit indices to dst in ascending order and
// returns the extended slice (allocation-free once dst has capacity).
func (s *Set) AppendIndices(dst []int) []int {
	s.ForEach(func(i int) { dst = append(dst, i) })
	return dst
}

// Clone returns a deep copy.
func (s *Set) Clone() Set {
	cp := Set{words: make([]uint64, len(s.words)), n: s.n, count: s.count}
	copy(cp.words, s.words)
	return cp
}
