// Package bitset provides a dense fixed-capacity bit set keyed by small
// integer indices. It backs the content plane's interned-object state: a
// content peer's stored-object set and the directory's known-object set
// are bitsets over the per-site dense object space, replacing string-keyed
// maps on the query hot path.
package bitset

import (
	"math"
	"math/bits"
)

// Set is a fixed-capacity bit set. Construct with New or Over; the zero
// value is an empty set of capacity 0. Capacity and count are 32-bit, the
// set 32 bytes: every content peer holds some.
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

// Clone returns a deep copy.
func (s *Set) Clone() Set {
	cp := Set{words: make([]uint64, len(s.words)), n: s.n, count: s.count}
	copy(cp.words, s.words)
	return cp
}
