// Package bloom implements the Bloom filters used for content summaries and
// directory summaries, following the Summary Cache design (Fan et al.,
// SIGCOMM 1998 — reference [9] in the paper). Table 1 sizes a summary at
// 8·nb-ob bits, i.e. a load factor of 8 bits per object; with the optimal
// number of hash functions (⌈8·ln2⌉ ≈ 6) the false-positive rate is about
// 2 %.
//
// Filters use double hashing over two independent 64-bit FNV-1a streams,
// which is indistinguishable from k independent hash functions for Bloom
// filter purposes (Kirsch & Mitzenmacher).
//
// A Filter with no hash functions is an answer set (NewAnswers): bit i holds
// the answer a Bloom filter gave for the i-th key of a list both sides fix,
// so a member of that list is tested with one bit instead of k probes.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Filter is a standard Bloom filter. The zero value is unusable; construct
// with New or NewForCapacity.
//
// The header is 32 bytes and, for filters of up to 128 words, sits in the
// same heap object as the bit array (see newBlock). bits comes first so that
// the collector's scan of a block stops after one word; refs, in what was
// padding, counts a snapshot's holders, so the last can hand the block back.
type Filter struct {
	bits   []uint64
	count  uint32 // number of Add calls (upper bound on distinct items); the width MarshalBinary writes
	hashes uint8
	tail   uint8  // unused bits of the last word: the size in bits is 64·len(bits) − tail
	refs   uint16 // holders (Retain, Release); MaxUint16 sticks: pinned, left to the collector
}

// block is a Filter next to a fixed word array, one heap object. Its five
// classes (8 … 128 words, see newBlock) put the Bloom filters of the presets
// — 60, 100 and 500 objects at 8 bits each = 8, 13 and 63 words — in 96-,
// 160- and 576-byte objects, and the answer sets of 100 and 500 objects (2
// and 8 words) in 96-byte ones. A one-word header in front of a
// variable-length array would save the slice's 16 bytes, but needs unsafe to
// reach the words; fixed arrays do not.
type block[A any] struct {
	f Filter
	w A
}

// newBlock returns a zeroed filter of the given word count, in one
// allocation when a block class holds it and as header plus array beyond.
// The returned pointer is interior to the block, which keeps all of it
// alive; the collector frees it like any other object.
func newBlock(words int) *Filter {
	var f *Filter
	var w []uint64
	switch {
	case words <= 8:
		b := new(block[[8]uint64])
		f, w = &b.f, b.w[:]
	case words <= 16:
		b := new(block[[16]uint64])
		f, w = &b.f, b.w[:]
	case words <= 32:
		b := new(block[[32]uint64])
		f, w = &b.f, b.w[:]
	case words <= 64:
		b := new(block[[64]uint64])
		f, w = &b.f, b.w[:]
	case words <= 128:
		b := new(block[[128]uint64])
		f, w = &b.f, b.w[:]
	default:
		f, w = new(Filter), make([]uint64, words)
	}
	f.bits = w[:words]
	return f
}

// New creates a filter with mBits bits and k hash functions (k ≤ 255), as
// one heap object up to 8192 bits.
func New(mBits int, k int) *Filter {
	if mBits <= 0 {
		panic(fmt.Sprintf("bloom: non-positive size %d", mBits))
	}
	if k <= 0 || k > math.MaxUint8 {
		panic(fmt.Sprintf("bloom: hash count %d outside [1, %d]", k, math.MaxUint8))
	}
	words := (mBits + 63) / 64
	f := newBlock(words)
	f.hashes = uint8(k)
	f.tail = uint8(64*words - mBits)
	return f
}

// NewAnswers creates an empty answer set of n bits, one heap object up to
// 8192 bits. It has the Filter API's recycling, copying (Union, Clone) and
// sizing; Answer and SetAnswer read and write it, and the key-hashing
// methods (Add, Test and their hash-pair forms) panic on it.
func NewAnswers(n int) *Filter {
	if n <= 0 {
		panic(fmt.Sprintf("bloom: non-positive size %d", n))
	}
	words := (n + 63) / 64
	f := newBlock(words)
	f.tail = uint8(64*words - n)
	return f
}

// Answer reports bit i of an answer set; an i outside it answers false.
func (f *Filter) Answer(i int) bool {
	return uint(i) < uint(f.mBits()) && f.bits[i>>6]&(1<<(i&63)) != 0
}

// SetAnswer sets bit i of an answer set.
func (f *Filter) SetAnswer(i int) { f.bits[i>>6] |= 1 << (i & 63) }

// AppendProbes appends to dst the k bit positions AddHash sets, and TestHash
// reads, in a filter of mBits bits for the key hashing to (h1, h2).
func AppendProbes(dst []uint32, mBits, k int, h1, h2 uint64) []uint32 {
	h2 |= 1
	for i := uint64(0); i < uint64(k); i++ {
		dst = append(dst, uint32((h1+i*h2)%uint64(mBits)))
	}
	return dst
}

// keyed panics on an answer set, which no hashed key can be tested against.
func (f *Filter) keyed() {
	if f.hashes == 0 {
		panic("bloom: hashed key used on an answer set")
	}
}

// mBits is the filter size in bits, the modulus of every probe.
func (f *Filter) mBits() uint64 { return uint64(len(f.bits))<<6 - uint64(f.tail) }

// NewForCapacity creates a filter sized per Table 1 of the paper: 8 bits
// per expected item, with the optimal hash count for that load.
func NewForCapacity(n int) *Filter {
	return New(8*BytesForCapacity(n), OptimalHashes(8))
}

// BytesForCapacity is the SizeBytes of every NewForCapacity(n) filter: one
// byte per expected item.
func BytesForCapacity(n int) int {
	if n <= 0 {
		n = 1
	}
	return n
}

// OptimalHashes returns the hash count minimising false positives for a
// given bits-per-item load factor: round(load · ln 2).
func OptimalHashes(bitsPerItem float64) int {
	k := int(math.Round(bitsPerItem * math.Ln2))
	if k < 1 {
		k = 1
	}
	return k
}

// fnv1a64 with a seed folded into the offset basis.
func fnv1a64(seed uint64, s string) uint64 {
	h := uint64(14695981039346656037) ^ (seed * 0x9E3779B97F4A7C15)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HashKey computes the two independent 64-bit FNV-1a streams double
// hashing derives every probe index from. Callers that probe the same key
// repeatedly (the interned-object hot path) compute the pair once and use
// AddHash/TestHash; Add/Test are the equivalent convenience API over raw
// strings. h2 is returned raw — the probe loop forces it odd.
func HashKey(key string) (h1, h2 uint64) {
	return fnv1a64(0, key), fnv1a64(1, key)
}

// AddHash inserts the key whose HashKey pair is (h1, h2). Zero hashing,
// zero allocation: the per-probe work is one multiply-add and a modulo.
func (f *Filter) AddHash(h1, h2 uint64) {
	f.keyed()
	h2 |= 1 // odd => full period
	m := f.mBits()
	for i := uint64(0); i < uint64(f.hashes); i++ {
		idx := (h1 + i*h2) % m
		f.bits[idx/64] |= 1 << (idx % 64)
	}
	f.count++
}

// TestHash reports whether the key whose HashKey pair is (h1, h2) may be
// in the filter. False positives are possible; false negatives are not.
func (f *Filter) TestHash(h1, h2 uint64) bool {
	f.keyed()
	h2 |= 1
	m := f.mBits()
	for i := uint64(0); i < uint64(f.hashes); i++ {
		idx := (h1 + i*h2) % m
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Add inserts key into the filter.
func (f *Filter) Add(key string) {
	h1, h2 := HashKey(key)
	f.AddHash(h1, h2)
}

// Test reports whether key may be in the filter. False positives are
// possible; false negatives are not.
func (f *Filter) Test(key string) bool {
	h1, h2 := HashKey(key)
	return f.TestHash(h1, h2)
}

// Reset clears the filter in place.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.count = 0
}

// Clone returns a deep copy, in one heap object when New would have made
// the source in one.
func (f *Filter) Clone() *Filter {
	cp := newBlock(len(f.bits))
	cp.count, cp.hashes, cp.tail = f.count, f.hashes, f.tail
	copy(cp.bits, f.bits)
	return cp
}

// Retain adds a holder; on nil it does nothing.
func (f *Filter) Retain() {
	if f != nil && f.refs < math.MaxUint16 {
		f.refs++
	}
}

// Release drops a holder and reports whether it was the last, after which f
// may be overwritten; nil has none. Releasing a filter nobody holds panics.
func (f *Filter) Release() bool {
	switch {
	case f == nil:
		return false
	case f.refs == 0:
		panic("bloom: filter released with no holder")
	case f.refs < math.MaxUint16:
		f.refs--
	}
	return f.refs == 0
}

// Refs returns the number of holders (MaxUint16: pinned).
func (f *Filter) Refs() int { return int(f.refs) }

// ErrIncompatible is returned when combining filters of different shapes.
var ErrIncompatible = errors.New("bloom: filters have different size or hash count")

// Union ORs other into f. Both filters must have identical parameters.
func (f *Filter) Union(other *Filter) error {
	if other == nil || f.mBits() != other.mBits() || f.hashes != other.hashes {
		return ErrIncompatible
	}
	for i := range f.bits {
		f.bits[i] |= other.bits[i]
	}
	f.count += other.count
	return nil
}

// Bits returns the filter size in bits.
func (f *Filter) Bits() int { return int(f.mBits()) }

// Hashes returns the number of hash functions (0: an answer set).
func (f *Filter) Hashes() int { return int(f.hashes) }

// Count returns the number of insertions since the last reset.
func (f *Filter) Count() int { return int(f.count) }

// SizeBytes is the size of the bit array: for a Bloom filter its wire size
// in traffic accounting, as in Summary Cache.
func (f *Filter) SizeBytes() int { return (f.Bits() + 7) / 8 }

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 {
	ones := 0
	for _, w := range f.bits {
		ones += popcount(w)
	}
	return float64(ones) / float64(f.mBits())
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// EstimatedFalsePositiveRate returns the expected false-positive rate given
// the current fill: fill^k.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	return math.Pow(f.FillRatio(), float64(f.hashes))
}

// MarshalBinary serialises the filter (header + bit array), the format a
// gossip message would carry on a real wire.
func (f *Filter) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 16+len(f.bits)*8)
	binary.LittleEndian.PutUint64(buf[0:8], f.mBits())
	binary.LittleEndian.PutUint32(buf[8:12], uint32(f.hashes))
	binary.LittleEndian.PutUint32(buf[12:16], f.count)
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(buf[16+8*i:], w)
	}
	return buf, nil
}
