package bloom

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewForCapacity(500)
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("site-07/obj-%04d", i)
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.Test(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

// Property: a Bloom filter never forgets an added key, whatever the keys.
func TestQuickNoFalseNegatives(t *testing.T) {
	prop := func(keys []string) bool {
		f := New(1024, 6)
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.Test(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateNearDesign(t *testing.T) {
	// 8 bits/item, k=6 ⇒ theoretical fp ≈ 2.1%. Allow generous slack.
	f := NewForCapacity(1000)
	for i := 0; i < 1000; i++ {
		f.Add(fmt.Sprintf("member-%d", i))
	}
	fp := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if f.Test(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / trials
	if rate > 0.06 {
		t.Fatalf("false positive rate %.4f too high", rate)
	}
	if est := f.EstimatedFalsePositiveRate(); est <= 0 || est > 0.10 {
		t.Fatalf("estimated fp rate %.4f implausible", est)
	}
}

func TestUnion(t *testing.T) {
	a, b := New(2048, 5), New(2048, 5)
	a.Add("x")
	b.Add("y")
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if !a.Test("x") || !a.Test("y") {
		t.Fatal("union lost a member")
	}
	c := New(1024, 5)
	if err := a.Union(c); err != ErrIncompatible {
		t.Fatalf("expected ErrIncompatible, got %v", err)
	}
	if err := a.Union(nil); err != ErrIncompatible {
		t.Fatalf("expected ErrIncompatible for nil, got %v", err)
	}
}

// Property: union contains everything either operand contained.
func TestQuickUnionSuperset(t *testing.T) {
	prop := func(xs, ys []string) bool {
		a, b := New(4096, 4), New(4096, 4)
		for _, k := range xs {
			a.Add(k)
		}
		for _, k := range ys {
			b.Add(k)
		}
		u := a.Clone()
		if err := u.Union(b); err != nil {
			return false
		}
		for _, k := range xs {
			if !u.Test(k) {
				return false
			}
		}
		for _, k := range ys {
			if !u.Test(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(512, 4)
	a.Add("one")
	b := a.Clone()
	b.Add("two")
	if a.Test("two") {
		t.Fatal("clone writes leaked into original")
	}
	if !b.Test("one") {
		t.Fatal("clone missing original member")
	}
}

func TestReset(t *testing.T) {
	f := New(512, 4)
	f.Add("gone")
	f.Reset()
	if f.Test("gone") {
		t.Fatal("reset did not clear")
	}
	if f.Count() != 0 || f.FillRatio() != 0 {
		t.Fatal("reset did not zero counters")
	}
}

func TestSizeBytesMatchesTable1(t *testing.T) {
	// Table 1: summary size = 8·nb-ob bits. For 500 objects: 4000 bits =
	// 500 bytes.
	f := NewForCapacity(500)
	if f.SizeBytes() != 500 {
		t.Fatalf("SizeBytes = %d, want 500", f.SizeBytes())
	}
	if f.Bits() != 4000 {
		t.Fatalf("Bits = %d, want 4000", f.Bits())
	}
}

func TestOptimalHashes(t *testing.T) {
	if k := OptimalHashes(8); k != 6 {
		t.Fatalf("OptimalHashes(8) = %d, want 6", k)
	}
	if k := OptimalHashes(0.1); k != 1 {
		t.Fatalf("OptimalHashes floor = %d, want 1", k)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 3) },
		func() { New(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestNewForCapacityZero(t *testing.T) {
	f := NewForCapacity(0)
	f.Add("a")
	if !f.Test("a") {
		t.Fatal("degenerate filter should still work")
	}
}

func TestFillRatioMonotone(t *testing.T) {
	f := New(4096, 4)
	prev := 0.0
	for i := 0; i < 100; i++ {
		f.Add(fmt.Sprintf("x%d", i))
		r := f.FillRatio()
		if r < prev {
			t.Fatal("fill ratio decreased on insert")
		}
		prev = r
	}
	if prev <= 0 || prev > 1 {
		t.Fatalf("fill ratio out of range: %v", prev)
	}
}

// A filter of up to 128 words is one heap object — header and bit array in
// one block — and two beyond; its header is at most 32 bytes; a clone is
// equal to its source and independent of it.
func TestFilterOneBlock(t *testing.T) {
	if got := unsafe.Sizeof(Filter{}); got > 32 {
		t.Fatalf("Filter header is %d bytes, want ≤ 32", got)
	}
	for _, words := range []int{1, 2, 7, 8, 9, 13, 16, 17, 32, 33, 63, 64, 65, 127, 128, 129, 200} {
		want := 1.0
		if words > 128 {
			want = 2
		}
		mBits := 64*words - 17 // a partly used last word
		src := New(mBits, 6)
		for i := 0; i < 2*words; i++ {
			src.Add(fmt.Sprintf("k%d", i))
		}
		for name, alloc := range map[string]func(){
			"New":            func() { sinkFilter = New(mBits, 6) },
			"NewForCapacity": func() { sinkFilter = NewForCapacity(8 * words) }, // 64·words bits
			"Clone":          func() { sinkFilter = src.Clone() },
		} {
			if got := testing.AllocsPerRun(50, alloc); got != want {
				t.Errorf("%s at %d words: %.0f allocations, want %.0f", name, words, got, want)
			}
		}
		if got := NewForCapacity(8 * words); len(got.bits) != words {
			t.Fatalf("NewForCapacity(%d) has %d words, want %d", 8*words, len(got.bits), words)
		}

		before := mustMarshal(t, src)
		cp := src.Clone()
		if cp.Bits() != src.Bits() || cp.Hashes() != src.Hashes() || cp.Count() != src.Count() {
			t.Fatalf("%d words: clone header (%d, %d, %d) differs from source (%d, %d, %d)", words,
				cp.Bits(), cp.Hashes(), cp.Count(), src.Bits(), src.Hashes(), src.Count())
		}
		if !bytes.Equal(mustMarshal(t, cp), before) {
			t.Fatalf("%d words: clone serialises differently from its source", words)
		}
		cp.Add("only in the clone")
		cloned := mustMarshal(t, cp)
		if bytes.Equal(cloned, before) || !bytes.Equal(mustMarshal(t, src), before) {
			t.Fatalf("%d words: an insertion into the clone missed it or reached the source", words)
		}
		src.Add("only in the source")
		if bytes.Equal(mustMarshal(t, src), before) || !bytes.Equal(mustMarshal(t, cp), cloned) {
			t.Fatalf("%d words: an insertion into the source missed it or reached the clone", words)
		}
	}

	// The size in bits is kept as the unused tail of the last word.
	for mBits := 1; mBits <= 8256; mBits++ {
		f := New(mBits, 3)
		if f.Bits() != mBits || f.SizeBytes() != (mBits+7)/8 || len(f.bits) != (mBits+63)/64 {
			t.Fatalf("New(%d): Bits %d, SizeBytes %d, %d words", mBits, f.Bits(), f.SizeBytes(), len(f.bits))
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("New(m, 256) did not panic: the hash count is kept in a byte")
		}
	}()
	New(1024, 256)
}

var sinkFilter *Filter

func mustMarshal(t *testing.T, f *Filter) []byte {
	t.Helper()
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRefCount: a filter counts its holders and reports the last release; a
// release nobody holds panics; a count that saturates pins the filter, so no
// release reports it free again. A clone starts unheld, and Reset and Union
// — a spare block overwritten — keep the holders.
func TestRefCount(t *testing.T) {
	f := New(512, 4)
	f.Add("x")
	f.Retain()
	f.Retain()
	if f.Refs() != 2 || f.Release() || !f.Release() || f.Refs() != 0 {
		t.Fatalf("two holders letting go: %d left", f.Refs())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a release with no holder did not panic")
			}
		}()
		f.Release()
	}()

	g := New(512, 4)
	g.Add("y")
	g.Retain()
	g.Reset()
	if err := g.Union(f); err != nil || g.Refs() != 1 || !bytes.Equal(mustMarshal(t, g), mustMarshal(t, f)) || f.Clone().Refs() != 0 {
		t.Fatal("overwriting a held filter lost its holder or missed the source's bits, or a clone came held")
	}

	for i := 0; i < math.MaxUint16+10; i++ {
		f.Retain()
	}
	for i := 0; i < 2*math.MaxUint16; i++ {
		if f.Release() {
			t.Fatalf("a saturated filter was reported free after %d releases", i+1)
		}
	}
	if f.Refs() != math.MaxUint16 {
		t.Fatalf("saturated count moved to %d", f.Refs())
	}
}

// TestAnswerSet: an answer set is one heap object up to 128 words, its bits
// are exactly those set, out-of-range positions answer false, probe
// positions are the ones AddHash sets, and hashed keys on an answer set panic.
func TestAnswerSet(t *testing.T) {
	for _, n := range []int{1, 60, 100, 500, 8192} {
		if got := testing.AllocsPerRun(50, func() { sinkFilter = NewAnswers(n) }); got != 1 {
			t.Errorf("NewAnswers(%d): %.0f allocations, want 1", n, got)
		}
		a := NewAnswers(n)
		if a.Bits() != n || a.Hashes() != 0 {
			t.Fatalf("NewAnswers(%d) has %d bits, %d hashes", n, a.Bits(), a.Hashes())
		}
		for i := 0; i < n; i += 3 {
			a.SetAnswer(i)
		}
		for i := -1; i <= n+64; i++ {
			if want := i >= 0 && i < n && i%3 == 0; a.Answer(i) != want {
				t.Fatalf("n %d: bit %d answers %v, want %v", n, i, a.Answer(i), want)
			}
		}
	}
	f := NewForCapacity(50)
	f.Add("x")
	h1, h2 := HashKey("x")
	g := New(f.Bits(), f.Hashes())
	for _, b := range AppendProbes(nil, f.Bits(), f.Hashes(), h1, h2) {
		g.bits[b/64] |= 1 << (b % 64)
	}
	if !slices.Equal(g.bits, f.bits) {
		t.Fatal("AppendProbes differs from the bits AddHash sets")
	}
	for _, fn := range []func(){
		func() { NewAnswers(0) },
		func() { NewAnswers(8).Test("x") },
		func() { NewAnswers(8).Add("x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
