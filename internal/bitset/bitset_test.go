package bitset

import (
	"math/rand"
	"testing"
	"unsafe"
)

// A content peer holds three sets and a directory one per member slot: the
// header stays at the slice plus two 32-bit counters.
func TestSetSize(t *testing.T) {
	if got := unsafe.Sizeof(Set{}); got != 32 {
		t.Fatalf("bitset.Set is %d bytes, want 32", got)
	}
}

// TestBoundary exercises set/clear/iterate around word edges and the
// capacity boundary for sizes shaped like ObjectsPerSite configurations —
// including the awkward non-multiple-of-64 ones.
func TestBoundary(t *testing.T) {
	for _, n := range []int{1, 60, 63, 64, 65, 127, 128, 500} {
		s := New(n)
		if s.Cap() != n || s.Count() != 0 {
			t.Fatalf("n=%d: fresh set cap=%d count=%d", n, s.Cap(), s.Count())
		}
		// First, last and a middle bit (deduped for tiny sizes).
		probes := []int{0}
		if n/2 != 0 {
			probes = append(probes, n/2)
		}
		if n-1 != 0 && n-1 != n/2 {
			probes = append(probes, n-1)
		}
		for _, i := range probes {
			if !s.Set(i) {
				t.Fatalf("n=%d: Set(%d) reported already-set", n, i)
			}
			if s.Set(i) {
				t.Fatalf("n=%d: duplicate Set(%d) reported fresh", n, i)
			}
			if !s.Has(i) {
				t.Fatalf("n=%d: Has(%d) = false after Set", n, i)
			}
		}
		if s.Has(n) || s.Has(-1) {
			t.Fatalf("n=%d: out-of-range Has must be false", n)
		}
		if s.Clear(n) || s.Clear(-1) {
			t.Fatalf("n=%d: out-of-range Clear must be a no-op", n)
		}
		var got []int
		s.ForEach(func(i int) { got = append(got, i) })
		want := map[int]bool{}
		for _, i := range probes {
			want[i] = true
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: iterate returned %v", n, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("n=%d: iteration not ascending: %v", n, got)
			}
		}
		for _, i := range got {
			if !want[i] {
				t.Fatalf("n=%d: iteration yielded unset bit %d", n, i)
			}
		}
		if !s.Clear(n - 1) {
			t.Fatalf("n=%d: Clear(%d) reported unset", n, n-1)
		}
		if s.Has(n-1) || s.Clear(n-1) {
			t.Fatalf("n=%d: bit %d survived Clear", n, n-1)
		}
		s.Reset()
		if s.Count() != 0 || s.Has(0) {
			t.Fatalf("n=%d: Reset left bits behind", n)
		}
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set beyond capacity must panic")
		}
	}()
	s := New(64)
	s.Set(64)
}

// TestAgainstMap cross-checks the set against a reference map under a
// random operation stream, then verifies Clone independence.
func TestAgainstMap(t *testing.T) {
	const n = 130 // spans three words, last one partial
	rng := rand.New(rand.NewSource(7))
	s := New(n)
	ref := map[int]bool{}
	for op := 0; op < 4000; op++ {
		i := rng.Intn(n)
		if rng.Intn(2) == 0 {
			if s.Set(i) == ref[i] {
				t.Fatalf("op %d: Set(%d) freshness mismatch", op, i)
			}
			ref[i] = true
		} else {
			if s.Clear(i) != ref[i] {
				t.Fatalf("op %d: Clear(%d) mismatch", op, i)
			}
			delete(ref, i)
		}
	}
	if s.Count() != len(ref) {
		t.Fatalf("count=%d want %d", s.Count(), len(ref))
	}
	cp := s.Clone()
	var fromIter []int
	s.ForEach(func(i int) { fromIter = append(fromIter, i) })
	if len(fromIter) != len(ref) {
		t.Fatalf("iterated %d bits, want %d", len(fromIter), len(ref))
	}
	for _, i := range fromIter {
		if !ref[i] {
			t.Fatalf("iterated unset bit %d", i)
		}
	}
	// Clone must not share storage.
	for i := 0; i < n; i++ {
		s.Clear(i)
	}
	if cp.Count() != len(ref) {
		t.Fatal("Clone shares storage with original")
	}
}

// Sets carved from one caller-owned array with Over are independent, count
// the bits their storage already holds, and reject storage of the wrong
// length.
func TestOverCarvedStorage(t *testing.T) {
	const n = 130 // three words, the last one partial
	nw := Words(n)
	words := make([]uint64, 2*nw)
	words[nw] = 0b101 // pre-set members 0 and 2 of the second set
	a := Over(words[:nw:nw], n)
	b := Over(words[nw:], n)
	if a.Cap() != n || a.Count() != 0 || b.Count() != 2 || !b.Has(0) || !b.Has(2) {
		t.Fatalf("carved sets start wrong: a=%d b=%d members", a.Count(), b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		a.Set(i)
	}
	if a.Count() != 4 || b.Count() != 2 || b.Has(63) || b.Has(129) {
		t.Fatal("setting bits of one carved set leaked into its neighbour")
	}
	b.Reset()
	if a.Count() != 4 || !a.Has(129) || words[nw] != 0 {
		t.Fatal("Reset of one carved set did not stay inside its words")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Over accepted storage that does not match the capacity")
		}
	}()
	Over(words, n)
}
