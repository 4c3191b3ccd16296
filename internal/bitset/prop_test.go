package bitset

import (
	"math/rand"
	"sort"
	"testing"
)

// assertPanics runs fn and fails unless it panics (out-of-range Set is a
// documented programming error).
func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// TestSetPropertyVsMap drives randomized add/remove/test sequences against
// a map-based reference model, across capacities that straddle the word
// boundaries (0, 1, 63/64/65, 127/128) and with indices that straddle the
// valid range: out-of-range Has/Clear must behave like misses and
// out-of-range Set must panic, exactly as documented.
func TestSetPropertyVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capn := range []int{0, 1, 7, 63, 64, 65, 127, 128, 200} {
		s := New(capn)
		ref := map[int]bool{}
		for op := 0; op < 2000; op++ {
			i := rng.Intn(capn+16) - 8
			inRange := i >= 0 && i < capn
			switch rng.Intn(3) {
			case 0:
				if !inRange {
					assertPanics(t, func() { s.Set(i) })
					continue
				}
				want := !ref[i]
				if got := s.Set(i); got != want {
					t.Fatalf("cap=%d Set(%d) = %v, want %v", capn, i, got, want)
				}
				ref[i] = true
			case 1:
				want := inRange && ref[i]
				if got := s.Clear(i); got != want {
					t.Fatalf("cap=%d Clear(%d) = %v, want %v", capn, i, got, want)
				}
				delete(ref, i)
			case 2:
				want := inRange && ref[i]
				if got := s.Has(i); got != want {
					t.Fatalf("cap=%d Has(%d) = %v, want %v", capn, i, got, want)
				}
			}
			if s.Count() != len(ref) {
				t.Fatalf("cap=%d Count = %d, reference %d", capn, s.Count(), len(ref))
			}
		}
		// Full-state equivalence: iteration yields exactly the reference
		// keys, ascending.
		want := make([]int, 0, len(ref))
		for i := range ref {
			want = append(want, i)
		}
		sort.Ints(want)
		var got []int
		s.ForEach(func(i int) { got = append(got, i) })
		if !equalInts(got, want) {
			t.Fatalf("cap=%d ForEach = %v, want %v", capn, got, want)
		}
		// Clone independence: mutating the clone leaves the original alone.
		cp := s.Clone()
		if cp.Count() != s.Count() || cp.Cap() != s.Cap() {
			t.Fatalf("cap=%d clone shape mismatch", capn)
		}
		if len(want) > 0 {
			cp.Clear(want[0])
			if !s.Has(want[0]) {
				t.Fatalf("cap=%d clone shares storage with original", capn)
			}
		}
		// Reset drains everything.
		s.Reset()
		if s.Count() != 0 {
			t.Fatalf("cap=%d Count after Reset = %d", capn, s.Count())
		}
		for _, i := range want {
			if s.Has(i) {
				t.Fatalf("cap=%d bit %d survived Reset", capn, i)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
