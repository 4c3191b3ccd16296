package simkernel

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestCancelPreventsFiring(t *testing.T) {
	k := New(1)
	fired := false
	h := k.At(50, func() { fired = true })
	if !h.Active() {
		t.Fatal("fresh handle should be active")
	}
	if !h.Cancel() {
		t.Fatal("first Cancel should succeed")
	}
	if h.Active() {
		t.Fatal("cancelled handle reports active")
	}
	k.Run(100)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if k.Processed() != 0 || k.Cancelled() != 1 || k.Elided() != 1 {
		t.Fatalf("counters: processed=%d cancelled=%d elided=%d",
			k.Processed(), k.Cancelled(), k.Elided())
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	k := New(1)
	h := k.At(10, func() {})
	if !h.Cancel() {
		t.Fatal("first Cancel should succeed")
	}
	if h.Cancel() {
		t.Fatal("second Cancel of the same handle should be a no-op")
	}
	if k.Cancelled() != 1 {
		t.Fatalf("cancelled = %d, want 1", k.Cancelled())
	}
}

func TestCancelFiredHandleNoop(t *testing.T) {
	k := New(1)
	h := k.At(10, func() {})
	k.Run(100)
	if h.Active() {
		t.Fatal("fired handle reports active")
	}
	if h.Cancel() {
		t.Fatal("cancelling a fired handle should be a no-op")
	}
	if k.Processed() != 1 || k.Cancelled() != 0 {
		t.Fatalf("counters: processed=%d cancelled=%d", k.Processed(), k.Cancelled())
	}
}

func TestZeroHandleInert(t *testing.T) {
	var h TimerHandle
	if h.Active() {
		t.Fatal("zero handle reports active")
	}
	if h.Cancel() {
		t.Fatal("zero handle Cancel should be a no-op")
	}
}

// A stale handle must not be able to cancel an unrelated timer that reused
// its slot (the ABA hazard the generation counter exists for).
func TestHandleABASafety(t *testing.T) {
	k := New(1)
	old := k.At(10, func() {})
	old.Cancel() // frees the slot
	fired := false
	fresh := k.At(20, func() { fired = true })
	if fresh.slot != old.slot {
		t.Fatalf("test premise broken: slot not reused (%d vs %d)", fresh.slot, old.slot)
	}
	if old.Cancel() {
		t.Fatal("stale handle cancelled a reused slot")
	}
	if old.Active() {
		t.Fatal("stale handle reports active for a reused slot")
	}
	k.Run(100)
	if !fired {
		t.Fatal("fresh timer did not fire")
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	k := New(1)
	h1 := k.At(10, func() {})
	k.At(20, func() {})
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	h1.Cancel()
	if k.Pending() != 1 {
		t.Fatalf("pending after cancel = %d, want 1", k.Pending())
	}
	k.Run(100)
	if k.Pending() != 0 {
		t.Fatalf("pending after run = %d, want 0", k.Pending())
	}
}

func TestTickerStopElidesPendingFiring(t *testing.T) {
	k := New(1)
	count := 0
	tk := k.Every(10, 10, func() { count++ })
	k.At(25, func() { tk.Stop() })
	if n := k.Run(1000); n != 3 { // fires at 10, 20; stop event at 25
		t.Fatalf("events processed = %d, want 3", n)
	}
	if count != 2 {
		t.Fatalf("ticker fired %d times, want 2", count)
	}
	// The pending firing at t=30 must have been cancelled, not fired as a
	// dead no-op.
	if k.Elided() != 1 {
		t.Fatalf("elided = %d, want 1 (the revoked ticker firing)", k.Elided())
	}
	tk.Stop() // double Stop stays a no-op
	if k.Cancelled() != 1 {
		t.Fatalf("cancelled = %d, want 1", k.Cancelled())
	}
}

func TestTickerStopFromOwnCallbackThenRestartable(t *testing.T) {
	k := New(1)
	count := 0
	var tk Ticker
	tk = k.Every(0, 10, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	k.Run(500)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d, want 0 after in-callback stop", k.Pending())
	}
}

func TestCancelInsideEventSameInstant(t *testing.T) {
	// An event may cancel another event scheduled for the same instant that
	// has not run yet; the victim must be elided, not fired.
	k := New(1)
	var order []string
	var victim TimerHandle
	k.At(10, func() {
		order = append(order, "killer")
		victim.Cancel()
	})
	victim = k.At(10, func() { order = append(order, "victim") })
	k.Run(100)
	if len(order) != 1 || order[0] != "killer" {
		t.Fatalf("order = %v, want [killer]", order)
	}
}

func TestDeriveRNGPure(t *testing.T) {
	// Same (seed, label) must yield the same stream regardless of how many
	// other derivations or kernel-RNG draws happened in between.
	k1 := New(99)
	a := k1.DeriveRNG("churn").Int63()

	k2 := New(99)
	k2.DeriveRNG("flower-core") // extra consumer, different label
	k2.Rand().Int63()           // direct kernel draw
	b := k2.DeriveRNG("churn").Int63()
	if a != b {
		t.Fatalf("DeriveRNG not pure: %d vs %d", a, b)
	}
	if k1.DeriveRNG("churn").Int63() != a {
		t.Fatal("repeated derivation with the same label diverged")
	}
	if New(100).DeriveRNG("churn").Int63() == a {
		t.Fatal("different seeds produced identical derived streams")
	}
}

// traceRun drives a randomized mix of timers, cancellations and tickers
// and returns the exact firing trace.
func traceRun(seed int64) []string {
	k := New(seed)
	rng := rand.New(rand.NewSource(seed))
	var out []string
	var handles []TimerHandle
	id := 0
	for i := 0; i < 200; i++ {
		id++
		n := id
		h := k.At(Time(rng.Intn(5000)), func() {
			out = append(out, fmt.Sprintf("%d@%d", n, k.Now()))
		})
		handles = append(handles, h)
		if rng.Intn(3) == 0 && len(handles) > 0 {
			handles[rng.Intn(len(handles))].Cancel()
		}
	}
	for i := 0; i < 5; i++ {
		i := i
		tk := k.Every(Time(rng.Intn(100)), Time(1+rng.Intn(400)), func() {
			out = append(out, fmt.Sprintf("t%d@%d", i, k.Now()))
		})
		k.At(Time(rng.Intn(5000)), tk.Stop)
	}
	k.Run(5000)
	return out
}

func traceHash(trace []string) uint64 {
	var h uint64 = 14695981039346656037
	for _, s := range trace {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= '\n'
		h *= 1099511628211
	}
	return h
}

// goldenTraceHash locks the kernel's event ordering bit-for-bit: same-time
// FIFO, lazy cancellation and ticker rescheduling must never change for a
// fixed seed. Regenerate deliberately (and note it in the changelog) if
// the kernel's scheduling semantics are intentionally revised.
const goldenTraceHash uint64 = 0xb8223156381646bb

func TestGoldenTraceDeterminism(t *testing.T) {
	a, b := traceRun(42), traceRun(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
	if got := traceHash(a); got != goldenTraceHash {
		t.Fatalf("golden trace hash = %#x, want %#x (kernel scheduling changed)", got, goldenTraceHash)
	}
	if traceHash(traceRun(43)) == goldenTraceHash {
		t.Fatal("different seed reproduced the golden trace")
	}
}

// Slab reuse across a long run must keep the slot arena and the wheel's node
// slab bounded: each firing or cancellation frees its slot, each pop its
// node, for the next scheduling.
func TestSlabReuseBoundsArena(t *testing.T) {
	k := New(1)
	var chain func()
	count := 0
	chain = func() {
		count++
		if count < 1000 {
			k.After(1, chain)
		}
	}
	k.After(0, chain)
	k.Run(Time(5000))
	if count != 1000 {
		t.Fatalf("count = %d", count)
	}
	if len(k.slots) > 4 || len(k.near.nodes) > 4 {
		t.Fatalf("arena grew to %d slots, %d wheel nodes for a 1-deep chain", len(k.slots), len(k.near.nodes))
	}
}
