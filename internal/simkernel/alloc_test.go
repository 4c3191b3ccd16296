package simkernel

import "testing"

// The simulate-one-event path must be allocation-free: scheduling pushes a
// plain event record onto the hand-rolled heap (no container/heap boxing)
// into a recycled arena slot, and firing returns the slot to the free
// list. Any regression here multiplies across the millions of events a
// campaign processes.
func TestHotPathAllocs(t *testing.T) {
	k := New(1)
	fn := func() {}

	// Warm the arena and heap to steady-state capacity.
	for i := 0; i < 64; i++ {
		k.After(1, fn)
	}
	k.Run(k.Now() + 10)

	t.Run("schedule+fire", func(t *testing.T) {
		if avg := testing.AllocsPerRun(200, func() {
			k.After(1, fn)
			k.Run(k.Now() + 1)
		}); avg != 0 {
			t.Fatalf("schedule+fire allocates %.1f/op, want 0", avg)
		}
	})

	t.Run("scheduleArg+fire", func(t *testing.T) {
		sink := uint64(0)
		argFn := func(a uint64) { sink += a }
		if avg := testing.AllocsPerRun(200, func() {
			k.AfterArg(1, argFn, 7)
			k.Run(k.Now() + 1)
		}); avg != 0 {
			t.Fatalf("AtArg schedule+fire allocates %.1f/op, want 0", avg)
		}
	})

	t.Run("schedule+cancel", func(t *testing.T) {
		if avg := testing.AllocsPerRun(200, func() {
			h := k.After(1, fn)
			h.Cancel()
			k.Run(k.Now() + 1) // elide the dead record
		}); avg != 0 {
			t.Fatalf("schedule+cancel allocates %.1f/op, want 0", avg)
		}
	})

	t.Run("periodic re-arm", func(t *testing.T) {
		sink := uint64(0)
		argFn := func(a uint64) { sink += a }
		var tks [2 * maxLanes]Ticker // lanes and the heap fallback alike
		for i := range tks {
			tks[i] = k.EveryArg(1, Time(1+i), argFn, 1)
		}
		k.Run(k.Now() + 64) // lane rings reach capacity
		fired := k.PeriodicFired()
		if avg := testing.AllocsPerRun(200, func() { k.Run(k.Now() + 1) }); avg != 0 {
			t.Fatalf("periodic fire+re-arm allocates %.1f/op, want 0", avg)
		}
		if k.PeriodicFired()-fired < 200 {
			t.Fatal("the measured runs fired no periodic timers")
		}
		for _, tk := range tks {
			tk.Stop()
		}
	})
}

// BenchmarkKernelSchedule measures the full schedule→fire round trip. The
// allocs/op report is the regression gate CI watches alongside
// TestHotPathAllocs.
func BenchmarkKernelSchedule(b *testing.B) {
	k := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.After(1, fn)
	}
	k.Run(k.Now() + 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(1, fn)
		k.Run(k.Now() + 1)
	}
}

// BenchmarkKernelScheduleBurst pushes 1024 timers before draining, so the
// heap works at depth instead of ping-ponging a single element.
func BenchmarkKernelScheduleBurst(b *testing.B) {
	k := New(1)
	fn := func() {}
	const burst = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := k.Now()
		for j := 0; j < burst; j++ {
			// Spread arrivals so sift paths vary.
			k.At(base+Time((j*2654435761)%4096), fn)
		}
		k.Run(base + 4096)
	}
}
