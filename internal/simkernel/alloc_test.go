package simkernel

import (
	"fmt"
	"testing"
)

// The simulate-one-event path must be allocation-free: scheduling links a
// plain event record into a wheel bucket (a recycled slab node) or pushes it
// onto the hand-rolled far heap (no container/heap boxing), into a recycled
// arena slot, and firing returns slot and node to their free lists. Any
// regression here multiplies across the millions of events a campaign
// processes.
func TestHotPathAllocs(t *testing.T) {
	k := New(1)
	fn := func() {}
	sink := uint64(0)
	argFn := func(a uint64) { sink += a }

	// Both sides of the horizon: the wheel, and the far heap.
	for _, c := range []struct {
		name string
		d    Time
	}{{"near", 1}, {"far", wheelSize}} {
		// Warm the arena, the node slab and the heap to steady-state capacity.
		for i := 0; i < 64; i++ {
			k.After(c.d, fn)
		}
		k.Run(k.Now() + c.d)
		for _, op := range []struct {
			name string
			do   func()
		}{
			{"schedule+fire", func() { k.After(c.d, fn) }},
			{"scheduleArg+fire", func() { k.AfterArg(c.d, argFn, 7) }},
			{"schedule+cancel", func() { k.After(c.d, fn).Cancel() }}, // Run elides the dead record
		} {
			t.Run(c.name+" "+op.name, func(t *testing.T) {
				before := k.QueueStats()
				if avg := testing.AllocsPerRun(200, func() {
					op.do()
					k.Run(k.Now() + c.d)
				}); avg != 0 {
					t.Fatalf("allocates %.1f/op, want 0", avg)
				}
				q := k.QueueStats()
				took := q.NearFired + q.NearElided - before.NearFired - before.NearElided
				other := q.FarFired + q.FarElided - before.FarFired - before.FarElided
				if c.d >= wheelSize {
					took, other = other, took
				}
				if took < 200 || other != 0 {
					t.Fatalf("the measured runs popped %d %s records and %d of the other class", took, c.name, other)
				}
			})
		}
	}

	t.Run("periodic re-arm", func(t *testing.T) {
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

// BenchmarkKernelHold is the hold model under the delay mix the bench
// workloads were measured to have (README "Performance", PR 15): depth
// records stay pending, each firing schedules its successor — 95 % of them a
// message or deadline 10 ms–2 s out, the rest 5 s–2 min out — and three in
// ten pushed records are deadlines cancelled before they fire, left for Run
// to elide. bench/'s event_ns_d100k driver draws delays uniformly up to
// 200 s, a regime no workload has.
func BenchmarkKernelHold(b *testing.B) {
	for _, depth := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			k := New(1)
			fired, target := 0, 0
			noop := func(uint64) {}
			var fire func(uint64)
			fire = func(arg uint64) {
				arg = Mix64(arg)
				d := 10 + Time(arg>>8%1990)
				if arg%100 < 5 {
					d = 5*Second + Time(arg>>8%uint64(115*Second))
				}
				k.AfterArg(d, fire, arg)
				if arg>>40%7 < 3 { // 3 of every 10 pushes
					k.AfterArg(2*d+50, noop, 0).Cancel()
				}
				if fired++; fired == target {
					k.Stop()
				}
			}
			for i := 0; i < depth; i++ {
				fire(uint64(i))
			}
			k.Run(2 * Minute) // past the start-up transient, slabs warm
			b.ReportAllocs()
			b.ResetTimer()
			fired, target = 0, b.N
			k.Run(1 << 60)
		})
	}
}
