package simkernel

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := New(1)
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.Run(100)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(50, func() { got = append(got, i) })
	}
	k.Run(100)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	k := New(1)
	var at Time
	k.At(42, func() { at = k.Now() })
	k.Run(100)
	if at != 42 {
		t.Fatalf("Now() inside event = %d, want 42", at)
	}
	if k.Now() != 100 {
		t.Fatalf("Now() after Run = %d, want 100 (idle advance)", k.Now())
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	k := New(1)
	var order []string
	k.At(10, func() {
		k.At(5, func() { order = append(order, "late") }) // in the past
		order = append(order, "first")
	})
	k.Run(100)
	if len(order) != 2 || order[0] != "first" || order[1] != "late" {
		t.Fatalf("order = %v", order)
	}
}

func TestAfter(t *testing.T) {
	k := New(1)
	var fired Time = -1
	k.At(100, func() {
		k.After(25, func() { fired = k.Now() })
	})
	k.Run(1000)
	if fired != 125 {
		t.Fatalf("After fired at %d, want 125", fired)
	}
}

func TestRunUntilBoundary(t *testing.T) {
	k := New(1)
	ran := 0
	k.At(100, func() { ran++ })
	k.At(101, func() { ran++ })
	n := k.Run(100)
	if n != 1 || ran != 1 {
		t.Fatalf("events at until should run: n=%d ran=%d", n, ran)
	}
	n = k.Run(200)
	if n != 1 || ran != 2 {
		t.Fatalf("remaining event should run on next Run: n=%d ran=%d", n, ran)
	}
}

func TestTicker(t *testing.T) {
	k := New(1)
	var fires []Time
	tk := k.Every(10, 25, func() { fires = append(fires, k.Now()) })
	k.At(70, func() { tk.Stop() })
	k.Run(500)
	want := []Time{10, 35, 60}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
	if !tk.Stopped() {
		t.Fatal("ticker should report stopped")
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	k := New(1)
	count := 0
	var tk Ticker
	tk = k.Every(0, 10, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	k.Run(1000)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestStopAbortsRun(t *testing.T) {
	k := New(1)
	count := 0
	for i := 0; i < 10; i++ {
		k.At(Time(i*10), func() {
			count++
			if count == 4 {
				k.Stop()
			}
		})
	}
	k.Run(1000)
	if count != 4 {
		t.Fatalf("count = %d, want 4 (Run should abort)", count)
	}
	if k.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", k.Pending())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		k := New(seed)
		var vals []int64
		k.Every(0, 7, func() { vals = append(vals, k.Rand().Int63n(1000)) })
		k.Run(100)
		return vals
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism broken at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDeriveRNGIndependence(t *testing.T) {
	k := New(7)
	a := k.DeriveRNG("alpha")
	b := k.DeriveRNG("beta")
	if a.Int63() == b.Int63() && a.Int63() == b.Int63() {
		t.Fatal("derived streams should differ")
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		250:                 "250ms",
		Second:              "1s",
		90 * Second:         "1m30s",
		Minute:              "1m",
		Hour:                "1h",
		Hour + 30*Minute:    "1h30m",
		24 * Hour:           "24h",
		2*Minute + 5*Second: "2m5s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("Time(%d).String() = %q, want %q", in, got, want)
		}
	}
}

// Property: for any set of (time, id) pairs, the kernel fires them sorted
// by time, with ties in insertion order.
func TestQuickEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		k := New(1)
		type rec struct {
			at  Time
			idx int
		}
		var fired []rec
		for i, tt := range times {
			i, at := i, Time(tt)
			k.At(at, func() { fired = append(fired, rec{k.Now(), i}) })
		}
		k.Run(Time(1 << 17))
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].idx < fired[i-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSecondsConversion(t *testing.T) {
	if got := (90 * Second).Seconds(); got != 90 {
		t.Fatalf("Seconds = %v, want 90", got)
	}
}

func TestAfterNegativeClamped(t *testing.T) {
	k := New(1)
	fired := Time(-1)
	k.At(50, func() {
		k.After(-10, func() { fired = k.Now() })
	})
	k.Run(100)
	if fired != 50 {
		t.Fatalf("negative After fired at %d, want 50 (clamped to now)", fired)
	}
}

func TestSchedulingPanics(t *testing.T) {
	k := New(1)
	for name, fn := range map[string]func(){
		"nil event":   func() { k.At(1, nil) },
		"zero period": func() { k.Every(0, 0, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestProcessedCounter(t *testing.T) {
	k := New(1)
	for i := 0; i < 5; i++ {
		k.At(Time(i), func() {})
	}
	k.Run(100)
	if k.Processed() != 5 {
		t.Fatalf("processed = %d, want 5", k.Processed())
	}
}
