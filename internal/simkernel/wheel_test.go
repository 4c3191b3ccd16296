package simkernel

import (
	"sort"
	"testing"
)

// Four revolutions of the wheel under bursts of same-millisecond records at
// delays that land on word and wheel boundaries: every record fires at its
// own instant, the whole sequence is (time, scheduling order), NextEvent
// names each next instant without moving anything, and freed nodes are
// reused, so the slab stays at the high-water of what was pending at once.
func TestWheelWrapsInOrder(t *testing.T) {
	k := New(1)
	type rec struct {
		at Time
		id int
	}
	var want, got []rec
	delays := []Time{0, 1, 63, 64, 65, wheelSize / 2, wheelSize - 65, wheelSize - 1}
	var driver func()
	driver = func() {
		for _, d := range delays {
			for burst := 0; burst < 3; burst++ {
				r := rec{k.Now() + d, len(want)}
				want = append(want, r)
				k.After(d, func() {
					if k.Now() != r.at {
						t.Errorf("record %d due at %d fired at %d", r.id, r.at, k.Now())
					}
					got = append(got, r)
				})
			}
		}
		if k.Now() < 4*wheelSize {
			k.After(97, driver) // coprime to the wheel: the bursts walk every bucket phase
		}
	}
	k.After(0, driver)
	for {
		at, ok := k.NextEvent()
		if !ok {
			break
		}
		if k.Run(at) == 0 || k.Now() != at {
			t.Fatalf("NextEvent named %d, but Run(%d) fired nothing or stopped at %d", at, at, k.Now())
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != len(want) || len(want) < 4000 {
		t.Fatalf("fired %d of %d records", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire %d is record %d@%d, want %d@%d", i, got[i].id, got[i].at, want[i].id, want[i].at)
		}
	}
	if q := k.QueueStats(); q.FarFired != 0 || k.near.summary != 0 {
		t.Fatalf("records left the wheel's path (%+v) or its bitmap is not clear (%#x)", q, k.near.summary)
	}
	// At most wheelSize/97+1 driver rounds of 24 records are pending at once.
	if bound := 24*(wheelSize/97+2) + 2; len(k.near.nodes) > bound {
		t.Fatalf("node slab grew to %d for at most %d pending records", len(k.near.nodes), bound)
	}
}
