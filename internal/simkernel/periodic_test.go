package simkernel

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sched is what the property test's scenario driver needs from a kernel;
// the real Kernel and the reference model both provide it.
type sched interface {
	Now() Time
	oneShot(at Time, id int)
	every(start, period Time, id int)
	cancel(id int)
	stop() // cut the Run in progress short after the current event
}

// refKernel is the reference model: every pending record in ONE slice kept
// sorted by (at, seq) — no wheel, no heap, no lanes, no slots, no lazy tricks
// beyond the dead-record skip the kernel documents.
type refKernel struct {
	now                Time
	seq                uint64
	recs               []refRec
	period             map[int]Time // per timer id; 0 = one-shot
	live               map[int]bool
	processed, elided  uint64
	periodic           uint64
	nearFired, nearEl  uint64 // of processed / elided: scheduled under a horizon ahead
	pending, cancelled int
	stopped            bool
	fire               func(id int)
}

type refRec struct {
	at   Time
	seq  uint64
	id   int
	near bool // a schedule() record due less than wheelSize ms after its scheduling
}

func (r *refKernel) Now() Time { return r.now }

func (r *refKernel) push(at Time, id int, near bool) {
	r.seq++
	rec := refRec{at, r.seq, id, near}
	i := sort.Search(len(r.recs), func(i int) bool {
		o := r.recs[i]
		return o.at > rec.at || (o.at == rec.at && o.seq > rec.seq)
	})
	r.recs = append(r.recs, refRec{})
	copy(r.recs[i+1:], r.recs[i:])
	r.recs[i] = rec
}

func (r *refKernel) oneShot(at Time, id int) {
	if at < r.now {
		at = r.now
	}
	r.live[id] = true
	r.pending++
	r.push(at, id, at-r.now < wheelSize)
}

func (r *refKernel) every(start, period Time, id int) {
	r.period[id] = period
	r.oneShot(r.now+start, id)
}

func (r *refKernel) cancel(id int) {
	if r.live[id] {
		r.live[id] = false
		r.pending--
		r.cancelled++
	}
}

func (r *refKernel) stop() { r.stopped = true }

func (r *refKernel) run(until Time) uint64 {
	var n uint64
	r.stopped = false
	for !r.stopped && len(r.recs) > 0 && r.recs[0].at <= until {
		rec := r.recs[0]
		r.recs = r.recs[1:]
		if !r.live[rec.id] {
			r.elided++
			if rec.near {
				r.nearEl++
			}
			continue
		}
		p := r.period[rec.id]
		if p == 0 {
			r.live[rec.id] = false
			r.pending--
		}
		r.now = rec.at
		r.fire(rec.id)
		n++
		r.processed++
		if rec.near {
			r.nearFired++
		}
		if p > 0 {
			r.periodic++
			if r.live[rec.id] {
				r.push(r.now+p, rec.id, false)
			}
		}
	}
	if r.now < until && !r.stopped {
		r.now = until
	}
	return n
}

// realKernel adapts Kernel to sched, spreading one-shots over all four
// scheduling entry points and periodic timers over both.
type realKernel struct {
	*Kernel
	handles map[int]TimerHandle
	fire    func(id int)
	argFn   func(uint64)
}

func (r *realKernel) oneShot(at Time, id int) {
	fn := func() { r.fire(id) }
	switch id % 4 {
	case 0:
		r.handles[id] = r.At(at, fn)
	case 1:
		r.handles[id] = r.After(at-r.Now(), fn)
	case 2:
		r.handles[id] = r.AtArg(at, r.argFn, uint64(id))
	default:
		r.handles[id] = r.AfterArg(at-r.Now(), r.argFn, uint64(id))
	}
}

func (r *realKernel) every(start, period Time, id int) {
	if id%2 == 0 {
		r.handles[id] = TimerHandle(r.Every(start, period, func() { r.fire(id) }))
	} else {
		r.handles[id] = TimerHandle(r.EveryArg(start, period, r.argFn, uint64(id)))
	}
}

func (r *realKernel) cancel(id int) { r.handles[id].Cancel() }
func (r *realKernel) stop()         { r.Stop() }

// scenario is the seeded workload both kernels execute. All its decisions
// come from its own rng, consumed in fire order — so as long as the two
// kernels fire identically they see identical scenarios, and the first
// divergence shows up in the logs.
type scenario struct {
	rng     *rand.Rand
	s       sched
	nextID  int
	isTick  map[int]bool
	chain   map[int]Time // timer id -> instant its firing schedules a one-shot at
	periods []Time
	log     []string
}

// horizonDelays straddle the wheel's horizon: the last near millisecond, the
// first far ones, and whole revolutions, which alias the bucket of now.
var horizonDelays = [...]Time{wheelSize - 1, wheelSize, wheelSize + 1, 2 * wheelSize, 2*wheelSize - 1, 3 * wheelSize}

func newScenario(seed int64, s sched) *scenario {
	sc := &scenario{rng: rand.New(rand.NewSource(seed)), s: s, isTick: map[int]bool{}, chain: map[int]Time{}}
	// More distinct periods than lanes, so some periodic timers re-arm
	// through the heap; multiples of 5 so same-instant ties are common.
	for p := Time(5); len(sc.periods) < maxLanes+4; p += 5 {
		sc.periods = append(sc.periods, p)
	}
	return sc
}

func (sc *scenario) spawn() {
	if sc.nextID >= 3000 {
		return // a supercritical seed must not grow without bound
	}
	sc.nextID++
	id := sc.nextID
	switch sc.rng.Intn(6) {
	case 0, 1:
		sc.isTick[id] = true
		sc.s.every(Time(5*sc.rng.Intn(8)), sc.periods[sc.rng.Intn(len(sc.periods))], id)
	case 2:
		sc.s.oneShot(sc.s.Now()+horizonDelays[sc.rng.Intn(len(horizonDelays))], id)
	default:
		// Absolute times, a few of them in the past (clamped to now).
		sc.s.oneShot(sc.s.Now()+Time(5*sc.rng.Intn(40))-10, id)
	}
}

// tie stages three records for one instant at, a horizon and more away: a
// far one-shot scheduled now, the lane head of a ticker whose first firing
// is one period before at, and a one-shot scheduled from a callback once at
// is near (at that firing's instant or 5 ms earlier, so either of the two
// late records can carry the larger seq). seq alone decides their order.
func (sc *scenario) tie() {
	if sc.nextID >= 3000 {
		return
	}
	now, p := sc.s.Now(), sc.periods[sc.rng.Intn(len(sc.periods))]
	at := now + wheelSize + p + Time(5*sc.rng.Intn(20))
	far, tick, trigger := sc.nextID+1, sc.nextID+2, sc.nextID+3
	sc.nextID += 3
	sc.s.oneShot(at, far)
	sc.isTick[tick] = true
	sc.s.every(at-p-now, p, tick)
	sc.chain[trigger] = at
	sc.s.oneShot(at-p-Time(5*sc.rng.Intn(2)), trigger)
}

func (sc *scenario) cancelRandom() {
	if sc.nextID > 0 {
		sc.s.cancel(1 + sc.rng.Intn(sc.nextID))
	}
}

func (sc *scenario) fire(id int) {
	sc.log = append(sc.log, fmt.Sprintf("%d@%d", id, sc.s.Now()))
	if at, ok := sc.chain[id]; ok && sc.nextID < 3000 {
		sc.nextID++
		sc.s.oneShot(at, sc.nextID)
	}
	switch r := sc.rng.Intn(20); {
	case r < 4:
		sc.spawn()
	case r < 7:
		sc.cancelRandom()
	case r < 9 && sc.isTick[id]:
		sc.s.cancel(id) // stop from own callback ...
		if r == 8 {
			sc.spawn() // ... then restart (likely into the freed slot)
		}
	case r == 19 && sc.rng.Intn(8) == 0:
		sc.s.stop()
	}
}

// TestPeriodicAgainstReferenceModel: fire order, Now() at each fire and the
// Processed/Pending/Elided/PeriodicFired/Cancelled counters and the wheel's
// share of QueueStats match a single-sorted-slice model over random mixes of
// one-shots (near, at now, straddling the wheel's horizon, whole revolutions
// ahead), periodic timers of more periods than there are lanes,
// cancellations, stop-from-own-callback-then-restart, staged
// far-heap/lane/wheel ties on one millisecond, and Run cut at arbitrary
// instants, by Stop, or idling several revolutions forward.
func TestPeriodicAgainstReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		k := New(seed)
		real := &realKernel{Kernel: k, handles: map[int]TimerHandle{}}
		ref := &refKernel{period: map[int]Time{}, live: map[int]bool{}}
		a, b := newScenario(seed, real), newScenario(seed, ref)
		real.fire, ref.fire = a.fire, b.fire
		real.argFn = func(id uint64) { a.fire(int(id)) }

		cut := rand.New(rand.NewSource(seed ^ 0x5eed))
		stops := 0
		for step := 0; step < 60; step++ {
			for i := 1 + cut.Intn(5); i > 0; i-- {
				a.spawn()
				b.spawn()
			}
			if cut.Intn(2) == 0 {
				a.cancelRandom()
				b.cancelRandom()
			}
			if step%15 == 5 {
				a.tie()
				b.tie()
			}
			until := k.Now() + Time(cut.Intn(120))
			if step%15 == 7 {
				until += wheelSize + 100 // the staged tie fires; a revolution passes
			}
			for cuts := 0; ; cuts++ { // a Stop cuts a Run short of until: carry on from there
				if gotAt, ok := k.NextEvent(); ok != (len(ref.recs) > 0) || (ok && gotAt != ref.recs[0].at) {
					t.Fatalf("seed %d step %d: NextEvent = (%d, %v), model has %d records", seed, step, gotAt, ok, len(ref.recs))
				}
				if got, want := k.Run(until), ref.run(until); got != want {
					t.Fatalf("seed %d step %d: Run(%d) fired %d, model %d", seed, step, until, got, want)
				}
				q := k.QueueStats()
				got := [...]uint64{uint64(k.Now()), k.Processed(), uint64(k.Pending()), k.Elided(), k.PeriodicFired(), k.Cancelled(), q.NearFired, q.NearElided}
				want := [...]uint64{uint64(ref.now), ref.processed, uint64(ref.pending), ref.elided, ref.periodic, uint64(ref.cancelled), ref.nearFired, ref.nearEl}
				if got != want {
					t.Fatalf("seed %d step %d: now/processed/pending/elided/periodic/cancelled/near fired/near elided = %v, model %v", seed, step, got, want)
				}
				if k.Now() >= until {
					stops += cuts
					break
				}
			}
		}
		if len(a.log) != len(b.log) {
			t.Fatalf("seed %d: %d fires, model %d", seed, len(a.log), len(b.log))
		}
		for i := range a.log {
			if a.log[i] != b.log[i] {
				t.Fatalf("seed %d: fire %d is %s, model %s", seed, i, a.log[i], b.log[i])
			}
		}
		if len(a.log) < 500 || k.PeriodicFired() == 0 || k.PeriodicFired() == k.Processed() {
			t.Fatalf("seed %d: degenerate scenario (%d fires, %d periodic)", seed, len(a.log), k.PeriodicFired())
		}
		if k.lanes[maxLanes-1].period == 0 {
			t.Fatalf("seed %d: not every lane was claimed, the heap fallback went unexercised", seed)
		}
		if q := k.QueueStats(); q.NearFired == 0 || q.FarFired == 0 || q.NearElided == 0 || q.FarElided == 0 || q.FarHeapPeak == 0 || k.Now() < 3*wheelSize || stops == 0 {
			t.Fatalf("seed %d: a queue class went unexercised (%+v, now %d, %d stops)", seed, q, k.Now(), stops)
		}
	}
}

// A kernel whose only pending record sits in a lane must still report it.
func TestNextEventSeesLaneOnlyRecord(t *testing.T) {
	k := New(1)
	tk := k.Every(5, 10, func() {})
	k.Run(5) // first firing came off the heap; the re-arm went to a lane
	if len(k.queue) != 0 || k.minLane == nil {
		t.Fatalf("setup: heap holds %d records, minLane = %v", len(k.queue), k.minLane)
	}
	if at, ok := k.NextEvent(); !ok || at != 15 {
		t.Fatalf("NextEvent = (%d, %v), want (15, true)", at, ok)
	}
	tk.Stop()
	if at, ok := k.NextEvent(); !ok || at != 15 {
		t.Fatalf("NextEvent after Stop = (%d, %v), want the dead record's (15, true)", at, ok)
	}
	if n := k.Run(100); n != 0 || k.Elided() != 1 || k.Pending() != 0 {
		t.Fatalf("stopped ticker: fired %d, elided %d, pending %d", n, k.Elided(), k.Pending())
	}
	if _, ok := k.NextEvent(); ok {
		t.Fatal("NextEvent reports a record on a drained kernel")
	}
}
