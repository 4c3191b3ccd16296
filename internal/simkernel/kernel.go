// Package simkernel implements a deterministic discrete-event simulation
// kernel, the substrate that replaces PeerSim in the paper's evaluation.
//
// The kernel keeps a virtual clock in milliseconds and a queue of pending
// (time, seq, slot, gen) records popped in (time, seq) order: events
// scheduled for the same instant fire in scheduling order (FIFO), so runs
// with the same seed are bit-for-bit reproducible. All protocol code in this
// repository executes inside kernel events; nothing observes wall-clock time.
//
// The queue has three classes, and Run takes the earliest of their heads
// under the one (time, seq) order — the total order one big heap would yield,
// so the classes change no pop sequence:
//
//   - the wheel (wheel.go): one-shots, and first firings of periodic timers,
//     due less than wheelSize ms after now — messages in flight, armed
//     deadlines, the query pump; nearly all of them. A one-millisecond bucket
//     holds one instant and is appended in scheduling order, so it is sorted
//     by construction; schedule, peek and pop are O(1).
//   - the far heap, a hand-rolled 4-ary min-heap (container/heap boxes every
//     record through `any`): the same records when due a horizon or more
//     ahead. They stay there until they fire; nothing migrates.
//   - up to maxLanes FIFO lanes. A periodic timer (Every/EveryArg) is a slot
//     that carries its period: after each callback returns Run itself stamps
//     the next firing (now+period, next seq) onto the lane of that period.
//     The clock never runs backwards and seq only grows, so a lane is sorted
//     by construction too. A period that finds every lane taken re-arms
//     through the heap, as would a record that broke its lane's order.
//
// Callbacks live in a reusable slot arena. Scheduling returns a TimerHandle
// (a Ticker for periodic timers) that cancels in O(1): the dead record is
// elided lazily when it surfaces at a head, and generation counters make
// handles ABA-safe across slot reuse. The wheel is a fixed ~17 KB per kernel;
// lane rings and the wheel's node slab only ever grow. Scheduling, firing and
// periodic re-arming allocate nothing in steady state (TestHotPathAllocs).
package simkernel

import (
	"fmt"
	"math/rand"
)

// Time is a simulated timestamp or duration in milliseconds.
type Time int64

// Handy durations.
const (
	Millisecond Time = 1
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds converts a simulated duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders a Time compactly, e.g. "1h30m", "250ms".
func (t Time) String() string {
	switch {
	case t >= Hour && t%Minute == 0:
		if t%Hour == 0 {
			return fmt.Sprintf("%dh", t/Hour)
		}
		return fmt.Sprintf("%dh%dm", t/Hour, (t%Hour)/Minute)
	case t >= Minute && t%Second == 0:
		if t%Minute == 0 {
			return fmt.Sprintf("%dm", t/Minute)
		}
		return fmt.Sprintf("%dm%ds", t/Minute, (t%Minute)/Second)
	case t >= Second && t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	default:
		return fmt.Sprintf("%dms", t)
	}
}

// event is one queue record. The callback itself lives in the slot arena so
// heap moves copy four words, not a closure header.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for events at the same instant
	slot uint32
	gen  uint32
}

// before is the (at, seq) order the wheel, the heap and the lanes share. seq
// is unique, so the order is total and every correct queue yields the same
// pop sequence — the golden-trace test holds across queue-shape changes.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a 4-ary min-heap ordered by before.
type eventHeap []event

// push appends e and sifts it up. No boxing, no interface calls.
func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// pop removes and returns the minimum. Caller checks emptiness via peek.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].before(q[best]) {
				best = j
			}
		}
		if !q[best].before(q[i]) {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	*h = q
	return top
}

func (h eventHeap) peek() (event, bool) { // caller checks Len first
	if len(h) == 0 {
		return event{}, false
	}
	return h[0], true
}

// maxLanes caps the distinct periods that get a FIFO lane; a periodic timer
// of any further period re-arms through the heap.
const maxLanes = 8

// lane is a ring buffer of the pending re-arm records of one period. Each is
// stamped (now+period, next seq), so they arrive already sorted by (at, seq):
// push and pop are O(1) and the head is the lane's minimum.
type lane struct {
	period Time
	ring   []event // power-of-two length, doubled when full
	head   int
	n      int
}

func (l *lane) at(i int) *event { return &l.ring[(l.head+i)&(len(l.ring)-1)] }

func (l *lane) push(e event) {
	if l.n == len(l.ring) {
		grown := make([]event, max(64, 2*l.n))
		c := copy(grown, l.ring[l.head:])
		copy(grown[c:], l.ring[:l.head])
		l.ring, l.head = grown, 0
	}
	l.n++
	*l.at(l.n - 1) = e
}

// timerSlot is one arena cell. gen increments every time the slot is
// handed out, so stale queue records and stale handles can be recognised.
// A slot carries either a plain callback (fn) or an argument-taking
// callback (argFn + arg); the latter lets long-lived callers schedule with
// a reusable function value instead of a fresh closure, so the whole
// schedule→fire round trip performs zero heap allocations. period > 0
// marks a periodic timer: the slot (and so the handle) survives its firings
// and Run re-arms it after each callback until it is cancelled.
type timerSlot struct {
	gen    uint32
	live   bool
	fn     func()
	argFn  func(uint64)
	arg    uint64
	period Time
}

// TimerHandle identifies a scheduled timer. The zero value is inert:
// Cancel and Active on it are safe no-ops. Handles stay valid (and
// harmless) after the timer fires or is cancelled — the generation
// counter prevents a stale handle from touching a reused slot.
type TimerHandle struct {
	k    *Kernel
	slot uint32
	gen  uint32
}

// Cancel revokes the timer if it has not fired yet. It reports whether
// this call actually cancelled it; cancelling a fired, already-cancelled
// or zero handle is a no-op returning false.
func (h TimerHandle) Cancel() bool {
	if h.k == nil {
		return false
	}
	s := &h.k.slots[h.slot]
	if s.gen != h.gen || !s.live {
		return false
	}
	s.live = false
	s.fn = nil
	s.argFn = nil
	s.period = 0
	h.k.free = append(h.k.free, h.slot)
	h.k.live--
	h.k.cancelled++
	return true
}

// Active reports whether the timer is still scheduled to fire.
func (h TimerHandle) Active() bool {
	if h.k == nil {
		return false
	}
	s := &h.k.slots[h.slot]
	return s.gen == h.gen && s.live
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; construct with New.
type Kernel struct {
	now   Time
	near  wheel     // one-shots and first firings due within wheelSize ms
	queue eventHeap // those due later (the far heap), lane overflow
	seq   uint64

	lanes   [maxLanes]lane // claimed in index order; period 0 = unclaimed
	minLane *lane          // non-empty lane with the earliest head, or nil

	slots []timerSlot
	free  []uint32 // reusable slot indices
	live  int      // scheduled-and-not-cancelled timers

	seed      int64
	rng       *rand.Rand
	processed uint64
	periodic  uint64
	cancelled uint64
	popped    [3]uint64 // records taken off each queue class (src* index)
	elided    [3]uint64 // of popped: dead records skipped
	farPeak   int       // far-heap high-water
	stopped   bool
}

// The queue classes a pending record can sit in; they index popped and elided.
const srcWheel, srcHeap, srcLane = 0, 1, 2

// New returns a kernel whose clock starts at 0 and whose PRNG is seeded
// deterministically from seed.
func New(seed int64) *Kernel {
	return &Kernel{seed: seed, rng: rand.New(rand.NewSource(seed)), near: wheel{nodes: make([]wheelNode, 1)}}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the seed the kernel was constructed with.
func (k *Kernel) Seed() int64 { return k.seed }

// Rand exposes the kernel's deterministic PRNG. Components that need an
// independent stream should derive one with DeriveRNG instead.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Mix64 is the splitmix64 finalizer: a bijective avalanche mix used to
// derive independent, reproducible seeds from structured inputs. Every
// seed-derivation scheme in this repository must route through it so the
// mixing function can only ever be tuned in one place.
func Mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveRNG returns a new PRNG that is a pure function of (kernel seed,
// label): adding, removing or reordering other DeriveRNG consumers does
// not perturb the draws seen by existing consumers, and the same (seed,
// label) pair always yields the same stream.
func (k *Kernel) DeriveRNG(label string) *rand.Rand {
	var h uint64 = 14695981039346656037 // FNV-1a over the label
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(int64(Mix64(uint64(k.seed) ^ h))))
}

// Processed reports how many events have fired so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// PeriodicFired reports how many of the Processed events were firings of
// periodic timers (Every/EveryArg); the rest were one-shots.
func (k *Kernel) PeriodicFired() uint64 { return k.periodic }

// Cancelled reports how many timers were revoked before firing.
func (k *Kernel) Cancelled() uint64 { return k.cancelled }

// Elided reports how many dead records were skipped during Run — the
// queue garbage that lazy deletion absorbed.
func (k *Kernel) Elided() uint64 { return k.elided[srcWheel] + k.elided[srcHeap] + k.elided[srcLane] }

// QueueStats splits the records Run has popped by the queue class that held
// them: fired and elided from the wheel (near) and from the far heap — the
// rest of Processed and Elided came off the lanes — and the far heap's
// high-water length. Deterministic per seed.
type QueueStats struct {
	NearFired, FarFired, NearElided, FarElided uint64
	FarHeapPeak                                int
}

func (k *Kernel) QueueStats() QueueStats {
	return QueueStats{
		NearFired:   k.popped[srcWheel] - k.elided[srcWheel],
		FarFired:    k.popped[srcHeap] - k.elided[srcHeap],
		NearElided:  k.elided[srcWheel],
		FarElided:   k.elided[srcHeap],
		FarHeapPeak: k.farPeak,
	}
}

// Pending reports how many live timers are waiting to fire. Cancelled
// entries still occupying the queue are not counted.
func (k *Kernel) Pending() int { return k.live }

// NextEvent returns the timestamp of the earliest pending record, if any.
// The record may be a lazily-cancelled timer that will be elided without
// firing, so the returned time is a lower bound on the next real event.
// Nothing in a run calls it: the reference-model tests use it to check the
// three queues' merged order from outside.
func (k *Kernel) NextEvent() (Time, bool) {
	ev, _, ok := k.peek()
	return ev.at, ok
}

// peek returns the earliest pending record and the queue class holding it:
// the minimum under before of the wheel's first record, the far heap's top
// and the cached earliest lane head. It moves nothing.
func (k *Kernel) peek() (ev event, src int, ok bool) {
	ev, ok = k.near.peek(k.now)
	if far, fok := k.queue.peek(); fok && (!ok || far.before(ev)) {
		ev, src, ok = far, srcHeap, true
	}
	if l := k.minLane; l != nil && (!ok || l.at(0).before(ev)) {
		return *l.at(0), srcLane, true
	}
	return ev, src, ok
}

// popLane drops the head of l (the current minLane) and re-elects minLane.
func (k *Kernel) popLane(l *lane) {
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	k.minLane = nil
	for i := range k.lanes {
		if c := &k.lanes[i]; c.n > 0 && (k.minLane == nil || c.at(0).before(*k.minLane.at(0))) {
			k.minLane = c
		}
	}
}

// rearm queues a periodic slot's next firing on the lane of its period (or a
// free one), or on the heap if none is left or the lane's order would break.
func (k *Kernel) rearm(slot, gen uint32, period Time) {
	k.seq++
	e := event{at: k.now + period, seq: k.seq, slot: slot, gen: gen}
	for i := range k.lanes {
		l := &k.lanes[i]
		if l.period != period && l.period != 0 {
			continue
		}
		if l.n > 0 && l.at(l.n-1).at > e.at {
			break
		}
		l.period = period
		l.push(e)
		if l.n == 1 && (k.minLane == nil || e.before(*k.minLane.at(0))) {
			k.minLane = l
		}
		return
	}
	k.queue.push(e)
}

// alloc takes a slot from the free list (or grows the arena) and bumps its
// generation. The caller installs the callback.
func (k *Kernel) alloc() uint32 {
	var slot uint32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slots = append(k.slots, timerSlot{})
		slot = uint32(len(k.slots) - 1)
	}
	s := &k.slots[slot]
	s.gen++
	s.live = true
	return slot
}

// schedule queues a record for an already-allocated slot: wheel or far heap.
func (k *Kernel) schedule(t Time, slot uint32) TimerHandle {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.live++
	gen := k.slots[slot].gen
	e := event{at: t, seq: k.seq, slot: slot, gen: gen}
	if t-k.now < wheelSize {
		k.near.push(e)
	} else {
		k.queue.push(e)
		k.farPeak = max(k.farPeak, len(k.queue))
	}
	return TimerHandle{k: k, slot: slot, gen: gen}
}

// At schedules fn to run at absolute time t and returns a cancellable
// handle. Scheduling in the past (or at the present instant) runs the
// event at the current time, after events already queued for that time.
func (k *Kernel) At(t Time, fn func()) TimerHandle {
	if fn == nil {
		panic("simkernel: nil event function")
	}
	slot := k.alloc()
	k.slots[slot].fn = fn
	return k.schedule(t, slot)
}

// After schedules fn to run d milliseconds from now.
func (k *Kernel) After(d Time, fn func()) TimerHandle {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// AtArg schedules fn(arg) at absolute time t. Unlike At, the callback takes
// its context as an explicit argument, so a long-lived fn (a bound method
// value created once) schedules without building a capturing closure — the
// allocation-free path the network's message delivery rides on.
func (k *Kernel) AtArg(t Time, fn func(uint64), arg uint64) TimerHandle {
	if fn == nil {
		panic("simkernel: nil event function")
	}
	slot := k.alloc()
	s := &k.slots[slot]
	s.argFn = fn
	s.arg = arg
	return k.schedule(t, slot)
}

// AfterArg schedules fn(arg) d milliseconds from now.
func (k *Kernel) AfterArg(d Time, fn func(uint64), arg uint64) TimerHandle {
	if d < 0 {
		d = 0
	}
	return k.AtArg(k.now+d, fn, arg)
}

// Ticker is the handle of a periodic timer. The zero value is inert and
// reports Stopped.
type Ticker TimerHandle

// Every is EveryArg for a plain closure, for low-volume callers.
func (k *Kernel) Every(start, period Time, fn func()) Ticker {
	return k.EveryArg(start, period, func(uint64) { fn() }, 0)
}

// EveryArg schedules fn(arg) to run every period, first after start (an
// ordinary one-shot record); Run re-arms it each time the callback returns.
func (k *Kernel) EveryArg(start, period Time, fn func(uint64), arg uint64) Ticker {
	if period <= 0 {
		panic("simkernel: non-positive ticker period")
	}
	h := k.AfterArg(start, fn, arg)
	k.slots[h.slot].period = period
	return Ticker(h)
}

// Stop cancels the ticker, revoking its pending firing. Safe to call
// multiple times, including from inside the ticker's own callback.
func (t Ticker) Stop() { TimerHandle(t).Cancel() }

// Stopped reports whether the ticker no longer fires.
func (t Ticker) Stopped() bool { return !TimerHandle(t).Active() }

// Run executes events in timestamp order until the queue is empty, the
// clock reaches until, or Stop is called. Events scheduled exactly at
// until do run. It returns the number of events processed by this call;
// lazily-deleted (cancelled) records are skipped without firing, without
// advancing the clock and without being counted.
func (k *Kernel) Run(until Time) uint64 {
	k.stopped = false
	var n uint64
	for !k.stopped {
		ev, src, ok := k.peek()
		if !ok || ev.at > until {
			break
		}
		switch src {
		case srcWheel:
			k.near.pop(ev.at)
		case srcHeap:
			k.queue.pop()
		default:
			k.popLane(k.minLane)
		}
		k.popped[src]++
		s := &k.slots[ev.slot]
		if s.gen != ev.gen || !s.live {
			k.elided[src]++
			continue
		}
		fn, argFn, arg, period := s.fn, s.argFn, s.arg, s.period
		if period == 0 {
			s.live = false
			s.fn = nil
			s.argFn = nil
			k.free = append(k.free, ev.slot)
			k.live--
		}
		k.now = ev.at
		if argFn != nil {
			argFn(arg)
		} else {
			fn()
		}
		n++
		k.processed++
		if period > 0 {
			k.periodic++
			// Unless the callback stopped it (the slot may already be re-let).
			if s := &k.slots[ev.slot]; s.gen == ev.gen && s.live {
				k.rearm(ev.slot, ev.gen, period)
			}
		}
	}
	if k.now < until && !k.stopped {
		k.now = until // idle time passes even with an empty queue
	}
	return n
}

// Stop aborts a Run in progress after the current event returns.
func (k *Kernel) Stop() { k.stopped = true }
