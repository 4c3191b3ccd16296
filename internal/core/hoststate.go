package core

import (
	"slices"

	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// This file holds the behaviour of the per-participant record (host.go):
// role and latch bits, the rarely-needed state behind its two pointers, the
// one list of its timers, and its bound failure-detection callbacks.

// hostFlag packs the per-host role and latch bits.
type hostFlag uint8

const (
	// hfServer marks an origin-server host (never fails, never joins).
	hfServer hostFlag = 1 << iota
	// hfLocOverride marks a §5.4 locality change: rare.assignedLoc replaces
	// the measured locality.
	hfLocOverride
	// hfAccounted marks a participant of the per-peer traffic average.
	hfAccounted
	// hfJoinInFlight latches an outstanding §5.2 directory-join request.
	hfJoinInFlight
	// hfAwaitGossip and hfAwaitKeepalive mark a round's unanswered halves;
	// hfKeepaliveFirst, that the keepalive's timeout is host.firstDue.
	hfAwaitGossip
	hfAwaitKeepalive
	hfKeepaliveFirst
	hfAwait = hfAwaitGossip | hfAwaitKeepalive
)

func (h *host) has(f hostFlag) bool { return h.flags&f != 0 }

func (h *host) isServer() bool { return h.has(hfServer) }

// overlayLocality resolves the effective locality of a host: the measured
// one, unless a §5.4 change overrode it.
func (h *host) overlayLocality() int {
	if h.has(hfLocOverride) {
		return int(h.rare.assignedLoc)
	}
	return int(h.loc)
}

// rarely returns h's rare client state, allocating it on first use.
func (h *host) rarely() *rareState {
	if h.rare == nil {
		h.rare = new(rareState)
		h.rare.admitPending = h.rare.admitRoom[:0]
	}
	return h.rare
}

// dirNode, watched and warm read role state of a host that may hold none at
// all (dirNode even of a nil host): its D-ring node (nil = not on the ring),
// the primary it is warm standby for (0 = none) and its replica of that
// primary's index.
func (h *host) dirNode() *chord.Node {
	if h == nil || h.role == nil {
		return nil
	}
	return h.role.node
}

func (r *dirRole) watched() simnet.NodeID {
	if r == nil {
		return 0
	}
	return r.standbyFor
}

func (r *dirRole) warm() *dring.Directory {
	if r == nil {
		return nil
	}
	return r.replica
}

// maxAdmitPending bounds the per-host pending-admission record: a client
// stuck behind a permanent partition abandons one query after another, and
// without a cap its record would grow with every attempt.
const maxAdmitPending = 32

func (h *host) noteAdmit(ref model.ObjectRef) {
	if h.admitPendingFor(ref) {
		return
	}
	r := h.rarely()
	if p := r.admitPending; len(p) >= maxAdmitPending {
		copy(p, p[1:])
		p[len(p)-1] = ref
		return
	}
	r.admitPending = append(r.admitPending, ref)
}

func (h *host) clearAdmit(ref model.ObjectRef) {
	if r := h.rare; r != nil {
		if i := slices.Index(r.admitPending, ref); i >= 0 {
			r.admitPending = slices.Delete(r.admitPending, i, i+1)
		}
	}
}

func (h *host) admitPendingFor(ref model.ObjectRef) bool {
	return h.rare != nil && slices.Contains(h.rare.admitPending, ref)
}

// timers enumerates every timer the record holds, behind either pointer or
// inline: the armed one-shots and the periodic behaviours. stopTimers and
// the auditor's dead-host check both walk this one list, so a timer added
// to the record and listed here is stopped on a crash and audited; zero
// handles (role or rare state never allocated) are inert.
func (h *host) timers() (oneShot [3]simkernel.TimerHandle, periodic [6]simkernel.Ticker) {
	oneShot[0], periodic[0] = h.deadline, h.round
	if r := h.rare; r != nil {
		oneShot[1] = r.joinTimer
	}
	if r := h.role; r != nil {
		oneShot[2] = r.probeTimeout
		periodic[1], periodic[2], periodic[3] = r.dirTicker, r.stabTicker, r.replTicker
		periodic[4], periodic[5] = r.standbyTicker, r.probeTicker
	}
	return oneShot, periodic
}

// stopTimers cancels every periodic behaviour and armed one-shot timer of
// a host (on failure/leave), so a dead host leaves nothing in the event
// queue, and drops what its last round awaited.
func (h *host) stopTimers() {
	oneShot, periodic := h.timers()
	for _, t := range oneShot {
		t.Cancel()
	}
	for _, t := range periodic {
		t.Stop()
	}
	h.flags &^= hfAwait
}

// reborn makes a revived client a blank slate, not a watchdog for a
// directory it no longer belongs to: everything the record held goes —
// roles, role and rare state, latches, the locality override, the gossip
// partner and directory slot — except its identity.
func (h *host) reborn() {
	*h = host{sys: h.sys, addr: h.addr, loc: h.loc, flags: h.flags & hfServer}
}

// Hardened dir-join retry: how many unanswered requests before giving up,
// and the backoff shape. The latch expiry already means ~15 s of silence,
// so retries start around the partition-scale timescale.
const maxJoinAttempts = 6

// onJoinLatchExpired clears the in-flight directory-join latch when the
// request was lost in a broken ring; an answer cancels this timer. Under
// the hardened config the expiry additionally schedules a backed-off
// retry, so a locality whose join request died inside a partition
// re-volunteers after the heal instead of staying directory-less forever.
func (s *System) onJoinLatchExpired(arg uint64) {
	h := s.hosts[uint32(arg)]
	h.flags &^= hfJoinInFlight
	if !s.Hardened() {
		return
	}
	if h.cp == nil || h.dir != nil || !s.net.Alive(h.addr) {
		return
	}
	if h.cp.Dir().Known {
		return // a directory answered through another channel meanwhile
	}
	r := h.rare // armed this timer, so allocated
	a := r.joinAttempts
	if a >= maxJoinAttempts {
		return
	}
	r.joinAttempts = a + 1
	d := backoffDelay(5*simkernel.Second, int(a), 2*simkernel.Minute)
	d += simkernel.Time(s.rng.Int63n(int64(simkernel.Second)))
	// The latch flag stays cleared while the retry timer is pending: the
	// auditor's invariant is one-directional (latched ⇒ timer armed).
	r.joinTimer.Cancel()
	r.joinTimer = s.k.AfterArg(d, s.joinRetryFn, arg)
}

// onJoinRetry re-issues the §5.2 directory-join request after a backoff,
// re-checking every guard — the position may have been filled, the peer
// may have died or joined a directory itself in the meantime.
func (s *System) onJoinRetry(arg uint64) {
	h := s.hosts[uint32(arg)]
	if h.cp == nil || h.dir != nil || !s.net.Alive(h.addr) {
		return
	}
	if h.cp.Dir().Known || h.has(hfJoinInFlight) {
		return
	}
	s.attemptDirJoin(h, h.cp.Site(), h.cp.Locality())
}
