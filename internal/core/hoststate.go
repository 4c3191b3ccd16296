package core

import (
	"fmt"
	"slices"

	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// This file holds the behaviour of the per-participant record (host.go):
// its lifecycle phase and the one transition that changes it, latch bits,
// the rarely-needed state behind its two pointers, the one list of its
// timers, and its bound failure-detection callbacks.

// phase is where a host stands in the participant lifecycle: the paper's
// three roles (client, content peer of c(ws,loc), directory d(ws,loc)) and
// the warm standby, then the origin server, then the two ends of a crash, in
// that order. Each phase fixes which role pointers are set, which timers run
// and whether the network has the host up (the auditor's invariant).
type phase uint8

const (
	phClient    phase = iota // no role: never joined, or since a §5.4 leave or a revival
	phMember                 // content peer of c(ws,loc)
	phStandby                // content peer keeping a warm replica of its directory
	phDirectory              // d(ws,loc); a content peer too after a §5.2 replacement
	phServer                 // origin server: never fails, never joins
	phDead                   // crashed client or member, or departed directory: revivable
	phGone                   // crashed directory: keeps its D-ring node, not its index; never revived
)

func (p phase) String() string {
	return [...]string{"client", "member", "standby", "directory", "server", "dead", "gone"}[p]
}

// legalNext is the transition table: §3.2 join (→ member), designation and
// revocation of a standby, §5.2 replacement, promotion and hand-over
// (→ directory), §5.4 leave and revival (→ client), crash and departure.
var legalNext = [...][]phase{
	phClient:    {phMember, phDirectory, phDead},
	phMember:    {phStandby, phDirectory, phClient, phDead},
	phStandby:   {phMember, phDirectory, phClient, phDead},
	phDirectory: {phDead, phGone},
	phDead:      {phClient},
}

// transition moves h to phase to, panicking on a move legalNext does not
// list, and tears down what h leaves: a standby's watchdog and replica, its
// membership on a §5.4 leave (objects kept for the next overlay), everything
// on a crash or departure, and on a revival the record but its identity.
// Set-up is the caller's.
func (s *System) transition(h *host, to phase) {
	from := h.phase
	if !slices.Contains(legalNext[from], to) {
		panic(fmt.Sprintf("core: host %d cannot move from %s to %s", h.addr, from, to))
	}
	if r := h.role; from == phStandby {
		r.probeTicker.Stop()
		r.probeTimeout.Cancel()
		r.replica, r.standbyFor = nil, noNode
	}
	switch {
	case to == phDead || to == phGone:
		h.dir = nil // nothing reads a dead directory's index
		if to == phGone {
			s.ring.Fail(h.role.node)
		} else if from == phDirectory { // a departure: its roles were handed over
			h.role.node = nil
		}
		s.net.Fail(h.addr)
		h.stopTimers()
		if h.has(hfAccounted) { // until a revival clears the record
			s.mets.PeerLeft(s.k.Now())
		}
	case from == phDead:
		// Nothing of the last life survives, estimator history included, and
		// its summaries go back; the crash left no timer armed.
		s.net.Recover(h.addr)
		if h.cp != nil {
			h.cp.Leave()
		}
		*h = host{sys: h.sys, addr: h.addr, loc: h.loc}
		if s.adapt != nil {
			s.adapt[h.addr] = adaptiveSlot{}
		}
	case to == phClient:
		// Still an accounted participant; it rejoins on its next query.
		h.rarely().stash = h.cp.Objects()
		h.cp.Leave()
		h.cp = nil
		h.round.Stop()
		h.deadline.Cancel()
		h.flags &^= hfAwait
	}
	h.phase = to
}

// plainPeer reports a live content peer that is no directory: a member or
// a standby.
func (h *host) plainPeer() bool { return h.phase == phMember || h.phase == phStandby }

// watches reports whether h is the warm standby of primary.
func (h *host) watches(primary simnet.NodeID) bool {
	return h.phase == phStandby && h.role.standbyFor == primary
}

// hostFlag packs the per-host latch bits.
type hostFlag uint8

const (
	// hfLocOverride marks a §5.4 locality change: rare.assignedLoc replaces
	// the measured locality.
	hfLocOverride hostFlag = 1 << iota
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
func (h *host) timers() (oneShot [3]simkernel.TimerHandle, periodic [3]simkernel.Ticker) {
	oneShot[0], periodic[0] = h.deadline, h.round
	if r := h.rare; r != nil {
		oneShot[1] = r.joinTimer
	}
	if r := h.role; r != nil {
		oneShot[2], periodic[1], periodic[2] = r.probeTimeout, r.round, r.probeTicker
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
	if !h.plainPeer() || h.cp.Dir().Known {
		return // no plain peer any more, or a directory answered meanwhile
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
	if !h.plainPeer() || h.cp.Dir().Known || h.has(hfJoinInFlight) {
		return
	}
	s.attemptDirJoin(h, h.cp.Site(), h.cp.Locality())
}
