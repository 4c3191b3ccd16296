package core

import (
	"cmp"
	"fmt"
	"slices"

	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// The invariant auditor is the opt-in consistency checker behind the fault
// plane: scenarios that lose, delay and partition messages exercise every
// recovery path at once, and a bug in any of them tends to corrupt shared
// state long before it shows up in the paper metrics. The auditor walks
//
//   - D-ring successorship (the live-ghost invariant: every live pointer
//     must resolve to the node the ring registers for that ID — a stale
//     pointer to a transplanted or removed node is a routing hole);
//   - every directory's index (the member slab ↔ the holder bit matrix
//     and its counts, see dring.AuditConsistency) and its holder
//     claims against the actual stashes of live same-overlay content peers;
//     a dead directory keeps its index only until its position is taken over;
//   - every host's lifecycle: its phase fixes its role pointers, which
//     timers run and whether the network has it up (a latched dir-join must
//     have its timer armed; dead hosts must leave nothing pending; a round
//     deadline can only be armed on a content peer);
//   - the query await registry (timer armed ⇔ continuation kind set ⇔
//     await-registry slot live ⇔ record live);
//   - every live content peer's gossip view (gossip.View.Check) and own summary.
//
// It is diagnostic-only: it never mutates state, and it allocates freely.

// AuditReport is the outcome of one audit pass.
type AuditReport struct {
	Checks     int
	Violations []string // capped at maxAuditViolations entries
}

const maxAuditViolations = 32

// Audit runs every invariant check and returns the tally. Strict Chord
// successorship is deliberately NOT asserted: after failures the ring
// repairs lazily through stabilization, and a temporarily stale (dead)
// pointer is legal — only live pointers to unregistered nodes are bugs.
func (s *System) Audit() AuditReport {
	var r AuditReport
	fail := func(format string, args ...any) {
		if len(r.Violations) < maxAuditViolations {
			r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
		}
	}

	// --- D-ring live-ghost walk -----------------------------------------
	for addr, h := range s.hosts {
		if h == nil || h.role == nil || h.role.node == nil || !h.role.node.Up() {
			continue
		}
		node := h.role.node
		r.Checks++
		if !s.net.Alive(simnet.NodeID(addr)) {
			fail("ring: node %d is up on the ring but dead on the network", addr)
		}
		r.Checks++
		if s.ring.Lookup(node.ID()) != node {
			fail("ring: node %d (id %d) is not the registered node for its ID", addr, node.ID())
		}
		for _, p := range node.KnownPeers() {
			r.Checks++
			if s.ring.Lookup(p.ID()) != p {
				fail("ring: node %d holds live ghost pointer to id %d (addr %d)", addr, p.ID(), p.Addr())
			}
		}
	}

	// --- Directory index consistency and holder-vs-stash ------------------
	for addr, h := range s.hosts {
		if h == nil || h.dir == nil || !s.net.Alive(simnet.NodeID(addr)) {
			continue
		}
		var lines []string
		var checks int
		lines, checks = h.dir.AuditConsistency(lines, maxAuditViolations-len(r.Violations))
		r.Checks += checks
		r.Violations = append(r.Violations, lines...)

		site, loc := h.dir.Site(), h.dir.Locality()
		h.dir.ForEachHeld(func(ref model.ObjectRef, holders []simnet.NodeID) {
			for _, holder := range holders {
				hh := s.hosts[holder]
				// Only live, joined peers of this very overlay are checkable:
				// optimistic admissions (cp still nil), revived clients and
				// locality changers are legitimately stale until eviction.
				if hh == nil || hh.cp == nil || !s.net.Alive(holder) ||
					hh.cp.Site() != site || hh.cp.Locality() != loc {
					continue
				}
				r.Checks++
				if !hh.cp.Has(ref) && !hh.admitPendingFor(ref) {
					// Entries backed by a pending (or abandoned) optimistic
					// admission are stale by design and cleaned lazily by the
					// §5.1 redirection-failure path; anything else is index
					// corruption.
					fail("dir %s/%d at %d: lists holder %d for ref %d, stash disagrees", site, loc, addr, holder, ref)
				}
			}
		})
	}

	// --- One lifecycle invariant per host ---------------------------------
	// The tally counts the timer checks the invariant took over, two per
	// participant and a third per live content peer, as the equivalence
	// fixture pins it. The view checks, like the await registry below, are
	// not tallied.
	for addr, h := range s.hosts {
		if h == nil {
			continue
		}
		alive := s.net.Alive(simnet.NodeID(addr))
		if h.phase != phServer {
			r.Checks += 2
			if alive && h.cp != nil {
				r.Checks++
			}
		}
		if v := s.lifecycleViolation(h, alive); v != "" {
			fail("%s", v)
		}
		if alive && h.cp != nil {
			if err := h.cp.View().Check(); err != nil {
				fail("view: content peer %d: %v", addr, err)
			}
			if f := h.cp.Published(); f != nil && f.Refs() == 0 {
				fail("view: content peer %d: own summary has no holder: used after release", addr)
			}
		}
	}

	// --- Query await registry and record pool -------------------------------
	// Every tenant must be a live record with its continuation set, its timer
	// armed and its own slot; a pooled record must hold no reference and no
	// timer. (Other live records cannot be enumerated: only messages reach
	// them.) Not tallied in Checks, whose totals the equivalence fixture pins.
	p := &s.pool
	for slot, q := range p.awaiting {
		if q == nil {
			continue
		}
		if !q.live || q.awaitKind == awaitNone || int(q.awaitSlot) != slot || !q.pending.Active() {
			fail("await: slot %d holds query %d with live=%v kind=%d slot=%d armed=%v",
				slot, q.ID, q.live, q.awaitKind, q.awaitSlot, q.pending.Active())
		}
	}
	for _, q := range p.queries {
		if q.live || q.refs != 0 || q.pending.Active() {
			fail("query pool: pooled record live=%v refs=%d armed=%v", q.live, q.refs, q.pending.Active())
		}
	}
	return r
}

// lifecycleViolation holds h to the one lifecycle invariant, phase ⇔
// pointers ⇔ timers ⇔ net.Alive: a dead host's timers, a live host's round
// and failure-detection timers, then the phase its record shows against the
// one it is in. It names the first disagreement, or returns "".
func (s *System) lifecycleViolation(h *host, alive bool) string {
	oneShot, periodic := h.timers()
	armed := h.deadline.Active()
	switch {
	case !alive && (slices.ContainsFunc(oneShot[:], simkernel.TimerHandle.Active) || h.has(hfAwait) ||
		slices.ContainsFunc(periodic[:], func(t simkernel.Ticker) bool { return !t.Stopped() })):
		return fmt.Sprintf("timers: dead host %d has an armed timer, a running ticker or a round await", h.addr)
	case !alive:
	case h.has(hfJoinInFlight) && (h.rare == nil || !h.rare.joinTimer.Active()):
		return fmt.Sprintf("timers: host %d latched a dir-join with no armed latch timer", h.addr)
	case armed != h.has(hfAwait) || armed && h.cp == nil:
		return fmt.Sprintf("timers: host %d: round deadline armed=%v, awaiting gossip=%v keepalive=%v, content peer=%v",
			h.addr, armed, h.has(hfAwaitGossip), h.has(hfAwaitKeepalive), h.cp != nil)
	case (h.cp != nil) == h.round.Stopped():
		return fmt.Sprintf("timers: content peer=%v at host %d, its round running=%v", h.cp != nil, h.addr, !h.round.Stopped())
	}
	r := cmp.Or(h.role, idleRole)
	warm := r.replica != nil && r.standbyFor != noNode && !r.probeTicker.Stopped()
	cold := r.replica == nil && r.standbyFor == noNode && r.probeTicker.Stopped()
	noDir := h.dir == nil && r.node == nil && r.round.Stopped()
	ok := [...]bool{
		phClient:    alive && h.cp == nil && noDir && cold,
		phMember:    alive && h.cp != nil && noDir && cold,
		phStandby:   alive && h.cp != nil && noDir && warm,
		phDirectory: alive && h.dir != nil && r.node != nil && !r.round.Stopped() && cold,
		phServer:    alive && h.cp == nil && h.role == nil,
		phDead:      !alive && h.dir == nil && r.node == nil && cold,
		phGone:      !alive && h.dir == nil && r.node != nil && cold,
	}[h.phase]
	if !ok {
		return fmt.Sprintf("phase: %s host %d: alive=%v content peer=%v index=%v ring node=%v replica=%v",
			h.phase, h.addr, alive, h.cp != nil, h.dir != nil, r.node != nil, r.replica != nil)
	}
	return ""
}
