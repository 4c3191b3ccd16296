package core

import (
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
//   - every directory's index (forward member bitsets ↔ the holder bit
//     matrix and its counts, see dring.AuditConsistency) and its holder
//     claims against the actual stashes of live same-overlay content peers;
//     a dead directory keeps its index only until its position is taken over;
//   - the await-token/timer plane (a latched dir-join must have its timer
//     armed; dead hosts must leave nothing pending; a keepalive timeout
//     can only be armed on a content peer; and, for queries: timer armed
//     ⇔ continuation kind set ⇔ await-registry slot live ⇔ record live);
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
		node := h.dirNode()
		if node == nil || !node.Up() {
			continue
		}
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

	// --- Await-token / timer plane ----------------------------------------
	for addr, h := range s.hosts {
		if h == nil || h.isServer() {
			continue
		}
		if !s.net.Alive(simnet.NodeID(addr)) {
			oneShot, periodic := h.timers()
			r.Checks++
			if slices.ContainsFunc(oneShot[:], simkernel.TimerHandle.Active) || h.has(hfAwait) {
				fail("timers: dead host %d has an armed failure-detection timer or a round await", addr)
			}
			r.Checks++
			if slices.ContainsFunc(periodic[:], func(t simkernel.Ticker) bool { return !t.Stopped() }) {
				fail("timers: dead host %d has a running ticker", addr)
			}
			// Not tallied in Checks either (see the await registry below).
			if h.dir != nil && s.dirByKey[h.dir.Key()] != simnet.NodeID(addr) {
				fail("index: dead host %d keeps the index of d(%s,%d), a position since taken over",
					addr, h.dir.Site(), h.dir.Locality())
			}
			continue
		}
		r.Checks++
		if h.has(hfJoinInFlight) && (h.rare == nil || !h.rare.joinTimer.Active()) {
			fail("timers: host %d latched a dir-join with no armed latch timer", addr)
		}
		r.Checks++
		if armed := h.deadline.Active(); armed != h.has(hfAwait) || armed && h.cp == nil {
			fail("timers: host %d: round deadline armed=%v, awaiting gossip=%v keepalive=%v, content peer=%v",
				addr, armed, h.has(hfAwaitGossip), h.has(hfAwaitKeepalive), h.cp != nil)
		}
		if h.cp != nil {
			r.Checks++
			if h.round.Stopped() {
				fail("timers: content peer %d is missing its round ticker", addr)
			}
			// Like the await registry below, not tallied in Checks.
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
