package core

import (
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// startRound launches a content peer's one periodic behaviour, its round
// (Algorithm 4's gossip and the §5.1 keepalive), at the shorter period. The
// longer is a whole multiple of it (Config.Validate); its half runs on the
// rounds arm places at the host's residue.
func (s *System) startRound(h *host) {
	h.round, h.longPhase = s.arm(h, s.roundPeriod, s.roundsPerLong, s.roundFn)
}

// round sends the gossip half, then the keepalive half (the §5.1 probe to
// the directory), each in the rounds its period falls on, and arms one
// deadline at the later of their timeouts, keeping the earlier as firstDue
// (see answered). What the last round awaited is answered or timed out by
// now (Config.Validate); the round drops it all the same. It allocates nothing.
func (s *System) round(h *host) {
	if h.cp == nil || !s.net.Alive(h.addr) {
		return
	}
	h.deadline.Cancel()
	h.flags &^= hfAwait | hfKeepaliveFirst
	long := uint32(s.k.Now()/s.roundPeriod%s.roundsPerLong) == h.longPhase
	var g, ka simkernel.Time
	if long || s.cfg.TGossip == s.roundPeriod {
		if g = s.gossipHalf(h); g > 0 {
			h.flags |= hfAwaitGossip
		}
	}
	if d := h.cp.Dir(); (long || s.cfg.TKeepalive == s.roundPeriod) && d.Known && d.Addr != h.addr {
		s.net.Send(h.addr, d.Addr, simnet.CatKeepalive, bytesKeepalive, keepaliveMsg{})
		s.stampKeepalive(h.addr)
		ka = s.exchangeTimeout(h.addr, d.Addr)
		h.flags |= hfAwaitKeepalive
	}
	h.firstDue = s.k.Now() + g
	if ka > 0 && (g == 0 || ka < g) {
		h.firstDue = s.k.Now() + ka
		h.flags |= hfKeepaliveFirst
	}
	if h.has(hfAwait) {
		h.deadline = s.k.AfterArg(max(g, ka), s.deadlineFn, uint64(h.addr))
	}
}

// answered clears the await a reply, reject or ack answers; the last one
// revokes the deadline. An answer to the half whose own timeout falls first
// that comes after it is late: the half times out first, as it would have
// on a timer of its own.
func (s *System) answered(h *host, half hostFlag) {
	late := h.has(half) && (half == hfAwaitKeepalive) == h.has(hfKeepaliveFirst) && s.k.Now() >= h.firstDue
	if h.flags &^= half; !h.has(hfAwait) {
		h.deadline.Cancel()
	}
	if late {
		s.timedOut(h, half)
	}
}

// timedOut ends the unanswered halves of a round (the deadline's callback
// passes all it awaits): a silent gossip partner leaves the view (§5.1), a
// silent directory starts the §5.2 replacement protocol.
func (s *System) timedOut(h *host, halves hostFlag) {
	h.flags &^= halves
	if h.cp != nil && halves&hfAwaitGossip != 0 {
		h.cp.RemoveContact(simnet.NodeID(h.gossipTarget))
	}
	if halves&hfAwaitKeepalive != 0 {
		s.onDirectoryUnreachable(h)
	}
}

// gossipHalf is Algorithm 4's active behaviour; it returns the exchange's
// failure-detection timeout (0: nothing sent).
func (s *System) gossipHalf(h *host) simkernel.Time {
	h.cp.TickAges()
	h.cp.DropOldContacts(deadAge)
	if h.cp.View().Len() == 0 {
		return 0 // nobody to gossip with (and no subset buffer to waste)
	}
	target, m, ok := h.cp.MakeGossip(s.rng, s.takeSubsetBuf())
	if !ok {
		return 0
	}
	wrapped := s.newGossipMsg(h.cp.Site(), h.cp.Locality(), m)
	s.net.Send(h.addr, target, simnet.CatGossip, bytesGossipHdr+m.WireBytes(s.cfg.Gossip.SummaryBytes()), wrapped)
	h.gossipTarget = int32(target)
	return s.exchangeTimeout(h.addr, target)
}

// handleGossip covers both directions of an exchange. The envelope (and
// the subset buffer inside it) is recycled to the pools on every path out,
// so it must not be touched after this function returns (the overlay
// copies what it keeps during merge).
func (s *System) handleGossip(h *host, wrapped *gossipMsg) {
	m := wrapped.M
	if m.IsReply {
		// Completion of our active exchange.
		s.answered(h, hfAwaitGossip)
		if h.cp != nil && h.cp.Site() == wrapped.Site && h.cp.Locality() == wrapped.Loc {
			h.cp.ApplyGossipReply(m)
		}
		s.putGossipMsg(wrapped)
		return
	}
	// Passive behaviour.
	if h.cp == nil || h.cp.Site() != wrapped.Site || h.cp.Locality() != wrapped.Loc {
		// We are not (any longer) in the sender's overlay (§5.4).
		s.stats.GossipRejects++
		s.putGossipMsg(wrapped)
		s.net.Send(h.addr, m.From, simnet.CatGossip, bytesKeepalive, gossipRejectMsg{})
		return
	}
	reply := h.cp.AcceptGossip(m, s.rng, s.takeSubsetBuf())
	rw := s.newGossipMsg(wrapped.Site, wrapped.Loc, reply)
	s.putGossipMsg(wrapped)
	s.net.Send(h.addr, m.From, simnet.CatGossip, bytesGossipHdr+reply.WireBytes(s.cfg.Gossip.SummaryBytes()), rw)
}

func (s *System) handleGossipReject(h *host, from simnet.NodeID) {
	s.answered(h, hfAwaitGossip)
	if h.cp != nil {
		h.cp.RemoveContact(from)
	}
}

// maybePush runs Algorithm 5's threshold check after a content change.
func (s *System) maybePush(h *host) {
	if h.cp == nil || !h.cp.NeedPush() {
		return
	}
	d := h.cp.Dir()
	if !d.Known || (d.Addr == h.addr && h.dir == nil) {
		return
	}
	// The ∆list is extracted into a pooled envelope's reusable backing
	// (NeedPush ⇒ there are changes to take).
	m := s.newPushMsg(h.cp.Site())
	m.M, _ = h.cp.TakePush(m.M.Added, m.M.Removed)
	if d.Addr == h.addr {
		// This peer IS the directory (§5.2 replacement): index locally.
		h.dir.ApplyPush(h.addr, m.M.Added, m.M.Removed)
		s.putPushMsg(m)
		return
	}
	s.net.Send(h.addr, d.Addr, simnet.CatPush, m.M.WireBytes(), m)
	h.cp.RefreshDir() // Algorithm 5: reset_age(d)
}

// handlePush is Algorithm 6's passive behaviour at the directory.
func (s *System) handlePush(h *host, m *pushMsg) {
	if h.dir != nil && h.dir.Site() == m.Site {
		h.dir.ApplyPush(m.M.From, m.M.Added, m.M.Removed)
	}
	s.putPushMsg(m)
}

// handleKeepalive resets the sender's age in the index, through the slot
// hint the sender's record carries (host.dirSlot).
func (s *System) handleKeepalive(h *host, from simnet.NodeID) {
	if h.dir == nil {
		return // not a directory (any more): silence triggers replacement
	}
	member := s.hosts[from]
	member.dirSlot = h.dir.KeepaliveAt(from, member.dirSlot)
	s.net.Send(h.addr, from, simnet.CatKeepalive, bytesKeepalive, keepaliveAckMsg{})
}

func (s *System) handleKeepaliveAck(h *host) {
	s.answered(h, hfAwaitKeepalive)
	s.sampleKeepalive(h.addr)
	if h.cp != nil {
		h.cp.RefreshDir()
	}
}

// dirParts are a directory's periodic behaviours, in the order its round
// runs them: index ageing with the summary refresh (Algorithm 6, §4.2.1),
// replication (§8), the standby's designation and sync, and D-ring
// stabilisation (§3.1, §5.2).
var dirParts = [4]func(*System, *host){
	(*System).dirTick, (*System).replicationTick, (*System).standbyMaintTick, (*System).maintainNode,
}

// dirRound is a directory's one periodic behaviour (DESIGN.md "Periodic
// behaviours"): part i runs on every dirEvery[i]-th round at the host's
// residue, or never when dirEvery[i] is 0.
func (s *System) dirRound(h *host) {
	if h.phase != phDirectory {
		return
	}
	n := s.k.Now() / s.dirPeriod
	for i, part := range dirParts {
		if k := s.dirEvery[i]; k > 0 && n%k == simkernel.Time(h.role.residue)%k {
			part(s, h)
		}
	}
}

// dirTick ages the index (Algorithm 6), evicts the dead (§5.1), and
// propagates a refreshed directory summary when enough new content
// accumulated (§4.2.1). The age+evict sweep over the entry slab allocates
// nothing: it is the control plane's steady-state floor.
func (s *System) dirTick(h *host) {
	h.dir.TickAges()
	h.dir.EvictOlderThan(deadAge)
	if !h.dir.ShouldPublishSummary() {
		return
	}
	f := h.dir.BuildSummary()
	sent := false
	// KnownPeers, not the in-place Known walk: the sends below consume
	// kernel sequence numbers and fault-plane draws, so peer order is part
	// of the run.
	for _, p := range h.role.node.KnownPeers() {
		if !s.ks.SameWebsite(p.ID(), h.dir.Key()) || p.ID() == h.dir.Key() {
			continue
		}
		s.net.Send(h.addr, p.Addr(), simnet.CatDirSummary, 20+f.SizeBytes(),
			dirSummaryMsg{FromKey: h.dir.Key(), Loc: h.dir.Locality(), Filter: f})
		sent = true
	}
	if sent {
		h.dir.MarkSummaryPublished()
	}
}

func (s *System) handleDirSummary(h *host, m dirSummaryMsg) {
	if h.dir == nil {
		return
	}
	h.dir.UpdateNeighborSummary(m.FromKey, m.Loc, m.Filter)
}
