package core

import "flowercdn/internal/simnet"

// startContentPeerTickers launches the periodic behaviours of a content
// peer: the active gossip loop (Algorithm 4) and the keepalive loop
// (§5.1). Phases are randomised so overlays do not synchronise.
func (s *System) startContentPeerTickers(h *host) {
	h.gossipTicker = s.every(h.addr, s.cfg.TGossip, s.gossipTickFn)
	h.kaTicker = s.every(h.addr, s.cfg.TKeepalive, s.kaTickFn)
}

// gossipTick is the active behaviour of Algorithm 4. In steady state it
// allocates nothing: the envelope and its view-subset buffer come from the
// System pools, and the failure-detection timeout is armed through the
// kernel's AfterArg path with a callback bound once at construction.
func (s *System) gossipTick(h *host) {
	if h.cp == nil || !s.net.Alive(h.addr) {
		return
	}
	h.cp.TickAges()
	h.cp.DropOldContacts(s.cfg.TDead)
	if h.cp.View().Len() == 0 {
		return // nobody to gossip with (and no subset buffer to waste)
	}
	target, m, ok := h.cp.MakeGossip(s.rng, s.takeSubsetBuf())
	if !ok {
		return
	}
	wrapped := s.newGossipMsg(h.cp.Site(), h.cp.Locality(), m)
	s.net.Send(h.addr, target, simnet.CatGossip, bytesGossipHdr+m.WireBytes(s.cfg.Gossip.SummaryBytes()), wrapped)
	// Failure detection: no answer within the deadline ⇒ drop the contact.
	// The reply (or a reject) cancels the armed timer.
	h.gossipToken++
	h.gossipTarget = target
	h.gossipTimeout.Cancel()
	h.gossipTimeout = s.k.AfterArg(s.exchangeTimeout(h.addr, target),
		s.gossipTimeoutFn, packAddrTok(h.addr, h.gossipToken))
}

// handleGossip covers both directions of an exchange. The envelope (and
// the subset buffer inside it) is recycled to the pools on every path out,
// so it must not be touched after this function returns (the overlay
// copies what it keeps during merge).
func (s *System) handleGossip(h *host, wrapped *gossipMsg) {
	m := wrapped.M
	if m.IsReply {
		// Completion of our active round: disarm failure detection.
		h.gossipToken++
		h.gossipTimeout.Cancel()
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
	h.gossipToken++
	h.gossipTimeout.Cancel()
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

// keepaliveTick sends the §5.1 liveness probe to the directory and arms
// failure detection (§5.2: failures are noticed "while sending keepalive
// or push messages"). Allocation-free in steady state: the probe is a
// zero-size payload (nothing to box) and the timeout rides AfterArg.
func (s *System) keepaliveTick(h *host) {
	if h.cp == nil || !s.net.Alive(h.addr) {
		return
	}
	d := h.cp.Dir()
	if !d.Known || d.Addr == h.addr {
		return
	}
	s.net.Send(h.addr, d.Addr, simnet.CatKeepalive, bytesKeepalive, keepaliveMsg{})
	s.stampKeepalive(h.addr)
	h.kaToken++
	h.kaTimeout.Cancel()
	h.kaTimeout = s.k.AfterArg(s.exchangeTimeout(h.addr, d.Addr),
		s.kaTimeoutFn, packAddrTok(h.addr, h.kaToken))
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
	h.kaToken++
	h.kaTimeout.Cancel()
	s.sampleKeepalive(h.addr)
	if h.cp != nil {
		h.cp.RefreshDir()
	}
}

// dirTick is the directory's periodic behaviour: age the index (Algorithm
// 6), evict the dead (§5.1), and propagate a refreshed directory summary
// when enough new content accumulated (§4.2.1). The age+evict half is a
// linear sweep over the directory's entry slab and allocates nothing
// (EvictOlderThan returns directory-owned scratch, discarded here) — at
// the 100k preset this tick fires on every directory every T_gossip, so
// it is the steady-state floor of the control plane.
func (s *System) dirTick(h *host) {
	if h.dir == nil || !s.net.Alive(h.addr) {
		return
	}
	h.dir.TickAges()
	h.dir.EvictOlderThan(s.cfg.TDead)
	if !h.dir.ShouldPublishSummary() {
		return
	}
	f := h.dir.BuildSummary()
	sent := false
	if node := h.dirNode(); node != nil && node.Up() {
		// KnownPeers, not VisitKnown: the sends below consume kernel sequence
		// numbers and fault-plane draws, so peer order is part of the run.
		for _, p := range node.KnownPeers() {
			if !s.ks.SameWebsite(p.ID(), h.dir.Key()) || p.ID() == h.dir.Key() {
				continue
			}
			s.net.Send(h.addr, p.Addr(), simnet.CatDirSummary, 20+f.SizeBytes(),
				dirSummaryMsg{FromKey: h.dir.Key(), Loc: h.dir.Locality(), Filter: f})
			sent = true
		}
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
