package core

import (
	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/trace"
)

// This file implements §5, "Dealing with Dynamicity": crash failures,
// directory failure detection and replacement (§5.2), voluntary directory
// leaves with state transfer, and locality changes (§5.4). Redirection
// failures (§5.1) live in query.go next to Algorithm 3.

// FailPeer crashes a node: it stops participating and all traffic to it is
// lost. Other peers discover the failure through their own timeouts. A
// crashed directory is gone for good (§5.2 re-fills its position).
func (s *System) FailPeer(addr simnet.NodeID) {
	h := s.hosts[addr]
	if h == nil || h.phase >= phServer {
		return // no such host, the origin server, or already down
	}
	to := phDead
	if h.phase == phDirectory {
		to = phGone
	}
	s.transition(h, to)
}

// RevivePeer brings a crashed client node back online. Its volatile state
// (cache, view, overlay membership) is gone — it rejoins as a new client
// on its next query, exactly like a returning user. A crashed directory
// cannot be revived this way (its position is re-filled by §5.2
// replacement); one that departed (DirectoryLeave) can.
func (s *System) RevivePeer(addr simnet.NodeID) bool {
	h := s.hosts[addr]
	if h == nil || h.phase != phDead {
		return false
	}
	s.transition(h, phClient)
	return true
}

// FailDirectory crashes the current directory peer of (site, loc); returns
// false if the position is already empty.
func (s *System) FailDirectory(site model.SiteID, loc int) bool {
	addr, ok := s.DirectoryAddr(site, loc)
	if ok {
		s.FailPeer(addr)
	}
	return ok
}

// onDirectoryUnreachable runs at a content peer whose keepalive (or push)
// went unanswered: forget the directory and try to replace it (§5.2).
func (s *System) onDirectoryUnreachable(h *host) {
	if h.cp == nil {
		return
	}
	s.trace(trace.Record{Kind: trace.DirFailureDetected, Node: h.addr, Peer: -1,
		Str: string(h.cp.Site()), Loc: int32(h.cp.Locality())})
	h.cp.ForgetDir()
	s.volunteer(h, h.cp.Site(), h.cp.Locality())
}

// volunteer stands h for the vacant directory position of (site, loc); a
// standby claims the position it watches.
func (s *System) volunteer(h *host, site model.SiteID, loc int) {
	switch {
	case h.phase == phStandby:
		// We ARE the standby: take over directly, don't race ourselves
		// through the cold join protocol.
		s.requestPromotion(h)
	case s.cfg.StandbyFailover:
		s.deferDirJoin(h)
	default:
		s.attemptDirJoin(h, site, loc)
	}
}

// deferDirJoin gives the designated standby a deterministic head start
// (two probe periods plus jitter) before h volunteers a cold rebuild: the
// delayed retry re-checks the ring and, in the common case, simply adopts
// the promoted standby instead of racing it.
func (s *System) deferDirJoin(h *host) {
	grace := 2*s.standbyProbe + simkernel.Time(s.rng.Int63n(int64(s.standbyProbe)))
	r := h.rarely()
	r.joinTimer.Cancel()
	r.joinTimer = s.k.AfterArg(grace, s.joinRetryFn, uint64(uint32(h.addr)))
}

// attemptDirJoin starts the §5.2 replacement protocol: the candidate
// "uses the common key assigned for d(ws,loc) and attempts to join D-ring
// via the normal join procedure". The join request is routed through
// D-ring; whoever is closest to the key decides whether the position is
// already taken.
func (s *System) attemptDirJoin(h *host, site model.SiteID, loc int) {
	if h.has(hfJoinInFlight) || h.dir != nil || !s.net.Alive(h.addr) {
		return
	}
	r := h.rarely()
	key := s.ks.KeyForWebsiteID(s.widBySite[site], loc, int(h.dirInstance))
	if n := s.ring.Lookup(key); n != nil && n.Up() {
		// Someone already replaced it: adopt.
		r.joinAttempts = 0
		if h.cp != nil {
			h.cp.SetDir(n.Addr())
			s.pushFullContent(h)
		}
		return
	}
	entry, ok := s.randomAliveDir()
	if !ok {
		return
	}
	h.flags |= hfJoinInFlight
	s.net.Send(h.addr, entry, simnet.CatMaintenance, bytesJoinCtl, s.newRoutedMsg(key, h.addr, nil, false))
	// Clear the in-flight latch if the request is lost in a broken ring;
	// an answer cancels the timer.
	r.joinTimer.Cancel()
	r.joinTimer = s.k.AfterArg(15*simkernel.Second, s.joinLatchFn, uint64(uint32(h.addr)))
}

// handleDirJoinRequest runs at the D-ring node that received the routed
// join: if the position is filled, point the candidate at the incumbent;
// otherwise accept and offer ourselves as the bootstrap.
func (s *System) handleDirJoinRequest(h *host, key chord.ID, candidate simnet.NodeID) {
	if n := s.ring.Lookup(key); n != nil && n.Up() {
		s.net.Send(h.addr, candidate, simnet.CatMaintenance, bytesJoinCtl,
			dirJoinTakenMsg{Key: key, NewDir: n.Addr()})
		return
	}
	s.net.Send(h.addr, candidate, simnet.CatMaintenance, bytesJoinCtl,
		dirJoinAcceptMsg{Key: key, Bootstrap: h.addr})
}

// dirJoinAnswered clears the join latch, its timer and the retry count: any
// answer (a promoted standby's announcement included, which no request of
// this host need precede) ends the attempt.
func (h *host) dirJoinAnswered() {
	h.flags &^= hfJoinInFlight
	if r := h.rare; r != nil {
		r.joinTimer.Cancel()
		r.joinAttempts = 0
	}
}

// handleDirJoinTaken: another content peer won the race; learn the new
// directory and make sure it indexes our content ("the content peer gets
// acquainted with its new directory peer", §5.2).
func (s *System) handleDirJoinTaken(h *host, m dirJoinTakenMsg) {
	h.dirJoinAnswered()
	if h.cp == nil {
		return
	}
	h.cp.SetDir(m.NewDir)
	s.pushFullContent(h)
}

// handleDirJoinAccept: we may take the position. Join D-ring under the
// common key, become the directory, and rebuild the index from pushes
// while answering early queries from our own store and view (§5.2).
func (s *System) handleDirJoinAccept(h *host, m dirJoinAcceptMsg) {
	h.dirJoinAnswered()
	if !h.plainPeer() {
		return
	}
	var boot *chord.Node
	if b := s.hosts[m.Bootstrap]; b.phase == phDirectory {
		boot = b.role.node
	}
	node, incumbent := s.takeOverPosition(m.Key, h.addr, boot, false)
	if incumbent != nil {
		// Raced: someone else joined first.
		h.cp.SetDir(incumbent.Addr())
		s.pushFullContent(h)
		return
	}
	if node == nil {
		return
	}
	s.installDirectory(h, node, h.cp.Site(), h.cp.Locality())
	// Index our own holdings immediately; overlay members re-register via
	// their keepalive timeouts and pushes.
	h.dir.ApplyPush(h.addr, h.cp.Objects(), nil)
	h.cp.SetDir(h.addr)
	s.stats.DirReplacements++
	s.trace(trace.Record{Kind: trace.DirReplaced, Node: h.addr, Peer: -1,
		Str: string(h.cp.Site()), Loc: int32(h.cp.Locality())})
}

// takeOverPosition is the D-ring take-over sequence of the cold §5.2
// replacement and the warm standby promotion: a live holder of key keeps the
// position (returned as incumbent), a dead one is removed, and addr's new
// node joins through boot and converges its links. With no bootstrap the
// claim is dropped, unless alone lets a standby that finds no other live
// directory found the position unjoined. node is nil when no claim was made.
func (s *System) takeOverPosition(key chord.ID, addr simnet.NodeID, boot *chord.Node, alone bool) (node, incumbent *chord.Node) {
	if n := s.ring.Lookup(key); n != nil {
		if n.Up() {
			return nil, n
		}
		s.ring.RemoveNode(key)
	}
	if boot == nil && !alone {
		return nil, nil
	}
	node, err := s.ring.AddNode(key, addr)
	if err != nil {
		return nil, nil
	}
	if boot != nil {
		if err := s.ring.Join(node, boot); err != nil {
			s.ring.RemoveNode(key)
			return nil, nil
		}
		node.Stabilize()
		node.FixAllFingers()
	}
	return node, nil
}

// installDirectory moves a host into the directory phase and wires its state
// and round: a founding directory, or one a §5.2 replacement, standby
// promotion or leave installs.
func (s *System) installDirectory(h *host, node *chord.Node, site model.SiteID, loc int) {
	s.transition(h, phDirectory)
	key := node.ID()
	if h.role == nil {
		h.role = newDirRole()
	}
	r := h.role
	r.node = node
	h.dir = dring.NewDirectory(site, s.widBySite[site], loc, key,
		s.cfg.MaxOverlaySize, s.cfg.ObjectsPerSite, dirSummaryThreshold, s.in)
	s.dirAddrs = append(s.dirAddrs, h.addr)
	r.round, r.residue = s.arm(h, s.dirPeriod, s.dirCycle, s.dirRoundFn)
}

// pushFullContent re-registers every held object with the (new) directory.
func (s *System) pushFullContent(h *host) {
	if h.cp == nil {
		return
	}
	d := h.cp.Dir()
	if !d.Known || d.Addr == h.addr {
		return
	}
	if h.cp.ContentSize() == 0 {
		return
	}
	// An additions-only push (full-content re-registration, §5.2).
	m := s.newPushMsg(h.cp.Site())
	m.M.From = h.addr
	m.M.Added = h.cp.AppendObjects(m.M.Added)
	s.net.Send(h.addr, d.Addr, simnet.CatPush, m.M.WireBytes(), m)
	h.cp.RefreshDir()
}

// DirectoryLeave performs a §5.2 voluntary departure: the directory picks
// its most stable member ("according to ... peer stability"), transfers
// the directory index, summaries and its D-ring routing position, and
// leaves the system. Returns false when there is no suitable successor.
func (s *System) DirectoryLeave(site model.SiteID, loc int) bool {
	addr, ok := s.DirectoryAddr(site, loc)
	if !ok {
		return false
	}
	old := s.hosts[addr]
	if old.phase != phDirectory {
		return false
	}
	best := s.mostStable(old, (*host).plainPeer)
	if best == nil {
		return false
	}
	// Hand over the D-ring position and the directory state.
	node := s.ring.Transplant(old.role.node, best.addr)
	s.installDirectory(best, node, site, loc)
	best.dir.ImportEntries(old.dir.ExportEntries(nil))
	for _, ns := range old.dir.NeighborSummaries() {
		best.dir.UpdateNeighborSummary(ns.DirID, ns.Locality, ns.Filter)
	}
	best.cp.SetDir(best.addr)
	// Stand the old designation down: the successor directory designates
	// its own standby on its maintenance loop.
	if sb := old.role.standby; sb != noNode && s.hosts[sb].watches(old.addr) {
		s.net.Send(old.addr, sb, simnet.CatKeepalive, bytesKeepalive, standbyRevokeMsg{})
	}
	// The old directory departs, its roles handed over.
	s.transition(old, phDead)
	s.stats.DirReplacements++
	s.trace(trace.Record{Kind: trace.DirHandoff, Node: old.addr, Peer: best.addr, Str: string(site), Loc: int32(loc)})
	return true
}

// ChangeLocality implements §5.4: the peer detects it now belongs to a
// different locality and switches overlays — it leaves its old overlay
// (contacts discover this via gossip rejections and ages), rejoins the new
// one as a new client on its next query, and then re-pushes its held
// content to the new directory. A directory, the origin server and a
// crashed host (whose revival wipes the override) cannot move.
func (s *System) ChangeLocality(addr simnet.NodeID, newLoc int) bool {
	h := s.hosts[addr]
	if h == nil || h.phase != phClient && !h.plainPeer() || newLoc < 0 || newLoc >= s.cfg.Localities {
		return false
	}
	h.rarely().assignedLoc = int32(newLoc)
	h.flags |= hfLocOverride
	if h.phase != phClient {
		s.transition(h, phClient)
	}
	return true
}
