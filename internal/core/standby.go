package core

import (
	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/simnet"
	"flowercdn/internal/trace"
)

// This file implements the warm-standby directory failover extension
// (Config.StandbyFailover). Every directory designates the most stable
// member of its overlay (the §5.2 candidate-scoring order: earliest
// JoinedAt, then address) as a warm standby and sends it a full snapshot of
// its index on every standby round: the first seeds the standby's replica,
// each later one replaces it, so a snapshot the network loses is repaired
// by the next. The standby probes its primary far tighter
// than the overlay keepalive; on silence it re-checks the D-ring and, if
// the position is really vacant, promotes itself. A promoted
// standby takes over the D-ring position *with* its replica (at most one
// round stale; stale holders wash out through the §5.1 redirection-failure
// path), instead of the cold §5.2 rebuild from an empty index.
//
// The standby is a phase of the host (hoststate.go): a member enters it on
// designation and leaves it on revocation, promotion, a §5.4 locality
// change or a crash, which stop its probe watchdog and drop its replica.
// StandbyFailover arms this part of every directory's round; off, no RNG is
// drawn and no message is sent.

// standbyMaintTick is the directory's standby part: validate the standby or
// designate the most stable member that is no other directory's standby,
// then send the standby a snapshot of the index.
func (s *System) standbyMaintTick(h *host) {
	r := h.role
	if r.standby != noNode && !s.hosts[r.standby].watches(h.addr) {
		r.standby = noNode // the standby died, left the overlay or took another role
	}
	if r.standby == noNode {
		best := s.mostStable(h, func(mh *host) bool { return mh.phase == phMember || mh.watches(h.addr) })
		if best == nil {
			return // empty or dead overlay: no standby, no probe traffic
		}
		r.standby = best.addr
		s.stats.StandbyAssigns++
	} else {
		s.stats.StandbySyncs++
	}
	m := take(&s.pool.sync)
	m.live, m.FromDir, m.Key, m.Site, m.Loc = true, h.addr, h.dir.Key(), h.dir.Site(), h.dir.Locality()
	m.Entries = h.dir.ExportEntries(m.Entries)
	s.net.Send(h.addr, r.standby, simnet.CatMaintenance, m.wireBytes(), m)
}

// mostStable returns the most stable member of directory h's overlay that
// ok admits, in the §5.2 candidate order (earliest join, address as the
// deterministic tie-break), or nil.
func (s *System) mostStable(h *host, ok func(*host) bool) *host {
	var best *host
	for _, mAddr := range h.dir.Members() {
		mh := s.hosts[mAddr]
		if ok(mh) && (best == nil || mh.cp.JoinedAt() < best.cp.JoinedAt() ||
			mh.cp.JoinedAt() == best.cp.JoinedAt() && mAddr < best.addr) {
			best = mh
		}
	}
	return best
}

// handleStandbyAssign runs at the designated standby: a member enters the
// standby phase and starts probing the primary; the replica is built (or
// rebuilt, for another primary or position) from the snapshot, or replaced
// by it.
func (s *System) handleStandbyAssign(h *host, m *standbyAssignMsg) {
	defer s.putSyncMsg(m)
	if !h.plainPeer() {
		return
	}
	designated := h.phase == phMember
	if designated {
		s.transition(h, phStandby)
		if h.role == nil {
			h.role = newDirRole()
		}
	}
	r := h.role
	if designated || r.standbyFor != m.FromDir || r.replica.Key() != m.Key {
		r.replica = dring.NewDirectory(m.Site, s.widBySite[m.Site], m.Loc, m.Key,
			s.cfg.MaxOverlaySize, s.cfg.ObjectsPerSite, dirSummaryThreshold, s.in)
	}
	r.standbyFor = m.FromDir
	r.replica.ImportEntries(m.Entries)
	if designated {
		r.probeTicker, _ = s.arm(h, s.standbyProbe, 1, s.probeTickFn)
	}
}

// handleStandbyRevoke stands a former standby down.
func (s *System) handleStandbyRevoke(h *host, from simnet.NodeID) {
	if h.watches(from) {
		s.transition(h, phMember)
	}
}

// standbyProbeTick sends one liveness probe and arms its deadline. A
// single missed probe already requests promotion: the promotion arbiter
// re-checks ring liveness, so a false alarm is a no-op while a
// real crash is detected within ~one probe period — which is what lets
// warm detection beat the cold keepalive-offset race.
func (s *System) standbyProbeTick(h *host) {
	r := h.role // the ticker runs in the standby phase only
	s.net.Send(h.addr, r.standbyFor, simnet.CatKeepalive, bytesKeepalive, standbyProbeMsg{})
	r.probeTimeout.Cancel()
	r.probeTimeout = s.k.AfterArg(s.exchangeTimeout(h.addr, r.standbyFor), s.probeTimeoutFn, uint64(h.addr))
}

// handleStandbyProbe runs at the primary: ack if the designation still
// stands, revoke a stray prober otherwise.
func (s *System) handleStandbyProbe(h *host, from simnet.NodeID) {
	if h.phase != phDirectory {
		return // departed: silence is the correct answer
	}
	var answer any = standbyProbeAckMsg{}
	if h.role.standby != from {
		answer = standbyRevokeMsg{}
	}
	s.net.Send(h.addr, from, simnet.CatKeepalive, bytesKeepalive, answer)
}

func (s *System) handleStandbyProbeAck(h *host, from simnet.NodeID) {
	if h.watches(from) {
		h.role.probeTimeout.Cancel()
	}
}

// requestPromotion sends the standby's self-addressed takeover decision:
// handleStandbyPromote judges liveness against the ring one hop later.
func (s *System) requestPromotion(h *host) {
	if h.phase != phStandby {
		return
	}
	s.net.Send(h.addr, h.addr, simnet.CatMaintenance, bytesJoinCtl, standbyPromoteMsg{})
}

// handleStandbyPromote is the promotion arbiter: if the watched primary
// still holds its position the alarm was false and nothing happens; if
// another live node holds it (a cold §5.2 replacement won the race, or a
// leave handed it over), the standby stands down and adopts that directory,
// which never designated it; otherwise the standby joins D-ring under the
// common key and becomes the directory with its replica as the index, whose
// key, site and locality name the position.
func (s *System) handleStandbyPromote(h *host) {
	if h.phase != phStandby {
		return
	}
	replica := h.role.replica
	node, incumbent := s.takeOverPosition(replica.Key(), h.addr, s.liveBootstrapNode(), true)
	if incumbent != nil && incumbent.Addr() != h.role.standbyFor {
		s.transition(h, phMember)
		h.cp.SetDir(incumbent.Addr())
		s.pushFullContent(h)
		return
	}
	if node == nil {
		return // false alarm: keep watching
	}
	s.installDirectory(h, node, replica.Site(), replica.Locality())
	// Promote with the replica, then index our own holdings; the overlay
	// re-registers via keepalives and pushes, and stale holders wash out
	// through redirection failures (§5.1).
	h.dir.ImportEntries(replica.ExportEntries(nil))
	h.dir.ApplyPush(h.addr, h.cp.Objects(), nil)
	h.cp.SetDir(h.addr)
	// Announce the takeover to the overlay using the replica's member
	// list — the one thing a cold §5.2 rebuild cannot do, because its
	// index starts empty. Members re-point immediately (and re-push their
	// content) instead of waiting out a keepalive timeout each; the
	// existing dirJoinTakenMsg already encodes exactly this transition.
	for _, mAddr := range h.dir.Members() {
		if mAddr == h.addr || !s.net.Alive(mAddr) {
			continue
		}
		s.net.Send(h.addr, mAddr, simnet.CatMaintenance, bytesJoinCtl,
			dirJoinTakenMsg{Key: node.ID(), NewDir: h.addr})
	}
	s.stats.StandbyPromotions++
	s.trace(trace.Record{Kind: trace.DirReplaced, Variant: trace.StandbyPromoted, Node: h.addr, Peer: -1,
		Str: string(h.dir.Site()), Loc: int32(h.dir.Locality())})
}

// liveBootstrapNode finds a live D-ring member to join through.
func (s *System) liveBootstrapNode() *chord.Node {
	for _, da := range s.dirAddrs {
		if h := s.hosts[da]; h.phase == phDirectory {
			return h.role.node
		}
	}
	return nil
}
