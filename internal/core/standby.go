package core

import (
	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/trace"
)

// This file implements the warm-standby directory failover extension
// (Config.StandbyFailover). Every directory designates the most stable
// member of its overlay (the §5.2 candidate-scoring order: earliest
// JoinedAt, then address) as a warm standby, seeds it with a full index
// snapshot and keeps the standby's replica fresh with dirty-shard deltas
// from the dring delta seam. The standby probes its primary far tighter
// than the overlay keepalive; on silence it re-checks the D-ring and, if
// the position is really vacant, promotes itself. A promoted
// standby takes over the D-ring position *with* its replica (bounded
// staleness; stale holders wash out through the §5.1 redirection-failure
// path), instead of the cold §5.2 rebuild from an empty index.
//
// installDirectory arms the maintenance ticker on every directory, founding
// or installed later; the same switch arms takeover shedding (query.go).
// Everything here is gated off by default: with StandbyFailover false no
// ticker is armed, no RNG is drawn, no message is sent, and the pinned
// clean-network goldens stay byte-identical.

// standbyMaintTick is the directory-side loop: validate or (re)designate
// the standby, then ship up to standbySyncShards dirty shards.
func (s *System) standbyMaintTick(h *host) {
	if h.dir == nil || !s.net.Alive(h.addr) {
		return
	}
	r := h.role
	if r.standby != 0 && !s.standbyStillFit(h) {
		if sb := s.hosts[r.standby]; sb != nil && s.net.Alive(r.standby) && sb.role.watched() == h.addr {
			s.net.Send(h.addr, r.standby, simnet.CatKeepalive, bytesKeepalive, standbyRevokeMsg{})
		}
		r.standby = 0
		h.dir.DisableDeltaTracking()
	}
	if r.standby == 0 {
		s.designateStandby(h)
		return // the full snapshot covers everything; deltas start next tick
	}
	if h.dir.DirtyShardCount() == 0 {
		return
	}
	r.deltaShards = h.dir.TakeDirtyShards(r.deltaShards[:0], standbySyncShards)
	for _, sh := range r.deltaShards {
		// The wire rows are owned by the message (applied after latency),
		// so each delta exports into a fresh slice.
		m := standbyDeltaMsg{FromDir: h.addr, Shard: sh, Entries: h.dir.ExportShard(int(sh), nil)}
		s.net.Send(h.addr, r.standby, simnet.CatMaintenance, m.wireBytes(), m)
		s.stats.StandbyDeltas++
	}
}

// standbyStillFit re-validates the current designation: the standby must
// be alive, still a plain content peer, and still watching us.
func (s *System) standbyStillFit(h *host) bool {
	sb := s.hosts[h.role.standby]
	return sb != nil && s.net.Alive(h.role.standby) && sb.cp != nil && sb.dir == nil && sb.role.watched() == h.addr
}

// designateStandby picks the directory's most stable member (§5.2
// ordering: earliest join, address as the deterministic tie-break) and
// seeds it with a full index snapshot.
func (s *System) designateStandby(h *host) {
	var best *host
	for _, mAddr := range h.dir.Members() {
		mh := s.hosts[mAddr]
		if mh == nil || mh.cp == nil || mh.dir != nil || !s.net.Alive(mAddr) {
			continue
		}
		if w := mh.role.watched(); w != 0 && w != h.addr {
			continue // already carries a replica for another directory
		}
		if best == nil || mh.cp.JoinedAt() < best.cp.JoinedAt() ||
			(mh.cp.JoinedAt() == best.cp.JoinedAt() && mAddr < best.addr) {
			best = mh
		}
	}
	if best == nil {
		return // empty or dead overlay: no standby, no probe traffic
	}
	h.role.standby = best.addr
	h.dir.EnableDeltaTracking()
	m := standbyAssignMsg{
		FromDir: h.addr,
		Key:     h.dir.Key(),
		Site:    h.dir.Site(),
		Loc:     h.dir.Locality(),
		Entries: h.dir.ExportEntries(),
	}
	s.net.Send(h.addr, best.addr, simnet.CatMaintenance, m.wireBytes(), m)
	s.stats.StandbyAssigns++
}

// handleStandbyAssign runs at the designated standby: build (or rebuild)
// the replica from the snapshot and start probing the primary.
func (s *System) handleStandbyAssign(h *host, m standbyAssignMsg) {
	if h.cp == nil || h.dir != nil || !s.net.Alive(h.addr) {
		return
	}
	if h.role == nil {
		h.role = new(dirRole)
	}
	r := h.role
	if r.replica == nil || r.standbyFor != m.FromDir || r.standbyKey != m.Key {
		r.replica = dring.NewDirectory(m.Site, s.widBySite[m.Site], m.Loc, m.Key,
			s.cfg.MaxOverlaySize, s.cfg.ObjectsPerSite, dirSummaryThreshold, s.in)
	}
	r.standbyFor, r.standbyKey, r.standbySite, r.standbyLoc = m.FromDir, m.Key, m.Site, m.Loc
	r.replica.ImportEntries(m.Entries)
	s.startStandbyProbes(h)
}

// handleStandbyDelta applies one dirty shard to the replica.
func (s *System) handleStandbyDelta(h *host, m standbyDeltaMsg) {
	if h.role.warm() == nil || h.role.standbyFor != m.FromDir {
		return
	}
	h.role.replica.ApplyShardDelta(int(m.Shard), m.Entries)
}

// handleStandbyRevoke stands a former standby down.
func (s *System) handleStandbyRevoke(h *host, from simnet.NodeID) {
	if h.role.watched() != from {
		return
	}
	s.stopStandbyWatch(h)
}

// stopStandbyWatch clears all standby-side state: watchdog, replica and
// designation memory; the probe token moves on past any orphaned timeout.
func (s *System) stopStandbyWatch(h *host) {
	r := h.role
	if r == nil {
		return
	}
	r.probeTicker.Stop()
	r.probeTimeout.Cancel()
	r.probeTimeout = simkernel.TimerHandle{}
	r.probeToken++
	r.replica = nil
	r.standbyFor, r.standbyKey, r.standbySite, r.standbyLoc = 0, 0, "", 0
}

// startStandbyProbes arms the standby→primary liveness watchdog.
func (s *System) startStandbyProbes(h *host) {
	if !h.role.probeTicker.Stopped() {
		return
	}
	h.role.probeTicker = s.every(h.addr, s.standbyProbe, s.probeTickFn)
}

// standbyProbeTick sends one liveness probe and arms its deadline. A
// single missed probe already requests promotion: the promotion arbiter
// re-checks ring liveness, so a false alarm is a no-op while a
// real crash is detected within ~one probe period — which is what lets
// warm detection beat the cold keepalive-offset race.
func (s *System) standbyProbeTick(h *host) {
	r := h.role // armed this ticker, so allocated
	if r.standbyFor == 0 || h.cp == nil || h.dir != nil || !s.net.Alive(h.addr) {
		return
	}
	s.net.Send(h.addr, r.standbyFor, simnet.CatKeepalive, bytesKeepalive, standbyProbeMsg{})
	r.probeToken++
	tok := r.probeToken
	r.probeTimeout.Cancel()
	r.probeTimeout = s.k.After(s.exchangeTimeout(h.addr, r.standbyFor), func() {
		if r.probeToken == tok {
			s.requestPromotion(h)
		}
	})
}

// handleStandbyProbe runs at the primary: ack if the designation still
// stands, revoke a stray prober otherwise.
func (s *System) handleStandbyProbe(h *host, from simnet.NodeID) {
	if h.dir == nil {
		return // demoted or departed: silence is the correct answer
	}
	if h.role.standby != from {
		s.net.Send(h.addr, from, simnet.CatKeepalive, bytesKeepalive, standbyRevokeMsg{})
		return
	}
	s.net.Send(h.addr, from, simnet.CatKeepalive, bytesKeepalive, standbyProbeAckMsg{})
}

func (s *System) handleStandbyProbeAck(h *host, from simnet.NodeID) {
	r := h.role
	if r == nil || r.standbyFor != from {
		return
	}
	r.probeToken++
	r.probeTimeout.Cancel()
}

// requestPromotion sends the standby's self-addressed takeover decision:
// handleStandbyPromote judges liveness against the ring one hop later.
func (s *System) requestPromotion(h *host) {
	r := h.role
	if r.watched() == 0 || r.replica == nil || h.dir != nil || !s.net.Alive(h.addr) {
		return
	}
	s.net.Send(h.addr, h.addr, simnet.CatMaintenance, bytesJoinCtl,
		standbyPromoteMsg{Key: r.standbyKey, Site: r.standbySite, Loc: r.standbyLoc})
}

// handleStandbyPromote is the promotion arbiter: if the watched position
// is actually held by a live node the alarm was false and nothing happens;
// otherwise the standby joins D-ring under the common key and becomes the
// directory with its replica as the index.
func (s *System) handleStandbyPromote(h *host, m standbyPromoteMsg) {
	if h.cp == nil || h.dir != nil || h.role.warm() == nil || !s.net.Alive(h.addr) {
		return
	}
	node, _ := s.takeOverPosition(m.Key, h.addr, s.liveBootstrapNode(h.addr), true)
	if node == nil {
		return // false alarm (or a raced replacement): keep watching
	}
	// Staleness at takeover: shards the dead primary dirtied but never
	// shipped (readable in simulation; a real standby would bound this by
	// its sync cadence).
	if prim := s.hosts[h.role.standbyFor]; prim != nil && prim.dir != nil {
		s.stats.StandbyStaleShards += prim.dir.DirtyShardCount()
	}
	replica := h.role.replica
	site, loc := m.Site, m.Loc
	s.stopStandbyWatch(h)
	s.installDirectory(h, node, site, loc)
	// Promote with the replica, then index our own holdings; the overlay
	// re-registers via keepalives and pushes, and stale holders wash out
	// through redirection failures (§5.1).
	h.dir.ImportEntries(replica.ExportEntries())
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
			dirJoinTakenMsg{Key: m.Key, NewDir: h.addr})
	}
	s.stats.StandbyPromotions++
	s.trace(trace.Record{Kind: trace.DirReplaced, Variant: trace.StandbyPromoted, Node: h.addr, Peer: -1,
		Str: string(h.dir.Site()), Loc: int32(h.dir.Locality())})
}

// liveBootstrapNode finds a live D-ring member to join through.
func (s *System) liveBootstrapNode(exclude simnet.NodeID) *chord.Node {
	for _, da := range s.dirAddrs {
		if da == exclude {
			continue
		}
		if n := s.hosts[da].dirNode(); n != nil && n.Up() && s.net.Alive(da) {
			return n
		}
	}
	return nil
}
