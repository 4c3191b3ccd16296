package core

import (
	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/gossip"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/trace"
)

// --- Entry points ---------------------------------------------------------

// startNewClientQuery implements the §3.4 first-access path: the client
// submits its query to D-ring through any directory peer it knows of, and
// key-based routing (Algorithm 2) delivers it to d(ws,loc).
func (s *System) startNewClientQuery(h *host, q *Query) {
	entry, ok := s.randomAliveDir()
	if !ok {
		// No D-ring at all (catastrophic churn): go straight to the server.
		s.fallbackToOrigin(h, q)
		return
	}
	// Under the §5.3 scale-up extension, each (website, locality) slot has
	// several directory instances; new clients spread across them.
	inst := 0
	if n := s.ks.Instances(); n > 1 {
		inst = s.rng.Intn(n)
	}
	q.targetInstance = inst
	key := s.ks.KeyForWebsiteID(s.widBySite[q.Site], q.OriginLoc, inst)
	if !s.takeShedSlot(h, q, key) {
		return
	}
	s.stamp(q)
	s.sendQuery(q.Origin, entry, simnet.CatQuery, bytesQueryCtl, s.newRoutedMsg(key, q.Origin, q, false))
	// If the entry node (or the path) is dead the query would hang; retry
	// through a different entry, then fall back to the server. Adaptive
	// runs split the wait: when the estimator's tail quantile passes with
	// no answer, a hedge lookup races through another entry first.
	s.awaitLookup(h, q, 0)
}

// fallbackToOrigin degrades q to the last tier: fetch from the website's
// origin server, guarded (hardened runs) by the capped-backoff retry.
func (s *System) fallbackToOrigin(h *host, q *Query) {
	s.mets.RecordOriginFallback()
	s.sendQuery(q.Origin, s.servers[q.Site], simnet.CatQuery, bytesQueryCtl, fetchMsg{Q: q})
	s.awaitOriginRetry(h, q, 0, false)
}

// awaitLookup arms one lookup attempt's deadline. Adaptive runs split the
// wait in two: the hedge fires at the estimator's tail quantile, the
// retry after the remainder of the full deadline.
func (s *System) awaitLookup(h *host, q *Query, attempt int) {
	d := s.lookupRetryDelay(q, attempt)
	if hd, ok := s.hedgeDelay(q, d); ok {
		s.await(q, hd, awaitLookupHedge, h.addr, uint64(d-hd), int32(attempt))
		return
	}
	s.await(q, d, awaitLookupRetry, h.addr, 0, int32(attempt+1))
}

// hedgeLookup fires when the adaptive tail deadline passed with no
// directory claiming the query: race a second lookup through a different
// D-ring entry point (first answer wins; the loser's effects are deduped
// by the handler-claim and recorded guards), then fall through to the
// normal retry chain after the remainder of the full deadline.
func (s *System) hedgeLookup(h *host, q *Query, attempt int, remaining simkernel.Time) {
	if q.handlerDir == noNode && !q.finished {
		if entry, ok := s.randomAliveDir(); ok {
			s.mets.RecordHedge()
			key := s.ks.KeyForWebsiteID(s.widBySite[q.Site], q.OriginLoc, q.targetInstance)
			s.sendQuery(q.Origin, entry, simnet.CatQuery, bytesQueryCtl, s.newRoutedMsg(key, q.Origin, q, true))
		}
	}
	s.await(q, remaining, awaitLookupRetry, h.addr, 0, int32(attempt+1))
}

func (s *System) retryNewClientQuery(h *host, q *Query, attempt int) {
	if q.recorded {
		return
	}
	s.stats.QueriesRetried++
	s.mets.RecordRetry()
	if attempt >= s.lookupAttemptLimit() {
		s.fallbackToOrigin(h, q)
		return
	}
	entry, ok := s.randomAliveDir()
	if !ok {
		s.fallbackToOrigin(h, q)
		return
	}
	key := s.ks.KeyForWebsiteID(s.widBySite[q.Site], q.OriginLoc, q.targetInstance)
	s.stamp(q)
	s.sendQuery(q.Origin, entry, simnet.CatQuery, bytesQueryCtl, s.newRoutedMsg(key, q.Origin, q, false))
	s.awaitLookup(h, q, attempt)
}

// backoffDelay doubles base attempt times, capped at ceil (overflow-safe).
func backoffDelay(base simkernel.Time, attempt int, ceil simkernel.Time) simkernel.Time {
	if attempt > 10 {
		return ceil
	}
	d := base << uint(attempt)
	if d > ceil || d <= 0 {
		d = ceil
	}
	return d
}

// Hardened last-resort retries are bounded: a query in a permanently
// partitioned locality terminates at the origin tier with O(1) pending
// state instead of looping forever.
const maxOriginRetries = 6

// awaitOriginRetry arms the hardened capped-backoff guard on a last-resort
// origin send: if the fetch (or its response) falls to message loss or a
// partition, the query re-sends instead of hanging unresolved — after a
// heal the first retry lands. No-op on clean-network configs, where origin
// sends cannot be lost.
func (s *System) awaitOriginRetry(h *host, q *Query, attempt int, viaDir bool) {
	if !s.Hardened() {
		return
	}
	if attempt >= maxOriginRetries {
		// The chain gives up: hand back a takeover-shedding slot q holds now,
		// not when its record is recycled, which the last fetch still in
		// flight delays.
		s.releaseShedSlot(q)
		return
	}
	d := backoffDelay(10*simkernel.Second, attempt, 80*simkernel.Second)
	d += simkernel.Time(s.rng.Int63n(int64(2 * simkernel.Second)))
	var via uint64
	if viaDir {
		via = 1
	}
	s.await(q, d, awaitOriginResend, h.addr, via, int32(attempt+1))
}

// takeShedSlot is overload shedding during directory takeover: while the
// locality's own directory position (key) is down, only takeoverShedSlots
// queries — new clients' lookups and members' escalations alike — may sit in
// the retry/timeout chains behind it at once. The excess short-circuits to the
// origin tier instead of queueing into a timeout storm: false means q was
// shed and is on its way there.
func (s *System) takeShedSlot(h *host, q *Query, key chord.ID) bool {
	if s.shedInFlight == nil {
		return true
	}
	if n := s.ring.Lookup(key); n == nil || !n.Up() {
		if int(s.shedInFlight[q.OriginLoc]) >= takeoverShedSlots {
			s.mets.RecordShed()
			s.fallbackToOrigin(h, q)
			return false
		}
		s.shedInFlight[q.OriginLoc]++
		q.shedCounted = true
	}
	return true
}

// releaseShedSlot returns the locality's shed-budget slot q holds, if any.
func (s *System) releaseShedSlot(q *Query) {
	if q.shedCounted {
		q.shedCounted = false
		s.shedInFlight[q.OriginLoc]--
	}
}

func (s *System) retryOrigin(h *host, q *Query, attempt int, viaDir bool) {
	// Gate on delivery (finished), not on the provider-side metric
	// (recorded): a serve whose transfer fell to loss left the query
	// recorded but the client empty-handed — and, for an admitted new
	// client, a directory index entry with no object behind it.
	if q.finished {
		return
	}
	s.mets.RecordRetry()
	if viaDir && s.net.Alive(h.addr) {
		s.sendQuery(h.addr, s.servers[q.Site], simnet.CatQuery, bytesQueryCtl, redirectMsg{Q: q})
	} else {
		s.sendQuery(q.Origin, s.servers[q.Site], simnet.CatQuery, bytesQueryCtl, fetchMsg{Q: q})
	}
	s.awaitOriginRetry(h, q, attempt, viaDir)
}

func (s *System) randomAliveDir() (simnet.NodeID, bool) {
	for try := 0; try < 8; try++ {
		addr := s.dirAddrs[s.rng.Intn(len(s.dirAddrs))]
		if s.net.Alive(addr) {
			return addr, true
		}
	}
	// Deterministic sweep as a last resort.
	for _, addr := range s.dirAddrs {
		if s.net.Alive(addr) {
			return addr, true
		}
	}
	return 0, false
}

// startContentPeerQuery implements the §4.1 member path: local store, then
// the content summaries of the peer's partial view, then (per policy) the
// directory, finally the origin server.
func (s *System) startContentPeerQuery(h *host, q *Query) {
	if h.cp.Has(q.Ref) {
		s.mets.RecordQuery(s.k.Now(), metrics.SourceLocal, 0, 0)
		q.finished = true
		return
	}
	// The query keeps the retryLimit candidates it may try.
	q.nCands = uint8(copy(q.cands[:], s.candidates(h.cp, q.Ref)))
	s.tryNextCandidate(h, q)
}

// candidates shuffles cp's candidates for ref (see overlay.AppendCandidates)
// into the pool's scratch buffer and returns them, valid until the next call.
func (s *System) candidates(cp *overlay.ContentPeer, ref model.ObjectRef) []simnet.NodeID {
	s.pool.cands = cp.AppendCandidates(s.pool.cands[:0], ref, s.rng)
	return s.pool.cands
}

func (s *System) tryNextCandidate(h *host, q *Query) {
	for q.nextCand < q.nCands {
		cand := q.cands[q.nextCand]
		q.nextCand++
		if cand == q.Origin || s.holderTripped(cand) {
			continue
		}
		s.trace(trace.Record{Kind: trace.PeerQuery, Query: q.ID, Node: q.Origin, Peer: cand})
		s.stamp(q)
		s.sendQuery(q.Origin, cand, simnet.CatQuery, bytesQueryCtl, peerQueryMsg{Q: q})
		s.await(q, s.exchangeTimeout(q.Origin, cand), awaitCandidate, h.addr, uint64(cand), 0)
		return
	}
	// View exhausted.
	if s.cfg.QueryPolicy == PolicyViewThenDirectory && h.cp != nil && h.cp.Dir().Known {
		dir := h.cp.Dir().Addr
		if !s.takeShedSlot(h, q, s.ks.KeyForWebsiteID(s.widBySite[q.Site], q.OriginLoc, 0)) {
			return
		}
		s.mets.RecordDirFallback()
		s.stamp(q)
		s.sendQuery(q.Origin, dir, simnet.CatQuery, bytesQueryCtl, dirQueryMsg{Q: q})
		esc := s.escalationTimeout(q)
		if hd, ok := s.hedgeDelay(q, esc); ok {
			// Retransmit-on-silence: if the directory started processing,
			// its own awaits re-armed this query's timeout and this one is
			// already dead — it fires only when the escalation (or every
			// reaction to it) was lost, so the resend races nothing.
			s.await(q, hd, awaitEscalateResend, h.addr, uint64(dir), int32(esc-hd))
			return
		}
		s.await(q, esc, awaitEscalateExpire, h.addr, 0, 0)
		return
	}
	s.trace(trace.Record{Kind: trace.ServerFetch, Variant: trace.ViewExhausted, Query: q.ID, Node: q.Origin,
		Peer: s.servers[q.Site]})
	s.fallbackToOrigin(h, q)
}

// onCandidateTimeout: a view contact ignored the peer query. Dead contact
// (§5.1 style failure detection): forget it and move on.
func (s *System) onCandidateTimeout(h *host, q *Query, cand simnet.NodeID) {
	s.mets.RecordRetry()
	if h.cp != nil {
		h.cp.RemoveContact(cand)
	}
	s.noteHolderTimeout(cand)
	s.tryNextCandidate(h, q)
}

// resendEscalation retransmits a member's view-miss escalation after the
// adaptive tail deadline and waits out the rest of the full one.
func (s *System) resendEscalation(h *host, q *Query, dir simnet.NodeID, remaining simkernel.Time) {
	s.mets.RecordRetry()
	s.sendQuery(q.Origin, dir, simnet.CatQuery, bytesQueryCtl, dirQueryMsg{Q: q})
	s.await(q, remaining, awaitEscalateExpire, h.addr, 0, 0)
}

// --- D-ring routing -------------------------------------------------------

func (s *System) handleRouted(h *host, m *routedMsg) {
	if h.phase != phDirectory {
		s.putRoutedMsg(m)
		return // stale route to a departed directory; sender-side timeouts recover
	}
	next, deliver := dring.NextHop(h.role.node, m.Key, s.ks)
	if !deliver {
		if m.TTL <= 0 {
			s.mets.RecordRouteTTLExpiry()
		} else {
			if q := m.Q; q != nil {
				s.trace(trace.Record{Kind: trace.RouteHop, Query: q.ID, Node: h.addr, Peer: next.Addr()})
			}
			m.TTL-- // the envelope travels on, hop to hop, in place
			s.sendQuery(h.addr, next.Addr(), simnet.CatQuery, bytesQueryCtl, m)
			return
		}
	}
	q, hedged, key, candidate := m.Q, m.Hedged, m.Key, m.Owner
	s.putRoutedMsg(m)
	if q == nil {
		s.handleDirJoinRequest(h, key, candidate)
		return
	}
	if hedged && q.handlerDir == noNode && !q.finished {
		// The hedge reached a directory before the primary lookup did.
		s.mets.RecordHedgeWin()
	}
	s.dirProcess(h, q, false)
}

// --- Algorithm 3: process(query) at a directory peer ----------------------

// dirProcess runs (and re-runs, after failures) the directory's query
// processing. Stages: directory index → own content/view (replacement
// directories, §5.2) → directory summaries → origin server. A query
// forwarded by a summary (§3.3) only runs the first stages and reports
// failure back instead of chaining further.
func (s *System) dirProcess(h *host, q *Query, forwarded bool) {
	if !s.net.Alive(h.addr) {
		return // the directory died mid-processing; requester timeouts recover
	}
	if h.dir == nil {
		// Routing delivered to a non-directory (severe churn): server.
		s.mets.RecordOriginFallback()
		s.sendQuery(h.addr, s.servers[q.Site], simnet.CatQuery, bytesQueryCtl, redirectMsg{Q: q})
		s.awaitOriginRetry(h, q, 0, true)
		return
	}
	if !forwarded && q.handlerDir == noNode {
		q.handlerDir = h.addr
		q.handlerIsLocal = h.dir.Site() == q.Site && h.dir.Locality() == q.OriginLoc
		if q.NewClient && q.handlerIsLocal {
			q.admitted = h.dir.AddOptimistic(q.Origin, q.Ref)
			if q.admitted {
				q.dirSeed = s.dirViewSeed(h, q)
				// A new member sits in the index's last slot: the guess saves its
				// first keepalive the map (KeepaliveAt verifies it either way).
				client := s.hosts[q.Origin]
				client.dirSlot = int32(h.dir.MemberCount() - 1)
				if s.Hardened() {
					client.noteAdmit(q.Ref)
				}
			}
		}
		if q.NewClient && !q.handlerIsLocal && h.dir.Site() == q.Site {
			// The client's own locality directory is missing; after being
			// served, the client volunteers to restore it (§5.2 spirit).
			exact := s.ks.KeyForWebsiteID(s.widBySite[q.Site], q.OriginLoc, q.targetInstance)
			if n := s.ring.Lookup(exact); n == nil || !n.Up() {
				q.needDirBootstrap = true
			}
		}
	}
	if !forwarded {
		s.trace(trace.Record{Kind: trace.DirProcess, Query: q.ID, Node: h.addr, Peer: -1,
			Str: string(h.dir.Site()), Loc: int32(h.dir.Locality())})
	}

	// Stage A: directory index (complete view of the content overlay).
	if holder, ok := h.dir.LowestHolder(q.Ref, func(n simnet.NodeID) bool {
		return n != q.Origin && !q.triedHolder(n) && !s.holderTripped(n)
	}); ok {
		s.dirRedirect(h, q, holder, forwarded)
		return
	}
	// Stage B: a replacement directory answers from its own store and its
	// content-peer view while its index rebuilds from pushes (§5.2).
	if h.cp != nil {
		if h.cp.Has(q.Ref) {
			s.serveQuery(h, q, forwarded, true)
			return
		}
		for _, cand := range s.candidates(h.cp, q.Ref) {
			if cand == q.Origin || q.triedHolder(cand) || s.holderTripped(cand) {
				continue
			}
			s.dirRedirect(h, q, cand, forwarded)
			return
		}
	}
	if forwarded {
		// This overlay cannot help; report back to the handler directory.
		s.sendQuery(h.addr, q.handlerDir, simnet.CatQuery, bytesQueryCtl, forwardFailMsg{Q: q})
		return
	}
	// Stage C: directory summaries of same-website neighbours.
	for _, dirID := range h.dir.NeighborsWithObject(q.Ref) {
		if q.triedDir(dirID) {
			continue
		}
		q.markTriedDir(dirID)
		target := s.ring.Lookup(dirID)
		if target == nil || !target.Up() {
			h.dir.RemoveNeighborSummary(dirID)
			continue
		}
		q.atRemote = true
		q.remoteDir = target.Addr()
		s.trace(trace.Record{Kind: trace.ForwardedToSibling, Query: q.ID, Node: h.addr, Peer: target.Addr()})
		s.sendQuery(h.addr, target.Addr(), simnet.CatQuery, bytesQueryCtl, forwardedQueryMsg{Q: q})
		s.await(q, s.timeout(h.addr, target.Addr())+2*simkernel.Second, awaitSibling, h.addr, uint64(dirID), 0)
		return
	}
	// Stage D: the origin web server.
	q.atRemote = false
	s.trace(trace.Record{Kind: trace.ServerFetch, Query: q.ID, Node: h.addr, Peer: s.servers[q.Site]})
	s.mets.RecordOriginFallback()
	s.sendQuery(h.addr, s.servers[q.Site], simnet.CatQuery, bytesQueryCtl, redirectMsg{Q: q})
	s.awaitOriginRetry(h, q, 0, true)
}

// onSiblingTimeout: the summary-suggested neighbour directory stayed
// silent; drop its summary and resume Algorithm 3 here.
func (s *System) onSiblingTimeout(h *host, q *Query, dirID chord.ID) {
	q.atRemote = false
	if h.dir != nil { // nil once a crashed directory's position is taken over
		h.dir.RemoveNeighborSummary(dirID)
	}
	s.dirProcess(h, q, false)
}

func (q *Query) triedHolder(n simnet.NodeID) bool {
	for _, h := range q.fails.holders {
		if h == n {
			return true
		}
	}
	return false
}

func (q *Query) markFailedHolder(n simnet.NodeID) {
	f := &q.fails
	if len(f.holders) >= maxFailedHolders {
		copy(f.holders, f.holders[1:])
		f.holders[len(f.holders)-1] = n
		return
	}
	f.holders = append(f.holders, n)
}

// dirRedirect sends the query to a believed holder and arms the §5.1
// redirection-failure timeout.
func (s *System) dirRedirect(h *host, q *Query, holder simnet.NodeID, forwarded bool) {
	s.trace(trace.Record{Kind: trace.Redirect, Query: q.ID, Node: h.addr, Peer: holder})
	s.sendQuery(h.addr, holder, simnet.CatQuery, bytesQueryCtl, redirectMsg{Q: q})
	var fwd int32
	if forwarded {
		fwd = 1
	}
	s.await(q, s.redirectTimeout(h.addr, holder), awaitRedirect, h.addr, uint64(holder), fwd)
}

// onRedirectTimeout: the believed holder never acknowledged (§5.1).
func (s *System) onRedirectTimeout(h *host, q *Query, holder simnet.NodeID, forwarded bool) {
	s.trace(trace.Record{Kind: trace.RedirectFailed, Query: q.ID, Node: h.addr, Peer: holder})
	s.mets.RecordRedirectFailure()
	if h.dir != nil { // nil once a crashed directory's position is taken over
		h.dir.RemovePeer(holder)
	}
	if h.cp != nil {
		h.cp.RemoveContact(holder)
	}
	s.noteHolderTimeout(holder)
	q.markFailedHolder(holder)
	s.dirProcess(h, q, forwarded)
}

// handleRedirect runs at the believed holder (content peer or server);
// dir is the redirecting directory, taken from the network envelope.
func (s *System) handleRedirect(h *host, q *Query, dir simnet.NodeID) {
	if h.phase == phServer {
		s.serveQuery(h, q, q.atRemote, false)
		return
	}
	// Acknowledge liveness to the redirecting directory.
	s.noteHolderAlive(h.addr)
	s.sendQuery(h.addr, dir, simnet.CatQuery, bytesQueryCtl, redirectAckMsg{Q: q})
	if h.cp != nil && h.cp.Has(q.Ref) {
		s.serveQuery(h, q, q.atRemote, true)
		return
	}
	s.sendQuery(h.addr, dir, simnet.CatQuery, bytesQueryCtl, redirectFailMsg{Q: q})
}

// handleRedirectFail runs at the directory when a holder no longer has the
// object: drop the stale listing and try the next destination (§5.1).
func (s *System) handleRedirectFail(h *host, q *Query, holder simnet.NodeID) {
	s.settle(q)
	if h.dir != nil {
		h.dir.ApplyPush(holder, nil, q.oneRef(q.Ref))
	}
	q.markFailedHolder(holder)
	s.dirProcess(h, q, q.atRemote && h.addr == q.remoteDir)
}

// handleForwardFail resumes processing at the handler directory after a
// neighbour overlay missed.
func (s *System) handleForwardFail(h *host, q *Query) {
	s.settle(q)
	q.atRemote = false
	s.dirProcess(h, q, false)
}

// handleDirQuery serves the PolicyViewThenDirectory ablation: a member
// escalates a view miss to its directory.
func (s *System) handleDirQuery(h *host, m dirQueryMsg) {
	q := m.Q
	if q.handlerDir == noNode {
		q.handlerDir = h.addr
		q.handlerIsLocal = h.dir != nil && h.dir.Site() == q.Site
	}
	s.dirProcess(h, q, false)
}

// handlePeerQuery runs at a view contact of the requesting content peer.
func (s *System) handlePeerQuery(h *host, m peerQueryMsg) {
	q := m.Q
	s.noteHolderAlive(h.addr)
	if h.cp != nil && h.cp.Has(q.Ref) {
		s.serveQuery(h, q, false, true)
		return
	}
	s.sendQuery(h.addr, q.Origin, simnet.CatQuery, bytesQueryCtl, nackMsg{Q: q})
}

// handleNack advances the requesting peer to its next candidate. from is
// the nacking contact, taken from the network envelope.
func (s *System) handleNack(h *host, m nackMsg, from simnet.NodeID) {
	q := m.Q
	s.settle(q)
	s.sample(q)
	s.trace(trace.Record{Kind: trace.PeerNack, Query: q.ID, Node: h.addr, Peer: from})
	s.tryNextCandidate(h, q)
}

// handleFetch runs at an origin server for direct fetches.
func (s *System) handleFetch(h *host, m fetchMsg) {
	s.serveQuery(h, m.Q, false, false)
}

// serveQuery records the lookup metrics at the providing node and ships
// the object to the requester.
func (s *System) serveQuery(h *host, q *Query, remote bool, fromContentPeer bool) {
	s.settle(q)
	now := s.k.Now()
	if !q.recorded {
		src := metrics.SourceServer
		if fromContentPeer {
			if remote {
				src = metrics.SourceRemoteOverlay
			} else {
				src = metrics.SourcePeer
			}
		}
		lookup := float64(now - q.Start)
		dist := s.topo.LatencyMs(h.addr, q.Origin)
		s.mets.RecordQuery(now, src, lookup, dist)
		q.recorded = true
		s.trace(trace.Record{Kind: trace.Served, Variant: trace.Variant(src), Query: q.ID, Node: h.addr, Peer: q.Origin,
			Args: [2]int32{trace.Ms(lookup), trace.Ms(dist)}})
		if fromContentPeer && q.handlerDir != noNode {
			// Partition-recovery probe: a P2P hit that went through a
			// directory proves the locality's directory plane works again.
			s.healProbe.note(q.OriginLoc, now)
		}
		if fromContentPeer && q.handlerIsLocal {
			// Crash-recovery probe: handlerIsLocal means the locality's OWN
			// directory position mediated the hit, i.e. the crashed
			// directory has been replaced (cold) or promoted (warm).
			s.crashProbe.note(q.OriginLoc, now)
		}
	}
	msg := s.newServeMsg(q, fromContentPeer)
	if q.NewClient && q.admitted && fromContentPeer && h.cp != nil &&
		h.cp.Site() == q.Site && h.cp.Locality() == q.OriginLoc {
		// §4.2: a client served by a content peer of its own overlay seeds
		// its view from that peer's view.
		msg.ViewSeed, msg.seedLease = h.cp.ViewSeedFor(s.rng, msg.ViewSeed)
	}
	s.sendQuery(h.addr, q.Origin, simnet.CatTransfer,
		bytesServeHdr+gossip.WireBytes(msg.ViewSeed, s.cfg.Gossip.SummaryBytes()), msg)
	if s.Hardened() {
		// Delivery guard: the transfer itself can fall to loss or a
		// partition. If the object never lands, re-fetch from the origin
		// (bounded by the capped-backoff chain).
		s.await(q, s.timeout(h.addr, q.Origin)+2*simkernel.Second, awaitDelivery, h.addr, 0, 0)
	}
}

// onDeliveryTimeout: the served object never landed; re-fetch it from the
// origin server.
func (s *System) onDeliveryTimeout(h *host, q *Query) {
	s.mets.RecordRetry()
	s.sendQuery(q.Origin, s.servers[q.Site], simnet.CatQuery, bytesQueryCtl, fetchMsg{Q: q})
	s.awaitOriginRetry(h, q, 0, false)
}

// handleServe completes the query at the requester: store the object, join
// the overlay if admitted, push the content delta.
func (s *System) handleServe(h *host, m *serveMsg) {
	q := m.Q
	s.settle(q)
	if q.finished {
		s.putServeMsg(m)
		return // duplicate delivery after a retry race
	}
	q.finished = true
	// One completed attempt→delivery round trip feeds the origin's
	// estimator; this is the timescale adaptive lookup deadlines target.
	s.sample(q)
	s.releaseShedSlot(q)
	if s.Hardened() && q.admitted {
		h.clearAdmit(q.Ref)
	}
	if h.cp == nil && q.NewClient && q.admitted && q.handlerIsLocal {
		s.joinOverlay(h, q, m.ViewSeed) // copied into the new view
	}
	s.putServeMsg(m)
	if h.cp == nil && q.needDirBootstrap {
		// The client's locality has no directory (and therefore no overlay
		// to admit it). It founds the overlay itself: become its first
		// content peer, then volunteer for the directory position below
		// (§4.1: "d(ws,loc) is the starting point of its content overlay").
		s.joinFounder(h, q)
	}
	if h.cp != nil {
		h.cp.AddObject(q.Ref)
		s.maybePush(h)
	}
	if q.needDirBootstrap {
		s.stats.DirBootstraps++
		if s.cfg.StandbyFailover && h.phase != phStandby {
			// Same head start the keepalive path gives the designated standby.
			s.deferDirJoin(h)
			return
		}
		s.attemptDirJoin(h, q.Site, q.OriginLoc)
	}
}

// overlayFor returns c(site, loc)'s shared descriptor, built at its first join.
func (s *System) overlayFor(site model.SiteID, loc int) *overlay.Shared {
	sh := &s.overlays[s.in.SiteIndex(site)*s.cfg.Localities+loc]
	if *sh == nil {
		*sh = overlay.NewShared(site, loc, s.cfg.Gossip, s.in)
	}
	return *sh
}

// joinFounder creates the first content peer of an orphaned overlay: no
// directory is known yet; attemptDirJoin (run by the caller) will install
// this peer as d(ws,loc) unless someone else won the race.
func (s *System) joinFounder(h *host, q *Query) {
	h.cp = s.overlayFor(q.Site, q.OriginLoc).NewPeer(h.addr, s.k.Now())
	s.finishJoin(h, q, -1, trace.Founding)
}

// joinOverlay turns a served client into a content peer of its locality's
// overlay (§4.1 construction).
func (s *System) joinOverlay(h *host, q *Query, viewSeed []gossip.Entry) {
	h.cp = s.overlayFor(q.Site, q.OriginLoc).NewPeer(h.addr, s.k.Now())
	h.cp.SetDir(q.handlerDir)
	if len(viewSeed) > 0 {
		h.cp.SeedView(viewSeed)
	} else if len(q.dirSeed) > 0 {
		// Served from elsewhere: the directory provides a subset of its
		// index, without summaries (§4.2).
		h.cp.SeedView(q.dirSeed)
	}
	s.finishJoin(h, q, q.handlerDir, 0)
}

// finishJoin is the shared tail of both joins: make the client a member,
// remember the directory instance, replay objects stashed across a locality
// change (§5.4), account the participant once per life, and start the peer's
// periodic behaviours. how is trace.Founding for an overlay's first member.
func (s *System) finishJoin(h *host, q *Query, dir simnet.NodeID, how trace.Variant) {
	s.transition(h, phMember)
	h.dirInstance = int32(q.targetInstance)
	if r := h.rare; r != nil {
		for _, obj := range r.stash {
			h.cp.AddObject(obj)
		}
		r.stash = nil
	}
	if !h.has(hfAccounted) {
		s.mets.PeerJoined(s.k.Now())
		h.flags |= hfAccounted
	}
	s.stats.Joins++
	s.trace(trace.Record{Kind: trace.Joined, Variant: how, Query: q.ID, Node: h.addr, Peer: dir,
		Str: string(q.Site), Loc: int32(q.OriginLoc)})
	s.startRound(h)
}

// dirViewSeed builds the view seed a directory hands to a client it admits
// but cannot have served locally: a uniform sample of min(L_gossip, eligible)
// index members other than the client, ages included, summaries absent
// (§4.2). It draws positions among the members with the client's left out —
// one draw per entry, none when every eligible member fits — into the
// query's own seed array, which its record keeps across reuse.
func (s *System) dirViewSeed(h *host, q *Query) []gossip.Entry {
	want := s.cfg.Gossip.GossipLen
	seed := q.dirSeed[:0]
	if cap(seed) < want {
		seed = make([]gossip.Entry, 0, want)
	}
	n, client := h.dir.MemberCount(), h.dir.MemberIndex(q.Origin)
	if client >= 0 {
		n--
	}
	var buf [gossip.SampleStack]int32 // a seed of up to SampleStack positions stays on the stack
	for _, i := range gossip.SamplePositions(s.rng, n, want, buf[:0]) {
		if client >= 0 && int(i) >= client {
			i++ // positions past the client's shift over it
		}
		seed = append(seed, gossip.Entry{Node: h.dir.MemberAt(int(i)), Age: 0})
	}
	return seed
}
