package squirrel

import (
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/simnet"
)

// HandleMessage dispatches the Squirrel protocol.
func (h *host) HandleMessage(msg simnet.Message) {
	s := h.sys
	switch m := msg.Payload.(type) {
	case routedMsg:
		s.routeStep(h, m)
	case redirectMsg:
		s.handleRedirect(h, m)
	case redirectAckMsg:
		m.Q.settle()
	case redirectFailMsg:
		s.handleRedirectFail(h, m)
	case fetchMsg:
		s.serve(h, m.Q, false)
	case serveMsg:
		s.handleServe(h, m)
	case updateMsg:
		s.handleUpdate(h, m)
	case homeFetchMsg:
		s.handleHomeFetch(h, m)
	case homeServeMsg:
		s.handleHomeServe(h, m)
	}
}

// routeStep advances a query one hop through the DHT (standard key-based
// routing, Algorithm 1 in the paper's terminology).
func (s *System) routeStep(h *host, m routedMsg) {
	if h.node == nil || !h.node.Up() {
		return
	}
	next, deliver := h.node.RouteStep(m.Key)
	if !deliver && m.TTL > 0 {
		s.net.Send(h.addr, next.Addr(), simnet.CatQuery, bytesQueryCtl,
			routedMsg{Key: m.Key, TTL: m.TTL - 1, Q: m.Q})
		return
	}
	if !deliver {
		s.mets.RecordRouteTTLExpiry()
	}
	s.homeProcess(h, m.Q)
}

// homeProcess runs at the object's home node.
func (s *System) homeProcess(h *host, q *query) {
	q.home = h.addr
	if s.cfg.Strategy == StrategyHomeStore {
		if h.cache.Has(int(q.ref)) {
			s.serve(h, q, true)
			return
		}
		// Miss: the home node fetches from the origin server, stores the
		// object and serves the client.
		s.net.Send(h.addr, s.servers[q.site], simnet.CatQuery, bytesQueryCtl, homeFetchMsg{Q: q})
		return
	}
	// Directory strategy: redirect to a recent downloader.
	tried := 0
	for _, cand := range h.dir[q.ref] {
		if q.tried[cand] || cand == q.origin {
			continue
		}
		if tried >= retryLimit {
			break
		}
		q.tried[cand] = true
		s.net.Send(h.addr, cand, simnet.CatQuery, bytesQueryCtl, redirectMsg{Q: q, FromHome: h.addr})
		s.await(q, s.timeout(h.addr, cand), func() {
			// Dead downloader: drop the pointer and retry (the paper's
			// §5.1-style redirection-failure handling applies here too).
			s.mets.RecordRedirectFailure()
			h.removePointer(q.ref, cand)
			s.homeProcess(h, q)
		})
		return
	}
	// No usable pointer: the client fetches from the origin server.
	s.net.Send(h.addr, s.servers[q.site], simnet.CatQuery, bytesQueryCtl, redirectMsg{Q: q, FromHome: h.addr})
}

func (h *host) removePointer(ref model.ObjectRef, cand simnet.NodeID) {
	list := h.dir[ref]
	out := list[:0]
	for _, c := range list {
		if c != cand {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		delete(h.dir, ref)
	} else {
		h.dir[ref] = out
	}
}

// addPointer records a fresh downloader, keeping at most maxDirEntries
// (most recent last).
func (h *host) addPointer(ref model.ObjectRef, from simnet.NodeID) {
	list := h.dir[ref]
	for i, c := range list {
		if c == from {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	list = append(list, from)
	if len(list) > maxDirEntries {
		list = list[len(list)-maxDirEntries:]
	}
	h.dir[ref] = list
}

func (s *System) handleRedirect(h *host, m redirectMsg) {
	q := m.Q
	if h.server {
		s.serve(h, q, false)
		return
	}
	s.net.Send(h.addr, m.FromHome, simnet.CatQuery, bytesQueryCtl, redirectAckMsg{Q: q})
	if h.cache.Has(int(q.ref)) {
		s.serve(h, q, true)
		return
	}
	s.net.Send(h.addr, m.FromHome, simnet.CatQuery, bytesQueryCtl, redirectFailMsg{Q: q, From: h.addr})
}

func (s *System) handleRedirectFail(h *host, m redirectFailMsg) {
	q := m.Q
	q.settle()
	h.removePointer(q.ref, m.From)
	s.homeProcess(h, q)
}

// serve records the lookup metrics at the provider and ships the object.
func (s *System) serve(h *host, q *query, fromPeer bool) {
	q.settle()
	now := s.k.Now()
	if !q.recorded {
		src := metrics.SourceServer
		if fromPeer {
			src = metrics.SourcePeer
		}
		s.mets.RecordQuery(now, src, float64(now-q.start), s.topo.LatencyMs(h.addr, q.origin))
		q.recorded = true
	}
	s.net.Send(h.addr, q.origin, simnet.CatTransfer, bytesServeHdr,
		serveMsg{Q: q, Provider: h.addr, FromPeer: fromPeer})
}

// handleServe completes the query at the requester: cache the object and
// tell the home node we are a downloader now.
func (s *System) handleServe(h *host, m serveMsg) {
	q := m.Q
	q.settle()
	if q.finished {
		return
	}
	q.finished = true
	h.cache.Set(int(q.ref))
	if s.cfg.Strategy == StrategyDirectory && q.home != 0 {
		s.net.Send(h.addr, q.home, simnet.CatQuery, bytesQueryCtl, updateMsg{Ref: q.ref, From: h.addr})
	}
}

func (s *System) handleUpdate(h *host, m updateMsg) {
	if h.node == nil {
		return
	}
	h.addPointer(m.Ref, m.From)
}

// handleHomeFetch runs at the origin server for a home-store miss.
func (s *System) handleHomeFetch(h *host, m homeFetchMsg) {
	q := m.Q
	if !q.recorded {
		// The server is the ultimate provider for this miss.
		now := s.k.Now()
		s.mets.RecordQuery(now, metrics.SourceServer, float64(now-q.start), s.topo.LatencyMs(h.addr, q.origin))
		q.recorded = true
	}
	s.net.Send(h.addr, q.home, simnet.CatTransfer, bytesServeHdr, homeServeMsg{Q: q})
}

// handleHomeServe runs at the home node: store and forward to the client.
func (s *System) handleHomeServe(h *host, m homeServeMsg) {
	q := m.Q
	h.cache.Set(int(q.ref))
	s.net.Send(h.addr, q.origin, simnet.CatTransfer, bytesServeHdr,
		serveMsg{Q: q, Provider: h.addr, FromPeer: true})
}
