package core

import (
	"flowercdn/internal/simnet"
	"flowercdn/internal/trace"
)

// This file implements the active-replication extension the paper lists as
// future work (§8): "introduce active replication by pushing popular
// contents from some content overlay towards other overlays of the same
// website". Directory peers already know what is popular (they process
// queries and keep the complete overlay index), and they already hold
// Bloom summaries of their siblings' overlays — so an offer only names
// objects the receiving overlay probably lacks, and the receiving
// directory delegates the actual fetch to one of its members.
//
// The extension is off by default (Config.ReplicationTopK = 0); the
// evaluation tables of the paper were produced without it.

// replicationTick runs at a directory: offer the top-K requested objects
// to every same-website neighbour whose summary does not already report
// them.
func (s *System) replicationTick(h *host) {
	top := h.dir.TopObjects(s.cfg.ReplicationTopK)
	if len(top) == 0 {
		return
	}
	for _, ns := range h.dir.NeighborSummaries() {
		target := s.ring.Lookup(ns.DirID)
		if target == nil || !target.Up() {
			continue
		}
		var offers []ReplicaOffer
		for _, ref := range top {
			h1, h2 := s.in.Hashes(ref)
			if ns.Filter != nil && ns.Filter.TestHash(h1, h2) {
				continue // the sibling overlay (probably) has it already
			}
			holders := h.dir.Holders(ref)
			if len(holders) == 0 {
				continue
			}
			offers = append(offers, ReplicaOffer{
				Ref:    ref,
				Holder: holders[s.rng.Intn(len(holders))],
			})
		}
		if len(offers) == 0 {
			continue
		}
		bytes := 20 + 10*len(offers) // 4 B interned object ref + 6 B holder each
		s.net.Send(h.addr, target.Addr(), simnet.CatReplication, bytes,
			replicaOfferMsg{FromKey: h.dir.Key(), Offers: offers})
	}
}

// handleReplicaOffer runs at the receiving directory: pick a member to
// prefetch each object this overlay lacks.
func (s *System) handleReplicaOffer(h *host, m replicaOfferMsg) {
	if h.dir == nil {
		return
	}
	members := h.dir.Members()
	if len(members) == 0 {
		return
	}
	for _, offer := range m.Offers {
		if len(h.dir.Holders(offer.Ref)) > 0 {
			continue // raced: someone fetched it meanwhile
		}
		member := members[s.rng.Intn(len(members))]
		s.net.Send(h.addr, member, simnet.CatReplication, bytesQueryCtl,
			prefetchMsg{Ref: offer.Ref, Holder: offer.Holder})
	}
}

// handlePrefetch runs at the chosen member: fetch the object from the
// remote holder unless we already have it.
func (s *System) handlePrefetch(h *host, m prefetchMsg) {
	if h.cp == nil || h.cp.Has(m.Ref) {
		return
	}
	s.net.Send(h.addr, m.Holder, simnet.CatReplication, bytesQueryCtl,
		prefetchFetchMsg{Ref: m.Ref, From: h.addr})
}

// handlePrefetchFetch runs at the holder: serve the replica.
func (s *System) handlePrefetchFetch(h *host, m prefetchFetchMsg) {
	if h.cp == nil || !h.cp.Has(m.Ref) {
		return // stale offer; the prefetch silently fails
	}
	s.net.Send(h.addr, m.From, simnet.CatTransfer, bytesServeHdr,
		prefetchServeMsg{Ref: m.Ref})
}

// handlePrefetchServe completes the prefetch at the member: store the
// object and let the normal push path register it with the directory.
func (s *System) handlePrefetchServe(h *host, m prefetchServeMsg) {
	if h.cp == nil {
		return
	}
	h.cp.AddObject(m.Ref)
	s.stats.Prefetches++
	s.trace(trace.Record{Kind: trace.Prefetch, Node: h.addr, Peer: -1, Str: s.in.Key(m.Ref)})
	s.maybePush(h)
}
