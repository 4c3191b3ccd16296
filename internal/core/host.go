package core

import (
	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// host is one simulated process. A host can play several roles over its
// lifetime: origin server, directory peer, content peer — and, after a
// §5.2 replacement, directory and content peer at once.
//
// Only the cold, pointer-shaped protocol state lives here; the hot
// per-host control fields (tickers, await tokens, timeout handles, role
// bits, locality, stash) live in System.hs, a struct-of-arrays indexed by
// addr — see hoststate.go.
type host struct {
	sys  *System
	addr simnet.NodeID

	// Roles.
	serverSite model.SiteID
	cp         *overlay.ContentPeer
	dir        *dring.Directory
	dirNode    *chord.Node

	// Warm-standby failover state (nil/zero unless Config.StandbyFailover
	// engaged it; rare enough that pointer-shaped host fields beat SoA
	// slots). A directory remembers its designated standby; a standby
	// carries the replica index, the primary it watches and the probe
	// watchdog machinery.
	standby       simnet.NodeID    // directory side: designated standby (0 = none)
	standbyTicker simkernel.Ticker // directory side: designation + anti-entropy loop
	deltaShards   []int32          // directory side: TakeDirtyShards scratch
	replica       *dring.Directory // standby side: warm copy of the primary's index
	standbyFor    simnet.NodeID    // standby side: the watched primary (0 = not a standby)
	standbyKey    chord.ID         // standby side: the D-ring position to take over
	standbySite   model.SiteID
	standbyLoc    int
	probeTicker   simkernel.Ticker
	probeToken    uint32
	probeTimeout  simkernel.TimerHandle
}

func (h *host) isServer() bool { return h.sys.hs.has(h.addr, hfServer) }

func (h *host) overlayLocality() int { return h.sys.hs.overlayLocality(h.addr) }

// HandleMessage dispatches simulated datagrams to the protocol engines.
func (h *host) HandleMessage(msg simnet.Message) {
	s := h.sys
	switch m := msg.Payload.(type) {
	case *routedMsg:
		s.handleRouted(h, m)
	case redirectMsg:
		s.handleRedirect(h, m.Q, msg.From)
	case redirectAckMsg:
		s.settle(m.Q)
	case redirectFailMsg:
		s.handleRedirectFail(h, m.Q, msg.From)
	case peerQueryMsg:
		s.handlePeerQuery(h, m)
	case nackMsg:
		s.handleNack(h, m, msg.From)
	case fetchMsg:
		s.handleFetch(h, m)
	case dirQueryMsg:
		s.handleDirQuery(h, m)
	case forwardedQueryMsg:
		s.dirProcess(h, m.Q, true) // Algorithm 3's restricted form at the neighbour
	case forwardFailMsg:
		s.handleForwardFail(h, m.Q)
	case *serveMsg:
		s.handleServe(h, m)
	case *gossipMsg:
		s.handleGossip(h, m)
	case gossipRejectMsg:
		s.handleGossipReject(h, m)
	case *pushMsg:
		s.handlePush(h, m)
	case keepaliveMsg:
		s.handleKeepalive(h, m)
	case keepaliveAckMsg:
		s.handleKeepaliveAck(h, m)
	case dirSummaryMsg:
		s.handleDirSummary(h, m)
	case dirJoinTakenMsg:
		s.handleDirJoinTaken(h, m)
	case dirJoinAcceptMsg:
		s.handleDirJoinAccept(h, m)
	case replicaOfferMsg:
		s.handleReplicaOffer(h, m)
	case prefetchMsg:
		s.handlePrefetch(h, m)
	case prefetchFetchMsg:
		s.handlePrefetchFetch(h, m)
	case prefetchServeMsg:
		s.handlePrefetchServe(h, m)
	case standbyAssignMsg:
		s.handleStandbyAssign(h, m)
	case standbyDeltaMsg:
		s.handleStandbyDelta(h, m)
	case standbyRevokeMsg:
		s.handleStandbyRevoke(h, m)
	case standbyProbeMsg:
		s.handleStandbyProbe(h, m)
	case standbyProbeAckMsg:
		s.handleStandbyProbeAck(h, m)
	case standbyPromoteMsg:
		s.handleStandbyPromote(h, m)
	default:
		// Unknown payloads are dropped (future-proofing).
	}
}

// timeout estimates a failure-detection deadline for an exchange with the
// given peer: a round trip plus slack. Simulated processes know their
// measured RTTs (as real peers would from ping history).
func (s *System) timeout(a, b simnet.NodeID) simkernel.Time {
	return 2*s.net.Latency(a, b) + 50*simkernel.Millisecond
}

// awaitKind names what a query does when its armed timeout fires: the
// typed continuation await stores in the Query in place of a closure.
type awaitKind uint8

const (
	awaitNone           awaitKind = iota
	awaitLookupHedge              // hedgeLookup(attempt b, remaining a)
	awaitLookupRetry              // retryNewClientQuery(attempt b)
	awaitOriginResend             // retryOrigin(attempt b, viaDir a)
	awaitCandidate                // view contact a stayed silent
	awaitEscalateResend           // resend the escalation to directory a, b ms of deadline left
	awaitEscalateExpire           // the escalation's deadline passed: origin tier
	awaitSibling                  // neighbour directory with ring ID a stayed silent
	awaitRedirect                 // holder a stayed silent (b: the query was forwarded here)
	awaitDelivery                 // the served object never landed
)

// await arms a cancellable timeout for q: after d, unless a settle (on
// response) or a newer await revokes it first, the continuation (kind, a,
// b) resumes at host. At most one timeout per query is armed at a time, so
// completion leaves no dead events behind. Arming allocates nothing: the
// continuation lives in the Query and the timer rides AfterArg with the
// bound resumeAwait, its argument packing the query's registry slot with a
// monotonic token.
func (s *System) await(q *Query, d simkernel.Time, kind awaitKind, host simnet.NodeID, a uint64, b int32) {
	s.settle(q)
	p := &s.pool
	if n := len(p.awaitFree); n > 0 {
		q.awaitSlot = p.awaitFree[n-1]
		p.awaitFree = p.awaitFree[:n-1]
	} else {
		p.awaiting = append(p.awaiting, nil)
		q.awaitSlot = uint32(len(p.awaiting) - 1)
	}
	p.awaiting[q.awaitSlot] = q
	p.awaitTok++
	q.awaitTok = p.awaitTok
	q.awaitKind, q.awaitHost, q.awaitA, q.awaitB = kind, host, a, b
	q.pending = s.k.AfterArg(d, p.awaitFn, uint64(q.awaitSlot)|uint64(q.awaitTok)<<32)
}

// resumeAwait fires a query timeout armed in the await registry. A timer
// that outlived its arm finds its slot empty or re-let under a newer token
// and does nothing.
func (s *System) resumeAwait(arg uint64) {
	q := s.pool.awaiting[uint32(arg)]
	if q == nil || q.awaitTok != uint32(arg>>32) {
		return
	}
	kind, h, a, b := q.awaitKind, s.hosts[q.awaitHost], q.awaitA, int(q.awaitB)
	s.releaseAwait(q)
	if q.finished {
		return
	}
	switch kind {
	case awaitLookupHedge:
		s.hedgeLookup(h, q, b, simkernel.Time(a))
	case awaitLookupRetry:
		s.retryNewClientQuery(h, q, b)
	case awaitOriginResend:
		s.retryOrigin(h, q, b, a != 0)
	case awaitCandidate:
		s.onCandidateTimeout(h, q, simnet.NodeID(a))
	case awaitEscalateResend:
		s.resendEscalation(h, q, simnet.NodeID(a), simkernel.Time(b))
	case awaitEscalateExpire:
		s.fallbackToOrigin(h, q)
	case awaitSibling:
		s.onSiblingTimeout(h, q, chord.ID(a))
	case awaitRedirect:
		s.onRedirectTimeout(h, q, simnet.NodeID(a), b != 0)
	case awaitDelivery:
		s.onDeliveryTimeout(h, q)
	}
}
