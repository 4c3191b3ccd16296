package core

import (
	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// host is one simulated process and the one record of everything the
// protocol keeps about it. Its phase says which role it plays: origin
// server, client, content peer, warm standby or directory peer (after a
// §5.2 replacement, directory and content peer at once), or none since a
// crash; only transition changes it (hoststate.go).
//
// Ticks arrive in time order, one host at a time, so what a round reads
// (the round ticker and its one deadline, the gossip partner, flags,
// locality) sits inline next to the protocol pointers: one record, ≤ 112
// bytes (TestHostRecordSize), for every potential client. What only a
// directory or its warm standby carries lives behind role, what a client
// rarely needs behind rare; both are nil until first used.
type host struct {
	sys *System

	// Roles.
	cp   *overlay.ContentPeer
	dir  *dring.Directory
	role *dirRole
	rare *rareState

	// The content peer's round (gossip and keepalive on one ticker,
	// overlaywire.go), its one failure-detection deadline, armed while an
	// hfAwait bit is set, and the earlier of its halves' own timeouts.
	round    simkernel.Ticker
	deadline simkernel.TimerHandle
	firstDue simkernel.Time

	addr         simnet.NodeID
	gossipTarget int32  // the pending gossip partner's NodeID
	longPhase    uint32 // round count mod roundsPerLong of the longer half's rounds
	loc          int32  // measured (landmark) locality
	dirInstance  int32  // §5.3 directory instance this content peer belongs to
	// dirSlot is where the directory last found this member in its index: a
	// hint dring.KeepaliveAt verifies, so a keepalive skips the NodeID→slot map.
	dirSlot int32
	flags   hostFlag
	phase   phase
}

// dirRole is what a host carries in the directory or standby phase
// (Config.StandbyFailover), allocated at its first promotion or designation.
// A directory keeps its D-ring node, its round (dirRound) and the residue
// that places its parts, and its designated standby. A standby keeps its
// replica of the primary's index, whose key, site and locality name the
// position it would take over, the primary it watches and the probe
// watchdog; leaving the phase drops them.
type dirRole struct {
	node        *chord.Node // the D-ring node (nil: not on the ring)
	round       simkernel.Ticker
	residue     uint32        // round count mod System.dirCycle of the parts' first round
	standby     simnet.NodeID // designated standby (noNode = none)
	deltaShards []int32       // TakeDirtyShards scratch

	replica      *dring.Directory // warm copy of the primary's index
	standbyFor   simnet.NodeID    // the watched primary (noNode = not a standby)
	probeTicker  simkernel.Ticker
	probeTimeout simkernel.TimerHandle
}

// noNode stands for "no host" in a NodeID field; every NodeID, node 0
// included, is a host (trace records use -1 the same way).
const noNode simnet.NodeID = -1

// newDirRole allocates role state that names no standby and watches no
// primary; the auditor reads idleRole for a host that holds none.
func newDirRole() *dirRole { return &dirRole{standby: noNode, standbyFor: noNode} }

var idleRole = newDirRole()

// rareState is the client state most hosts never need, allocated on first
// use: the §5.4 locality override and stash, the §5.2 dir-join timer and
// retry count, and a hardened run's pending admissions.
type rareState struct {
	// stash is content kept across a locality change (§5.4): the peer keeps
	// its objects and re-pushes them after rejoining.
	stash []model.ObjectRef

	// admitPending: optimistic admissions whose serve has not landed yet
	// (hardened runs only). The directory indexes a new client at admission
	// time, before the object reaches it; under loss or a partition that gap
	// is open for seconds to minutes, and abandoned queries leave it open for
	// good. The auditor consults this set so only entries with no admission
	// behind them count as index corruption. It starts on admitRoom, so the
	// usual one or two pending admissions cost no allocation of their own.
	admitPending []model.ObjectRef
	admitRoom    [2]model.ObjectRef

	joinTimer   simkernel.TimerHandle
	assignedLoc int32 // §5.4 override, valid when hfLocOverride is set
	// joinAttempts counts consecutive unanswered §5.2 dir-join requests,
	// driving the hardened retry backoff; any answer (taken/accept) or a
	// revival resets it.
	joinAttempts uint8
}

// HandleMessage dispatches simulated datagrams to the protocol engines. A
// query-path message holds its query until the handler returns.
func (h *host) HandleMessage(msg simnet.Message) {
	s := h.sys
	if q := carried(msg.Payload); q != nil {
		defer s.unref(q)
	}
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
		s.handleGossipReject(h, msg.From)
	case *pushMsg:
		s.handlePush(h, m)
	case keepaliveMsg:
		s.handleKeepalive(h, msg.From)
	case keepaliveAckMsg:
		s.handleKeepaliveAck(h)
	case dirSummaryMsg:
		s.handleDirSummary(h, m)
	case dirJoinTakenMsg:
		s.handleDirJoinTaken(h, m)
	case dirJoinAcceptMsg:
		s.handleDirJoinAccept(h, m)
	case standbyAssignMsg:
		s.handleStandbyAssign(h, m)
	case standbyDeltaMsg:
		s.handleStandbyDelta(h, m)
	case standbyRevokeMsg:
		s.handleStandbyRevoke(h, msg.From)
	case standbyProbeMsg:
		s.handleStandbyProbe(h, msg.From)
	case standbyProbeAckMsg:
		s.handleStandbyProbeAck(h, msg.From)
	case standbyPromoteMsg:
		s.handleStandbyPromote(h)
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
// monotonic token. The armed timer holds a reference to q.
func (s *System) await(q *Query, d simkernel.Time, kind awaitKind, host simnet.NodeID, a uint64, b int32) {
	s.settle(q)
	q.refs++
	p := &s.pool
	p.awaiting[q.awaitSlot] = q
	p.awaitTok++
	q.awaitTok = p.awaitTok
	q.awaitKind, q.awaitHost, q.awaitA, q.awaitB = kind, host, a, b
	q.pending = s.k.AfterArg(d, p.awaitFn, uint64(q.awaitSlot)|uint64(q.awaitTok)<<32)
}

// resumeAwait fires a query timeout armed in the await registry, whose
// reference lasts until the continuation returns. A timer that outlived its
// arm finds its slot empty or re-let under a newer token and does nothing.
func (s *System) resumeAwait(arg uint64) {
	q := s.pool.awaiting[uint32(arg)]
	if q != nil && !q.live {
		panic("core: a timer reached a pooled query record")
	}
	if q == nil || q.awaitTok != uint32(arg>>32) {
		return
	}
	kind, h, a, b := q.awaitKind, s.hosts[q.awaitHost], q.awaitA, int(q.awaitB)
	s.releaseAwait(q)
	defer s.unref(q)
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
