package core

import (
	"flowercdn/internal/bloom"
	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/gossip"
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
)

// Modelled wire sizes (bytes). A served object costs only its header: the
// paper does not model object size (§6.1). Control messages are small.
const (
	bytesQueryCtl  = 48 // routed queries, redirects, fetches, acks, nacks
	bytesKeepalive = 20
	bytesJoinCtl   = 48
	bytesServeHdr  = 40
	bytesGossipHdr = 8 // overlay identity added by the core wrapper
)

// Query carries one client request through the system. It is shared by
// pointer across the simulated messages of a single in-process run; on a
// real wire it would be a compact identifier plus the interned object ref.
// Records are pooled: refs counts the messages in flight that carry one
// (sendQuery), its armed timeout (await) and the entry point running for
// it, and the last to go returns it to the pool (System.unref).
type Query struct {
	live bool // taken from the pool (System.newQuery) and not yet released
	refs int32

	ID     uint64
	Start  simkernel.Time
	Site   model.SiteID
	Origin simnet.NodeID

	// sentAt stamps the latest outbound attempt (adaptive runs only): the
	// answering handler turns now−sentAt into an RTT sample for the
	// origin's deadline estimator.
	sentAt simkernel.Time

	// The armed retry/failure timeout, if any, and what to do when it
	// fires: a typed continuation (see await) instead of a closure. At most
	// one is armed per query; awaitKind == awaitNone means none.
	pending   simkernel.TimerHandle
	awaitA    uint64        // continuation argument: a node, a ring ID or a duration
	awaitHost simnet.NodeID // the host the continuation resumes at
	awaitTok  uint32        // the monotonic token the timer was armed with
	awaitSlot uint32        // the record's own slot in the await registry
	awaitB    int32         // continuation argument: an attempt count, a flag or a duration

	Ref            model.ObjectRef // interned object; every lookup keys on this
	OriginLoc      int
	targetInstance int // §5.3: which directory instance the query targeted
	awaitKind      awaitKind
	stage          queryStage // how far the query has got; only advance writes it

	NewClient        bool
	handlerIsLocal   bool // handler covers the client's locality
	admitted         bool // optimistic index entry created; client joins on serve
	needDirBootstrap bool // client should try to become d(ws,loc) after service (§5.2 edge)

	refScratch [1]model.ObjectRef // backs oneRef

	cands            [retryLimit]simnet.NodeID // cands[nextCand:nCands]: untried content-peer candidates
	nextCand, nCands uint8

	handlerDir simnet.NodeID // the directory that ran Algorithm 3 for us (noNode: none yet)
	remoteDir  simnet.NodeID // the neighbour directory holding the query (noNode: none)
	dirSeed    []gossip.Entry
	fails      queryFails // failed-destination memory
}

// queryStage is how far a query has got, not where its copies are: hedges,
// retries and re-fetches put them in several places at once, but progress
// only moves forward (DESIGN.md "Query lifecycle").
type queryStage uint8

const (
	qOpen   queryStage = iota // no provider has served it yet
	qServed                   // a provider recorded the lookup and shipped the object
	qDone                     // resolved: the object landed, or was a local hit
)

// advance moves q on to stage to: open → served at the first serve, served
// → done on delivery, open → done on a local hit. A backward move, a second
// serve or a second resolution panics before touching the record.
func (q *Query) advance(to queryStage) {
	if to <= q.stage {
		panic("core: a query stage moves only forward, and once")
	}
	q.stage = to
}

// queryFails is a query's failed-destination dedup. Queries touch a handful
// of directories and holders, so linear scans over small arrays beat maps.
type queryFails struct {
	nDirs   int
	dirs    [maxTriedDirs]chord.ID
	holders []simnet.NodeID
}

// oneRef returns a one-element ref slice without allocating, backed by
// query-local scratch; callees (ApplyPush) must not retain it.
func (q *Query) oneRef(ref model.ObjectRef) []model.ObjectRef {
	q.refScratch[0] = ref
	return q.refScratch[:]
}

// Failed-destination memory is bounded: under message loss or a partition
// a query can cycle through directories and holders indefinitely, and an
// unbounded append would grow per-query state with every retry. The caps
// are far above what any clean-network query touches (a handful of
// neighbour summaries, retryLimit candidates), so eviction only engages
// under sustained faults; FIFO eviction forgets the oldest failure first,
// which at worst re-tries a destination that has had the longest time to
// recover.
const (
	maxTriedDirs     = 8
	maxFailedHolders = 32
)

func (q *Query) triedDir(id chord.ID) bool {
	for _, d := range q.fails.dirs[:q.fails.nDirs] {
		if d == id {
			return true
		}
	}
	return false
}

func (q *Query) markTriedDir(id chord.ID) {
	f := &q.fails
	if f.nDirs == maxTriedDirs {
		copy(f.dirs[:], f.dirs[1:])
		f.nDirs--
	}
	f.dirs[f.nDirs] = id
	f.nDirs++
}

// --- D-ring routed envelope ----------------------------------------------

// routedMsg is a message travelling through D-ring key-based routing
// (Algorithm 2): the lookup of query Q from its origin Owner or, with Q
// nil, the §5.2 replacement join of candidate Owner for the directory
// position Key. It travels by pointer, is forwarded hop to hop in place and
// returns to the pool where the route ends (newRoutedMsg / putRoutedMsg).
//
// Hedged marks the second (raced) lookup of an adaptive hedge: if it
// reaches a directory first — before any handler claimed the query — the
// hedge won.
type routedMsg struct {
	live   bool
	Hedged bool
	TTL    int
	Key    chord.ID
	Q      *Query
	Owner  simnet.NodeID
}

// --- Query-path messages --------------------------------------------------

// Every query-path message below is a single-pointer struct: storing one
// in Message.Payload (an `any`) is a direct-interface conversion, no heap
// allocation per send. Keep them single-pointer; the sender's address
// travels in the network envelope (Message.From), never in the payload.
// Each is a queryMsg: send it with sendQuery.

// redirectMsg: serve Q. A directory sends it to a believed holder (content
// peer or origin server), a requester straight to the origin server.
type redirectMsg struct{ Q *Query }

// redirectAckMsg: holder → directory: redirect received (liveness).
type redirectAckMsg struct{ Q *Query }

// redirectFailMsg: holder → directory: I no longer hold the object.
type redirectFailMsg struct{ Q *Query }

// peerQueryMsg: content peer → view contact: do you have Q.Obj?
type peerQueryMsg struct{ Q *Query }

// nackMsg: contact → content peer: I do not have it.
type nackMsg struct{ Q *Query }

// dirQueryMsg: content peer → its directory (PolicyViewThenDirectory).
type dirQueryMsg struct{ Q *Query }

// forwardedQueryMsg: directory → same-website directory suggested by a
// directory summary (Algorithm 3's second stage).
type forwardedQueryMsg struct{ Q *Query }

// forwardFailMsg: neighbour directory → handler: my overlay cannot serve.
type forwardFailMsg struct{ Q *Query }

// serveMsg: provider → requester: the object itself, plus (for freshly
// admitted clients) the initial view seed of §4.2. The provider is the
// network sender. Pooled like routedMsg; a recycled envelope keeps the
// backing array of ViewSeed, which the next seed appends into (newServeMsg
// / putServeMsg).
type serveMsg struct {
	live            bool
	FromContentPeer bool
	Q               *Query
	ViewSeed        []gossip.Entry
	seedLease       overlay.Lease // what ViewSeed's summaries travel under
}

// queryMsg is a query-path message: it holds a reference to its query while
// in flight (sendQuery).
type queryMsg interface{ query() *Query }

func (m *routedMsg) query() *Query        { return m.Q } // nil: a dir-join request
func (m *serveMsg) query() *Query         { return m.Q }
func (m redirectMsg) query() *Query       { return m.Q }
func (m redirectAckMsg) query() *Query    { return m.Q }
func (m redirectFailMsg) query() *Query   { return m.Q }
func (m peerQueryMsg) query() *Query      { return m.Q }
func (m nackMsg) query() *Query           { return m.Q }
func (m dirQueryMsg) query() *Query       { return m.Q }
func (m forwardedQueryMsg) query() *Query { return m.Q }
func (m forwardFailMsg) query() *Query    { return m.Q }

// carried returns the query a message payload holds a reference to (nil:
// none); a pooled one means a reference went uncounted.
func carried(payload any) *Query {
	var q *Query
	if m, ok := payload.(queryMsg); ok {
		q = m.query()
	}
	if q != nil && !q.live {
		panic("core: a message reached a pooled query record")
	}
	return q
}

// --- Overlay maintenance messages ----------------------------------------

// gossipMsg wraps an overlay gossip exchange with the overlay identity so
// a peer that changed locality (§5.4) can reject strays. It travels by
// pointer and is recycled through System.pool once handled, so
// steady-state gossip rounds do not allocate an envelope per exchange;
// allocate via System.newGossipMsg, release via System.putGossipMsg.
type gossipMsg struct {
	live bool
	Site model.SiteID
	Loc  int
	M    overlay.GossipMsg
}

// gossipRejectMsg: receiver is not (any more) in the sender's overlay.
type gossipRejectMsg struct{}

// pushMsg wraps Algorithm 5's ∆list push. Pooled like routedMsg; a
// recycled envelope keeps the backing arrays of M.Added / M.Removed, which
// the next push appends into (newPushMsg / putPushMsg).
type pushMsg struct {
	live bool
	Site model.SiteID
	M    overlay.PushMsg
}

// keepaliveMsg: content peer → directory (§5.1). Zero-size, so the periodic
// probe boxes nothing; the sender is the envelope's Message.From.
type keepaliveMsg struct{}

// keepaliveAckMsg: directory → content peer. Zero-size like keepaliveMsg.
type keepaliveAckMsg struct{}

// dirSummaryMsg: directory → same-website directory: refreshed directory
// summary (§3.3/§4.2.1).
type dirSummaryMsg struct {
	FromKey chord.ID
	Loc     int
	Filter  *bloom.Filter
}

// dirJoinTakenMsg: the directory position was already filled; NewDir is
// the peer that holds it now.
type dirJoinTakenMsg struct {
	Key    chord.ID
	NewDir simnet.NodeID
}

// dirJoinAcceptMsg: the candidate may take the position; Bootstrap is a
// live D-ring member to join through.
type dirJoinAcceptMsg struct {
	Key       chord.ID
	Bootstrap simnet.NodeID
}

// --- Warm-standby directory failover ---------------------------------------

// standbyAssignMsg: directory → its standby, every standby round: a full
// snapshot of the index. The first designates the standby and seeds its
// replica; each later one replaces the replica whole. Pooled like pushMsg: a
// recycled message keeps its rows, bitsets included, for the next export.
// Wire cost is the join-control header plus the interned 4 B/ref rate for
// every ref the snapshot carries (8 B/member row overhead).
type standbyAssignMsg struct {
	live    bool
	FromDir simnet.NodeID
	Key     chord.ID
	Site    model.SiteID
	Loc     int
	Entries []dring.IndexEntry
}

func (m *standbyAssignMsg) wireBytes() int {
	return bytesJoinCtl + 8*len(m.Entries) + 4*dring.EntriesRefCount(m.Entries)
}

// standbyRevokeMsg: directory → former standby: designation withdrawn
// (standby fell out of the overlay, or the directory is departing).
type standbyRevokeMsg struct{}

// standbyProbeMsg: standby → its primary directory: liveness probe, much
// tighter than the overlay keepalive so warm detection beats cold.
type standbyProbeMsg struct{}

// standbyProbeAckMsg: primary → standby: still alive.
type standbyProbeAckMsg struct{}

// standbyPromoteMsg: standby → itself: a probe went unanswered, decide the
// takeover one self-addressed hop later. The handler re-checks ring
// liveness — a false alarm (probe lost to the network, primary actually up)
// is a harmless no-op. The standby's replica names the position.
type standbyPromoteMsg struct{}
