package core

import (
	"cmp"
	"fmt"
	"math/rand"

	"flowercdn/internal/chord"
	"flowercdn/internal/dring"
	"flowercdn/internal/gossip"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// Stats are system-level protocol counters (not paper metrics; used by
// tests, examples and the CLI's diagnostics section).
type Stats struct {
	Joins           int // clients that became content peers
	DirReplacements int // successful §5.2 replacements
	DirBootstraps   int // directories re-created for orphaned localities
	GossipRejects   int // gossip to peers that left the overlay (§5.4)
	QueriesRetried  int // new-client queries re-submitted after entry loss
	QueryRecords    int // Query records allocated: the peak of queries alive at once

	// Warm-standby failover counters (zero unless Config.StandbyFailover).
	StandbyAssigns    int // standby designations, each with a full index snapshot
	StandbySyncs      int // snapshots sent to a standby after the designating one
	StandbyPromotions int // standbys that took over a dead position
}

// System is one running Flower-CDN instance over a simulated network.
type System struct {
	cfg  Config
	k    *simkernel.Kernel
	net  *simnet.Network
	topo *topology.Topology
	mets *metrics.Collector

	// in is the dense object interner shared by every layer touching
	// content identity (overlay bitsets, directory indexes, Bloom probes).
	in *model.Interner

	ks   dring.KeySpec
	ring *chord.Ring

	hosts     []*host // indexed by simnet.NodeID; nil = not part of the system
	dirAddrs  []simnet.NodeID
	widBySite map[model.SiteID]uint64

	servers map[model.SiteID]simnet.NodeID
	pools   [][][]simnet.NodeID // [activeSiteIdx][loc][member]
	// overlays[siteIdx*Localities+loc] is what the content peers of one
	// c(ws,loc) share (nil until its first join; see overlayFor).
	overlays []*overlay.Shared

	rng *rand.Rand
	qid uint64

	// pool holds the recycled message envelopes and Query records and the
	// await registry. A lost message hands its envelope back too (reclaim).
	pool msgPool

	// The failure-detection timeouts' and the periodic behaviours' callbacks,
	// bound once here so arming a timer never builds a closure; the kernel
	// passes the host address as the argument.
	deadlineFn, joinLatchFn, joinRetryFn, probeTimeoutFn func(uint64)
	roundFn, dirRoundFn, probeTickFn                     func(uint64)

	// A content peer's round ticks at the shorter of TGossip and TKeepalive,
	// the other every roundsPerLong rounds (overlaywire.go). A directory's
	// round ticks at dirPeriod, part i of it every dirEvery[i] rounds (0: not
	// armed), the longest every dirCycle.
	roundPeriod, roundsPerLong, dirPeriod, dirCycle simkernel.Time
	dirEvery                                        [3]simkernel.Time

	// Recovery probes (empty until armed). healProbe measures, per locality,
	// from the end of its last partition window (InstallFaults) to the first
	// directory-mediated P2P hit; crashProbe from a scheduled directory crash
	// (CrashDirectory) to the first hit mediated by the locality's OWN
	// directory position — a remote same-site directory mediating a misrouted
	// query proves nothing about the crashed locality's directory plane.
	healProbe, crashProbe recoveryProbe

	// The standby→primary liveness probe period: detection must beat the cold
	// path's keepalive-offset race or warm failover buys nothing.
	standbyProbe simkernel.Time

	// adapt is the gray-failure estimator and holder-health state, one slot
	// per underlay node (nil unless Config.Adaptive; see adaptive.go).
	adapt []adaptiveSlot

	tracer trace.Tracer
	stats  Stats
}

// msgPool is the system's recycled query-, gossip- and standby-path machinery.
type msgPool struct {
	gossip []*gossipMsg
	subset [][]gossip.Entry
	serve  []*serveMsg
	routed []*routedMsg
	push   []*pushMsg
	sync   []*standbyAssignMsg

	// Query records nothing reaches any more, and how many came back finished
	// and unfinished (abandoned: nothing was left to resolve them).
	queries             []*Query
	finished, abandoned int

	cands []simnet.NodeID // candidates' reusable scratch buffer

	// Await registry: every record owns slot awaitSlot, which holds it while
	// its timeout is armed (nil otherwise) and which the timer's argument
	// carries. awaitTok numbers the arms, so a timer that outlives its arm is
	// told apart from the next one. awaitFn is resumeAwait, bound once.
	awaiting []*Query
	awaitTok uint32
	awaitFn  func(uint64)
}

// take pops a recycled envelope or record off a free list, or allocates one.
func take[T any](free *[]*T) *T {
	if n := len(*free); n > 0 {
		e := (*free)[n-1]
		*free = (*free)[:n-1]
		return e
	}
	return new(T)
}

// put zeroes a released envelope or Query record and returns it to a free
// list. live is the object's own flag (zeroed with it): every journey of a
// pooled envelope ends in one release — by the handler it reached, or by the
// network's drop hook (reclaim) when it reached none — and a record is
// released once, by its last reference, so a second release, or a release
// of an object already handed back, panics here instead of corrupting the
// pool.
func put[T any](free *[]*T, e *T, live *bool) {
	if !*live {
		panic("core: pooled object used after release")
	}
	var zero T
	*e = zero
	*free = append(*free, e)
}

// reclaim is the network's drop hook (set once in New): a message lost at a
// dead sender, in the fault plane or at a dead receiver ends its journey in
// the network, which hands its envelope back here instead of leaving it —
// and the buffers inside it — to the collector, and its query reference.
func (s *System) reclaim(payload any) {
	if q := carried(payload); q != nil {
		defer s.unref(q)
	}
	switch m := payload.(type) {
	case *gossipMsg:
		s.putGossipMsg(m)
	case *pushMsg:
		s.putPushMsg(m)
	case *serveMsg:
		s.putServeMsg(m)
	case *routedMsg:
		s.putRoutedMsg(m)
	case *standbyAssignMsg:
		s.putSyncMsg(m)
	}
}

// newQuery takes a zeroed Query record from the pool (or allocates one)
// with the reference of the entry point that runs for it.
func (s *System) newQuery() *Query {
	p := &s.pool
	if len(p.queries) == 0 {
		p.queries = append(p.queries, &Query{awaitSlot: uint32(len(p.awaiting))})
		p.awaiting = append(p.awaiting, nil)
		s.stats.QueryRecords++
	}
	q := take(&p.queries)
	q.live, q.refs, q.handlerDir, q.remoteDir = true, 1, noNode, noNode
	return q
}

// sendQuery sends a query-path message, which holds a reference to its
// query until the handler it reaches returns or the network loses it.
func (s *System) sendQuery(from, to simnet.NodeID, cat simnet.Category, bytes int, payload any) {
	if q := carried(payload); q != nil {
		q.refs++
	}
	s.net.Send(from, to, cat, bytes, payload)
}

// unref drops one reference to q. The last returns the record to the pool,
// zeroed but for its registry slot and the arrays of its view seed and
// failed holders; a query released unfinished was abandoned.
func (s *System) unref(q *Query) {
	if q.refs > 1 {
		q.refs--
		return
	}
	p, finished := &s.pool, q.stage == qDone
	seed, holders, slot := q.dirSeed[:0], q.fails.holders[:0], q.awaitSlot
	put(&p.queries, q, &q.live)
	q.dirSeed, q.fails.holders, q.awaitSlot = seed, holders, slot
	if finished {
		p.finished++
	} else {
		p.abandoned++
	}
}

// Pooled query-path envelopes: taken from the pool when sent, released by
// the handler that ends their journey, which must not touch them after. Nor
// may a sender after Send: a message from a dead host or into the fault
// plane is released before Send returns.

func (s *System) newServeMsg(q *Query, fromContentPeer bool) *serveMsg {
	m := take(&s.pool.serve)
	m.live, m.Q, m.FromContentPeer = true, q, fromContentPeer
	return m
}

func (s *System) putServeMsg(m *serveMsg) {
	seed, lease := m.ViewSeed, m.seedLease
	put(&s.pool.serve, m, &m.live)
	lease.End()
	clear(seed) // do not pin summaries while pooled
	m.ViewSeed = seed[:0]
}

// newRoutedMsg builds a routed envelope with a fresh TTL for owner: the
// origin of the query looked up (q set), or the candidate of a
// directory-join request (q nil).
func (s *System) newRoutedMsg(key chord.ID, owner simnet.NodeID, q *Query, hedged bool) *routedMsg {
	m := take(&s.pool.routed)
	*m = routedMsg{live: true, Hedged: hedged, TTL: dring.RouteTTL(s.ks.Space), Key: key, Q: q, Owner: owner}
	return m
}

func (s *System) putRoutedMsg(m *routedMsg) { put(&s.pool.routed, m, &m.live) }

// newPushMsg takes a push envelope whose M.Added / M.Removed are empty but
// keep the capacity of their last use, for TakePush to fill.
func (s *System) newPushMsg(site model.SiteID) *pushMsg {
	m := take(&s.pool.push)
	m.live, m.Site = true, site
	return m
}

func (s *System) putPushMsg(m *pushMsg) {
	added, removed := m.M.Added[:0], m.M.Removed[:0]
	put(&s.pool.push, m, &m.live)
	m.M.Added, m.M.Removed = added, removed
}

// putSyncMsg keeps a standby snapshot's rows, and their bitsets, for the
// next export (dring.Directory.ExportEntries).
func (s *System) putSyncMsg(m *standbyAssignMsg) {
	entries := m.Entries[:0]
	put(&s.pool.sync, m, &m.live)
	m.Entries = entries
}

// newGossipMsg takes an envelope from the pool (or allocates one) and
// fills it.
func (s *System) newGossipMsg(site model.SiteID, loc int, m overlay.GossipMsg) *gossipMsg {
	g := take(&s.pool.gossip)
	g.live, g.Site, g.Loc, g.M = true, site, loc, m
	return g
}

// putGossipMsg returns a fully-handled envelope — and the view-subset buffer
// travelling inside it — to the pool, and its summaries to their overlay. The
// handler must not retain any reference to the envelope or its M afterwards.
func (s *System) putGossipMsg(g *gossipMsg) {
	m := g.M
	put(&s.pool.gossip, g, &g.live) // zeroed: releases the subset slice and summary pointers
	m.Lease.End()
	if sub := m.ViewSubset; cap(sub) > 0 {
		clear(sub) // do not pin summaries while pooled
		s.pool.subset = append(s.pool.subset, sub[:0])
	}
}

// takeSubsetBuf takes an empty view-subset buffer from the pool (nil when
// the pool is dry: the subset builder then allocates one that will join the
// pool once its exchange completes).
func (s *System) takeSubsetBuf() []gossip.Entry {
	p := &s.pool
	if n := len(p.subset); n > 0 {
		b := p.subset[n-1]
		p.subset = p.subset[:n-1]
		return b
	}
	return nil
}

// arm starts h's periodic behaviour tick at a random phase, so hosts do not
// synchronise. One draw in [0, cycle·period) places it: its remainder is the
// first tick, and the round at the drawn instant, whose count mod cycle is the
// residue, is the first to run the part due once in cycle rounds.
func (s *System) arm(h *host, period, cycle simkernel.Time, tick func(uint64)) (t simkernel.Ticker, residue uint32) {
	at := simkernel.Time(s.rng.Int63n(int64(period * cycle)))
	return s.k.EveryArg(at%period, period, tick, uint64(h.addr)), uint32((s.k.Now() + at) / period % cycle)
}

// settle revokes a query's armed timeout, if any, frees its registry slot
// and drops the timer's reference (never the last: the caller runs for q).
func (s *System) settle(q *Query) {
	if q.awaitKind == awaitNone {
		return
	}
	q.pending.Cancel()
	s.releaseAwait(q)
	s.unref(q)
}

// releaseAwait clears q's continuation and timer handle and returns its
// registry slot.
func (s *System) releaseAwait(q *Query) {
	p := &s.pool
	p.awaiting[q.awaitSlot] = nil
	q.awaitKind = awaitNone
	q.pending = simkernel.TimerHandle{}
}

// trace stamps r with the current time and hands it to the tracer, if one
// is installed. Emission sites fill r with values they already hold: no
// text is formatted here (the trace buffer renders it when read).
func (s *System) trace(r trace.Record) {
	if s.tracer == nil {
		return
	}
	r.At = s.k.Now()
	s.tracer.Record(r)
}

// New builds and wires a Flower-CDN system. The D-ring starts converged
// with one directory peer per (website, locality), as in §6.1
// ("experiments start with a stable D-ring ... with an empty directory").
func New(cfg Config, deps Deps) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Sites) == 0 {
		cfg.Sites = model.MakeSites(cfg.Websites)
	}
	if deps.Kernel == nil || deps.Topo == nil || deps.Metrics == nil {
		return nil, fmt.Errorf("core: missing dependencies")
	}
	if deps.Topo.Localities() != cfg.Localities {
		return nil, fmt.Errorf("core: topology has %d localities, config %d", deps.Topo.Localities(), cfg.Localities)
	}
	ks, err := dring.NewKeySpec(DRingBits, cfg.Localities, cfg.InstanceBits)
	if err != nil {
		return nil, err
	}
	in := deps.Interner
	if in == nil {
		in = model.NewInterner(cfg.Sites, cfg.ObjectsPerSite)
	} else {
		if in.ObjectsPerSite() != cfg.ObjectsPerSite {
			return nil, fmt.Errorf("core: interner has %d objects per site, config %d",
				in.ObjectsPerSite(), cfg.ObjectsPerSite)
		}
		for si, site := range cfg.Sites {
			if in.SiteIndex(site) != si {
				return nil, fmt.Errorf("core: interner does not place site %q at index %d", site, si)
			}
		}
	}
	s := &System{
		cfg:       cfg,
		k:         deps.Kernel,
		net:       simnet.New(deps.Kernel, deps.Topo),
		topo:      deps.Topo,
		mets:      deps.Metrics,
		in:        in,
		ks:        ks,
		ring:      chord.NewRing(chord.Config{Bits: DRingBits, SuccessorList: 8}),
		hosts:     make([]*host, deps.Topo.NumNodes()),
		widBySite: make(map[model.SiteID]uint64),
		servers:   make(map[model.SiteID]simnet.NodeID),
		overlays:  make([]*overlay.Shared, len(cfg.Sites)*cfg.Localities),
		rng:       deps.Kernel.DeriveRNG("flower-core"),
		tracer:    deps.Tracer,

		standbyProbe: max(cfg.TKeepalive/64, simkernel.Second),
	}
	s.roundPeriod = min(cfg.TGossip, cfg.TKeepalive)
	s.roundsPerLong = max(cfg.TGossip, cfg.TKeepalive) / s.roundPeriod
	// The directory round ticks at its shortest part's period; each longer one
	// is rounded down to whole rounds (DESIGN.md "Periodic behaviours").
	s.dirEvery = [...]simkernel.Time{cfg.TGossip, 0, max(cfg.MaintenancePeriod, 0)}
	if cfg.StandbyFailover {
		s.dirEvery[1] = max(cfg.TKeepalive/8, simkernel.Second)
	}
	s.dirPeriod = cfg.TGossip
	for _, p := range s.dirEvery {
		s.dirPeriod = min(s.dirPeriod, cmp.Or(p, s.dirPeriod))
	}
	for i := range s.dirEvery {
		s.dirEvery[i] /= s.dirPeriod
		s.dirCycle = max(s.dirCycle, s.dirEvery[i])
	}
	s.net.SetSink(deps.Metrics)
	s.net.OnDrop(s.reclaim)
	s.pool.awaitFn = s.resumeAwait
	s.deadlineFn = func(a uint64) { s.timedOut(s.hosts[a], s.hosts[a].flags&hfAwait) }
	s.joinLatchFn = s.onJoinLatchExpired
	s.joinRetryFn = s.onJoinRetry
	s.probeTimeoutFn = func(a uint64) { s.requestPromotion(s.hosts[a]) }
	s.roundFn = func(a uint64) { s.round(s.hosts[a]) }
	s.dirRoundFn = func(a uint64) { s.dirRound(s.hosts[a]) }
	s.probeTickFn = func(a uint64) { s.standbyProbeTick(s.hosts[a]) }
	if cfg.Adaptive {
		s.adapt = make([]adaptiveSlot, deps.Topo.NumNodes())
	}

	s.assignWebsiteIDs()
	if err := s.placeServers(); err != nil {
		return nil, err
	}
	if err := s.placeDirectoriesAndPools(); err != nil {
		return nil, err
	}
	s.ring.BuildConverged()
	return s, nil
}

// assignWebsiteIDs hashes every site into the website-ID subspace,
// linearly probing past the rare collisions so each website owns a
// distinct consecutive block of directory keys (Validate made sure every
// website fits).
func (s *System) assignWebsiteIDs() {
	used := map[uint64]bool{}
	max := uint64(1)<<s.ks.WebsiteBits() - 1
	for _, site := range s.cfg.Sites {
		wid := s.ks.WebsiteID(site)
		for used[wid] {
			wid = (wid + 1) & max
		}
		used[wid] = true
		s.widBySite[site] = wid
	}
}

func (s *System) placeServers() error {
	uniform := s.topo.UniformNodes()
	if len(uniform) < s.cfg.Websites {
		return fmt.Errorf("core: %d uniform nodes cannot host %d origin servers", len(uniform), s.cfg.Websites)
	}
	for i, site := range s.cfg.Sites {
		addr := uniform[i]
		s.servers[site] = addr
		h := &host{sys: s, addr: addr, loc: int32(s.topo.LocalityOf(addr)), phase: phServer}
		s.hosts[addr] = h
		s.net.Register(addr, h)
	}
	return nil
}

func (s *System) placeDirectoriesAndPools() error {
	// Per-locality node cursors, skipping nodes already used as servers.
	cursors := make([][]simnet.NodeID, s.cfg.Localities)
	for loc := 0; loc < s.cfg.Localities; loc++ {
		for _, n := range s.topo.NodesInLocality(loc) {
			if s.hosts[n] == nil {
				cursors[loc] = append(cursors[loc], n)
			}
		}
	}
	next := func(loc int) (simnet.NodeID, error) {
		if len(cursors[loc]) == 0 {
			return 0, fmt.Errorf("core: locality %d exhausted; enlarge topology MinCount", loc)
		}
		n := cursors[loc][0]
		cursors[loc] = cursors[loc][1:]
		return n, nil
	}

	// One directory peer per (website, locality), in every locality.
	active := map[model.SiteID]bool{}
	for _, site := range s.cfg.ActiveSiteIDs() {
		active[site] = true
	}
	// With InstanceBits > 0 (§5.3 scale-up), several directory peers per
	// (website, locality) join D-ring consecutively, each managing its own
	// content overlay.
	for _, site := range s.cfg.Sites {
		wid := s.widBySite[site]
		for loc := 0; loc < s.cfg.Localities; loc++ {
			for inst := 0; inst < s.ks.Instances(); inst++ {
				addr, err := next(loc)
				if err != nil {
					return err
				}
				key := s.ks.KeyForWebsiteID(wid, loc, inst)
				node, err := s.ring.AddNode(key, addr)
				if err != nil {
					return fmt.Errorf("core: directory key collision for %s/%d: %w", site, loc, err)
				}
				h := &host{sys: s, addr: addr, loc: int32(loc)}
				if active[site] {
					// Active-site directories are accounted participants from t=0.
					h.flags |= hfAccounted
					s.mets.PeerJoined(s.k.Now())
				}
				s.hosts[addr] = h
				s.net.Register(addr, h)
				s.installDirectory(h, node, site, loc)
			}
		}
	}
	// Per-(active site, locality) client pools, each pool's hosts one slab
	// (a slice that never grows, so the pointers stay stable).
	actives := s.cfg.ActiveSiteIDs()
	s.pools = make([][][]simnet.NodeID, len(actives))
	for si := range actives {
		s.pools[si] = make([][]simnet.NodeID, s.cfg.Localities)
		for loc := 0; loc < s.cfg.Localities; loc++ {
			slab := make([]host, s.cfg.PoolSizes[si][loc])
			for m := range slab {
				addr, err := next(loc)
				if err != nil {
					return err
				}
				h := &slab[m]
				h.sys, h.addr, h.loc = s, addr, int32(loc)
				s.hosts[addr] = h
				s.net.Register(addr, h)
				s.pools[si][loc] = append(s.pools[si][loc], addr)
			}
		}
	}
	return nil
}

func (s *System) maintainNode(h *host) {
	node := h.role.node
	node.CheckPredecessor()
	node.Stabilize()
	for i := 0; i < 3; i++ {
		node.FixNextFinger()
	}
	if s.Hardened() && node.Successor() == nil {
		// Whole successor list dead (a partition took out a locality's
		// directories at once): run an immediate second repair round so the
		// ring re-converges within one maintenance period after the heal
		// instead of limping one repaired entry at a time.
		node.Stabilize()
	}
	// Nominal control traffic for the round (stabilize + notify + finger
	// lookups); not part of the paper's background metric.
	if succ := node.Successor(); succ != nil && succ != node {
		s.mets.RecordMessage(s.k.Now(), h.addr, succ.Addr(), simnet.CatMaintenance, 120)
	}
}

// recoveryProbe is a per-locality monotone-min stopwatch: since[loc] is the
// instant recovery is measured from (-1 = not armed), delay[loc] the smallest
// observed delay from it to a qualifying hit (-1 = none yet).
type recoveryProbe struct{ since, delay []simkernel.Time }

// arm (re)starts loc's stopwatch at the given instant; the first arm sizes
// the probe, every other locality unarmed.
func (p *recoveryProbe) arm(localities, loc int, at simkernel.Time) {
	for len(p.since) < localities {
		p.since = append(p.since, -1)
		p.delay = append(p.delay, -1)
	}
	p.since[loc], p.delay[loc] = at, -1
}

// note records a qualifying hit in loc at now.
func (p *recoveryProbe) note(loc int, now simkernel.Time) {
	if loc >= len(p.since) || p.since[loc] < 0 || now < p.since[loc] {
		return
	}
	if d := now - p.since[loc]; p.delay[loc] < 0 || d < p.delay[loc] {
		p.delay[loc] = d
	}
}

// EachRecovery visits the armed localities of the partition-heal probe, then
// those of the directory-crash probe, each in locality order: the instant
// measured from and the delay to the first qualifying hit (-1 = not observed).
func (s *System) EachRecovery(visit func(loc int, since, delay simkernel.Time)) {
	for _, p := range [...]*recoveryProbe{&s.healProbe, &s.crashProbe} {
		for loc, since := range p.since {
			if since >= 0 {
				visit(loc, since, p.delay[loc])
			}
		}
	}
}

// InstallFaults enables the fault-injection plane on the system's network
// and, when the schedule contains partition windows, arms the per-locality
// partition-recovery probe. Call before Run; a nil or zero config is a
// no-op.
func (s *System) InstallFaults(fc *simnet.FaultConfig) {
	s.net.InstallFaults(fc)
	if !fc.Enabled() || len(fc.Partitions) == 0 {
		return
	}
	for loc := 0; loc < s.cfg.Localities; loc++ {
		s.healProbe.arm(s.cfg.Localities, loc, fc.HealTime(loc))
	}
}

// CrashDirectory crashes the current directory of (site, loc) and arms the
// crash-recovery probe for the locality. Returns false when the position is
// already empty.
func (s *System) CrashDirectory(site model.SiteID, loc int) bool {
	if _, ok := s.DirectoryAddr(site, loc); ok {
		s.crashProbe.arm(s.cfg.Localities, loc, s.k.Now())
	}
	return s.FailDirectory(site, loc)
}

// --- Accessors ------------------------------------------------------------

// Kernel returns the driving event kernel.
func (s *System) Kernel() *simkernel.Kernel { return s.k }

// Network returns the simulated network.
func (s *System) Network() *simnet.Network { return s.net }

// Ring returns the D-ring Chord instance.
func (s *System) Ring() *chord.Ring { return s.ring }

// KeySpec returns the D-ring key layout.
func (s *System) KeySpec() dring.KeySpec { return s.ks }

// Config returns the system configuration (value copy).
func (s *System) Config() Config { return s.cfg }

// Hardened reports whether the degraded-network behaviours are on (backed-off
// retries, delivery guards, dir-join retry, extra stabilization): with an
// installed fault plane or Config.Adaptive, when messages can be lost or late.
func (s *System) Hardened() bool { return s.net.Faults() != nil || s.adapt != nil }

// Stats returns the protocol counters.
func (s *System) Stats() Stats { return s.stats }

// ServerOf returns the origin server node of a site.
func (s *System) ServerOf(site model.SiteID) simnet.NodeID { return s.servers[site] }

// PoolNode maps a workload (siteIdx, locality, member) triple to its node.
func (s *System) PoolNode(siteIdx, loc, member int) simnet.NodeID {
	return s.pools[siteIdx][loc][member]
}

// PoolSize returns the number of potential clients for (siteIdx, loc).
func (s *System) PoolSize(siteIdx, loc int) int { return len(s.pools[siteIdx][loc]) }

// DirectoryAddr returns the current address of d(site,loc), or false if the
// position is empty/dead.
func (s *System) DirectoryAddr(site model.SiteID, loc int) (simnet.NodeID, bool) {
	key := s.ks.KeyForWebsiteID(s.widBySite[site], loc, 0)
	n := s.ring.Lookup(key)
	if n == nil || !n.Up() {
		return 0, false
	}
	return n.Addr(), true
}

// DirectoryIndexSize returns the number of content peers indexed by
// d(site,loc); 0 if the directory is missing.
func (s *System) DirectoryIndexSize(site model.SiteID, loc int) int {
	if addr, ok := s.DirectoryAddr(site, loc); ok && s.hosts[addr].dir != nil {
		return s.hosts[addr].dir.Size()
	}
	return 0
}

// OverlaySize counts live joined content peers of (siteIdx, loc).
func (s *System) OverlaySize(siteIdx, loc int) int {
	n := 0
	for _, addr := range s.pools[siteIdx][loc] {
		h := s.hosts[addr]
		if h != nil && h.cp != nil && s.net.Alive(addr) {
			n++
		}
	}
	return n
}

// Joined reports whether the node has become a content peer.
func (s *System) Joined(addr simnet.NodeID) bool {
	h := s.hosts[addr]
	return h != nil && h.cp != nil
}

// JoinedCount counts content peers across all overlays.
func (s *System) JoinedCount() int {
	n := 0
	for si := range s.pools {
		for loc := range s.pools[si] {
			n += s.OverlaySize(si, loc)
		}
	}
	return n
}

// host exposes internals to white-box tests within the package.
func (s *System) host(addr simnet.NodeID) *host { return s.hosts[addr] }

// Submit injects one workload query into the system at the current
// simulated time. Queries from dead clients are silently skipped.
func (s *System) Submit(wq workload.Query) {
	origin := s.PoolNode(wq.SiteIdx, wq.Locality, wq.Member)
	h := s.hosts[origin]
	if h == nil || !s.net.Alive(origin) {
		return
	}
	if wq.Object.Num < 0 || wq.Object.Num >= s.cfg.ObjectsPerSite {
		return // outside the fixed object universe: nothing can hold it
	}
	s.qid++
	// The workload's active-site index is the interner's site index (the
	// active sites lead cfg.Sites), so interning is pure arithmetic; it is
	// recomputed here rather than trusted from the stream so replayed or
	// hand-built queries can never smuggle a stale ref.
	q := s.newQuery()
	defer s.unref(q)
	q.ID = s.qid
	q.Origin = origin
	q.OriginLoc = h.overlayLocality()
	q.Site = wq.Site
	q.Ref = s.in.RefFor(wq.SiteIdx, wq.Object.Num)
	q.Start = s.k.Now()
	q.NewClient = h.cp == nil
	r := trace.Record{Kind: trace.QuerySubmitted, Query: q.ID, Node: origin, Peer: -1, Str: s.in.Key(q.Ref)}
	if h.cp != nil {
		r.Variant = trace.Member
		s.trace(r)
		s.startContentPeerQuery(h, q)
	} else {
		s.trace(r)
		s.startNewClientQuery(h, q)
	}
}
