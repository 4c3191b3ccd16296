// Package squirrel implements the baseline the paper compares against
// (§6.1, §7): Squirrel (Iyer, Rowstron, Druschel, PODC 2002), a
// decentralized P2P web cache in which ALL participants form one
// structured overlay based on a traditional DHT — Chord here, as in the
// paper's evaluation — with no locality or interest awareness.
//
// The default strategy is the one the paper compares against: the
// *directory* strategy, where the peer whose ID is closest to hash(URL)
// (the object's "home node") keeps a small directory of pointers to recent
// downloaders and redirects queries to one of them. The *home-store*
// strategy (objects cached at the home node itself) is provided as an
// ablation (§7 describes both).
//
// Every query — including repeat queries from long-time participants —
// routes through the DHT, which is exactly the behaviour Flower-CDN's
// locality-aware design eliminates (§6.5).
package squirrel

import (
	"fmt"
	"math/rand"

	"flowercdn/internal/bitset"
	"flowercdn/internal/chord"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

// Strategy selects the Squirrel variant.
type Strategy uint8

const (
	// StrategyDirectory: home nodes keep pointers to recent downloaders
	// (the variant the paper compares against, §6.1).
	StrategyDirectory Strategy = iota
	// StrategyHomeStore: home nodes store the objects themselves.
	StrategyHomeStore
)

// String names the strategy.
func (st Strategy) String() string {
	if st == StrategyHomeStore {
		return "home-store"
	}
	return "directory"
}

// Config parameterises a Squirrel run.
type Config struct {
	Sites            []model.SiteID // queried websites
	ObjectsPerSite   int            // nb-ob: sizes the interned object space
	PoolSizes        [][]int        // [siteIdx][locality] client pools (mirrors Flower-CDN's)
	ExtraPerLocality int            // passive DHT members (Flower's directory-peer budget)
	Strategy         Strategy
}

// Fixed by the comparison setup: the DHT identifier width and the number of
// delegates tried per query, both as in Flower-CDN, and the size of a home
// directory (recent downloaders kept per object). Like there, the
// transferred object's size is not modelled.
const (
	ringBits      = 30
	retryLimit    = 3
	maxDirEntries = 4
)

// DefaultConfig mirrors the Flower-CDN comparison setup.
func DefaultConfig() Config {
	return Config{
		Strategy:         StrategyDirectory,
		ExtraPerLocality: 100,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if len(c.Sites) == 0 {
		return fmt.Errorf("squirrel: no sites")
	}
	if len(c.PoolSizes) != len(c.Sites) {
		return fmt.Errorf("squirrel: %d pool rows for %d sites", len(c.PoolSizes), len(c.Sites))
	}
	if c.ObjectsPerSite <= 0 {
		return fmt.Errorf("squirrel: objects per site must be positive")
	}
	return nil
}

const (
	bytesQueryCtl = 48
	bytesServeHdr = 40
)

// host is one Squirrel participant (or origin server).
type host struct {
	sys  *System
	addr simnet.NodeID
	node *chord.Node

	cache bitset.Set // stored objects over the interned ref space
	// home directory: object ref → recent downloaders, most recent last.
	dir map[model.ObjectRef][]simnet.NodeID

	server bool // an origin server: never fails
}

// query mirrors core.Query for the baseline.
type query struct {
	id       uint64
	origin   simnet.NodeID
	site     model.SiteID
	ref      model.ObjectRef
	start    simkernel.Time
	token    uint64
	recorded bool
	finished bool
	tried    map[simnet.NodeID]bool
	home     simnet.NodeID
}

func (q *query) settle() { q.token++ }

type routedMsg struct {
	Key chord.ID
	TTL int
	Q   *query
}

type redirectMsg struct {
	Q        *query
	FromHome simnet.NodeID
}

type redirectAckMsg struct{ Q *query }

type redirectFailMsg struct {
	Q    *query
	From simnet.NodeID
}

type fetchMsg struct{ Q *query }

type serveMsg struct {
	Q        *query
	Provider simnet.NodeID
	FromPeer bool
}

// updateMsg registers the requester as a fresh downloader at the home node.
type updateMsg struct {
	Ref  model.ObjectRef
	From simnet.NodeID
}

// homeFetchMsg / homeServeMsg implement the home-store miss path: the home
// node fetches from the origin server, stores, and serves the client.
type homeFetchMsg struct{ Q *query }

type homeServeMsg struct{ Q *query }

// System is one running Squirrel network.
type System struct {
	cfg  Config
	k    *simkernel.Kernel
	net  *simnet.Network
	topo *topology.Topology
	mets *metrics.Collector

	ring    *chord.Ring
	hosts   []*host
	servers map[model.SiteID]simnet.NodeID
	pools   [][][]simnet.NodeID

	// in interns the queried object universe; homeKeys precomputes each
	// ref's DHT key (hash of the canonical URL) so routing a query does no
	// string hashing. Both are built once at construction.
	in       *model.Interner
	homeKeys []chord.ID

	rng *rand.Rand
	qid uint64
}

// New builds a Squirrel network: every pool client plus the passive
// members join one converged Chord ring.
func New(cfg Config, kernel *simkernel.Kernel, topo *topology.Topology, mets *metrics.Collector) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:     cfg,
		k:       kernel,
		net:     simnet.New(kernel, topo),
		topo:    topo,
		mets:    mets,
		ring:    chord.NewRing(chord.Config{Bits: ringBits, SuccessorList: 8}),
		hosts:   make([]*host, topo.NumNodes()),
		servers: make(map[model.SiteID]simnet.NodeID),
		in:      model.NewInterner(cfg.Sites, cfg.ObjectsPerSite),
		rng:     kernel.DeriveRNG("squirrel"),
	}
	s.homeKeys = make([]chord.ID, s.in.Count())
	for r := range s.homeKeys {
		s.homeKeys[r] = s.ring.Space().HashString(s.in.Key(model.ObjectRef(r)))
	}
	s.net.SetSink(mets)

	uniform := topo.UniformNodes()
	if len(uniform) < len(cfg.Sites) {
		return nil, fmt.Errorf("squirrel: not enough uniform nodes for servers")
	}
	for i, site := range cfg.Sites {
		addr := uniform[i]
		h := &host{sys: s, addr: addr, server: true}
		s.hosts[addr] = h
		s.servers[site] = addr
		s.net.Register(addr, h)
	}

	cursors := make([][]simnet.NodeID, topo.Localities())
	for loc := range cursors {
		for _, n := range topo.NodesInLocality(loc) {
			if s.hosts[n] == nil {
				cursors[loc] = append(cursors[loc], n)
			}
		}
	}
	next := func(loc int) (simnet.NodeID, error) {
		if len(cursors[loc]) == 0 {
			return 0, fmt.Errorf("squirrel: locality %d exhausted", loc)
		}
		n := cursors[loc][0]
		cursors[loc] = cursors[loc][1:]
		return n, nil
	}
	addPeer := func(addr simnet.NodeID) error {
		node, err := s.ring.AddNode(s.ring.HashAddr(addr), addr)
		if err != nil {
			return err
		}
		h := &host{
			sys: s, addr: addr, node: node,
			cache: bitset.New(s.in.Count()),
			dir:   make(map[model.ObjectRef][]simnet.NodeID),
		}
		s.hosts[addr] = h
		s.net.Register(addr, h)
		s.mets.PeerJoined(kernel.Now())
		return nil
	}

	// Passive members first (Flower-CDN's directory-peer budget).
	for loc := 0; loc < topo.Localities(); loc++ {
		for i := 0; i < cfg.ExtraPerLocality; i++ {
			addr, err := next(loc)
			if err != nil {
				return nil, err
			}
			if err := addPeer(addr); err != nil {
				return nil, err
			}
		}
	}
	// Client pools, mirroring the Flower-CDN workload mapping.
	s.pools = make([][][]simnet.NodeID, len(cfg.Sites))
	for si := range cfg.Sites {
		s.pools[si] = make([][]simnet.NodeID, topo.Localities())
		for loc := 0; loc < topo.Localities(); loc++ {
			for m := 0; m < cfg.PoolSizes[si][loc]; m++ {
				addr, err := next(loc)
				if err != nil {
					return nil, err
				}
				if err := addPeer(addr); err != nil {
					return nil, err
				}
				s.pools[si][loc] = append(s.pools[si][loc], addr)
			}
		}
	}
	s.ring.BuildConverged()
	return s, nil
}

// Ring exposes the Chord overlay.
func (s *System) Ring() *chord.Ring { return s.ring }

// Network exposes the simulated network.
func (s *System) Network() *simnet.Network { return s.net }

// PoolNode maps a workload triple to its node.
func (s *System) PoolNode(siteIdx, loc, member int) simnet.NodeID {
	return s.pools[siteIdx][loc][member]
}

// Interner exposes the interned object space (tests intern probes with it).
func (s *System) Interner() *model.Interner { return s.in }

// HomeOf returns the home node responsible for an object.
func (s *System) HomeOf(ref model.ObjectRef) simnet.NodeID {
	n := s.ring.SuccessorOfKey(s.homeKeys[ref])
	return n.Addr()
}

// FailPeer crashes a participant.
func (s *System) FailPeer(addr simnet.NodeID) {
	h := s.hosts[addr]
	if h == nil || h.server {
		return
	}
	s.net.Fail(addr)
	if h.node != nil {
		s.ring.Fail(h.node)
	}
	s.mets.PeerLeft(s.k.Now())
}

// Submit injects one workload query at the current simulated time.
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
	// As in core.Submit, the ref is recomputed arithmetically: the
	// workload's site index is the interner's site index here (the
	// interner is built over exactly the queried sites).
	ref := s.in.RefFor(wq.SiteIdx, wq.Object.Num)
	q := &query{
		id:     s.qid,
		origin: origin,
		site:   wq.Site,
		ref:    ref,
		start:  s.k.Now(),
		tried:  make(map[simnet.NodeID]bool),
	}
	if h.cache.Has(int(q.ref)) {
		s.mets.RecordQuery(s.k.Now(), metrics.SourceLocal, 0, 0)
		return
	}
	// Every non-local query navigates the DHT, starting at the client.
	key := s.homeKeys[q.ref]
	s.routeStep(h, routedMsg{Key: key, TTL: 4*ringBits + 16, Q: q})
	s.await(q, 10*simkernel.Second, func() {
		// Lost in a broken ring (churn): fall back to the origin server.
		s.net.Send(q.origin, s.servers[q.site], simnet.CatQuery, bytesQueryCtl, fetchMsg{Q: q})
	})
}

func (s *System) await(q *query, d simkernel.Time, onTimeout func()) {
	q.token++
	tok := q.token
	s.k.After(d, func() {
		if q.token == tok && !q.finished {
			onTimeout()
		}
	})
}

func (s *System) timeout(a, b simnet.NodeID) simkernel.Time {
	return 2*s.net.Latency(a, b) + 50*simkernel.Millisecond
}
