// Package core assembles the complete Flower-CDN system (the paper's
// primary contribution): the D-ring directory overlay (internal/dring),
// the gossip-managed content overlays (internal/overlay), the query
// processing paths of §3.4/§4.1, and the dynamicity handling of §5
// (redirection failures, directory failure and replacement, voluntary
// directory leaves, locality changes).
//
// The package owns all wire messages and the per-node message dispatcher;
// the protocol state machines live in internal/dring and internal/overlay
// so they stay unit-testable in isolation.
package core

import (
	"fmt"

	"flowercdn/internal/dring"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
)

// QueryPolicy selects how a content peer resolves a query for an object it
// does not hold (§4.1; see DESIGN.md "Query policy interpretation").
type QueryPolicy uint8

const (
	// PolicyViewOnly searches the summaries of the peer's partial view and
	// falls back to the origin server — the paper's behaviour (Table 2c's
	// hit-ratio sensitivity to V_gossip only arises under this policy).
	PolicyViewOnly QueryPolicy = iota
	// PolicyViewThenDirectory additionally consults the directory peer
	// (complete overlay view) before giving up — an ablation.
	PolicyViewThenDirectory
)

// String names the policy.
func (p QueryPolicy) String() string {
	if p == PolicyViewThenDirectory {
		return "view-then-directory"
	}
	return "view-only"
}

// Config collects every Flower-CDN parameter (Table 1 plus protocol
// details the paper fixes in prose).
type Config struct {
	Localities     int            // k
	Websites       int            // |W|
	ActiveSites    int            // websites receiving queries (6 in §6.1)
	ObjectsPerSite int            // nb-ob
	MaxOverlaySize int            // S_co
	PoolSizes      [][]int        // [activeSiteIdx][locality] potential clients
	Sites          []model.SiteID // all |W| sites; first ActiveSites are the active ones

	InstanceBits uint // b, §5.3 scale-up (0 = basic scheme)

	Gossip     overlay.Config // V_gossip, L_gossip, push threshold, summary sizing
	TGossip    simkernel.Time // gossip period
	TKeepalive simkernel.Time // keepalive period (defaults to TGossip; see Validate)

	QueryPolicy       QueryPolicy
	MaintenancePeriod simkernel.Time // chord stabilization period (0 = off; enabled under churn)

	// Adaptive arms the gray-failure response: per-host EWMA RTT +
	// variance estimators feed adaptive lookup/keepalive/probe deadlines
	// in place of the fixed forms, D-ring lookups hedge a second entry
	// point when the adaptive tail deadline passes, and holders that
	// repeatedly time out are demoted by a circuit breaker (adaptive.go).
	// It makes the system Hardened. Off by default, pinned by
	// TestAdaptiveDisabledIdentical and the golden fault sections.
	Adaptive bool

	// StandbyFailover arms the warm-standby directory extension: every
	// directory designates the §5.2-ranked best content peer of its overlay
	// as a standby, keeps the standby's replica index fresh with
	// dirty-shard deltas (dring delta seam), and on directory silence the
	// standby promotes with its replica instead of a fresh peer rebuilding
	// an empty index; and it sheds to the origin the queries beyond
	// takeoverShedSlots queued behind a down position. Off by default: the
	// disabled path costs one flag check and the clean-network goldens stay
	// byte-identical.
	StandbyFailover bool
}

// Protocol constants: values the paper fixes in prose and no scenario varies.
const (
	DRingBits           = 30  // m, the D-ring identifier width
	deadAge             = 4   // T_dead: age in periods past which a view or index entry is dead
	dirSummaryThreshold = 0.1 // §4.2.1 delayed summary propagation
	retryLimit          = 3   // candidate peers tried per query before fallback
	standbySyncShards   = 16  // dirty shards shipped per standby anti-entropy round
	takeoverShedSlots   = 2   // queries per locality queued behind a down directory (StandbyFailover)
)

// DefaultConfig returns the paper's simulation parameters (Table 1 with
// the §6.2 chosen gossip operating point).
func DefaultConfig() Config {
	g := overlay.DefaultConfig()
	return Config{
		Localities:     6,
		Websites:       100,
		ActiveSites:    6,
		ObjectsPerSite: 500,
		MaxOverlaySize: 100,
		InstanceBits:   0,
		Gossip:         g,
		TGossip:        30 * simkernel.Minute,
		TKeepalive:     0, // = TGossip
		QueryPolicy:    PolicyViewOnly,
	}
}

// Validate checks internal consistency and fills derived defaults.
func (c *Config) Validate() error {
	if c.Localities <= 0 || c.Websites <= 0 || c.ActiveSites <= 0 {
		return fmt.Errorf("core: localities, websites and active sites must be positive")
	}
	if c.ActiveSites > c.Websites {
		return fmt.Errorf("core: %d active sites exceed %d websites", c.ActiveSites, c.Websites)
	}
	// The D-ring key holds the locality, the instance and an ID for every website.
	ks, err := dring.NewKeySpec(DRingBits, c.Localities, c.InstanceBits)
	if err != nil {
		return err
	}
	if uint64(c.Websites) > 1<<ks.WebsiteBits()-1 {
		return fmt.Errorf("core: %d websites exceed the %d-bit website-ID space", c.Websites, ks.WebsiteBits())
	}
	if c.ObjectsPerSite <= 0 {
		return fmt.Errorf("core: objects per site must be positive")
	}
	if c.MaxOverlaySize <= 0 {
		return fmt.Errorf("core: max overlay size must be positive")
	}
	if c.TGossip <= 0 {
		return fmt.Errorf("core: gossip period must be positive")
	}
	if c.TKeepalive < 0 {
		return fmt.Errorf("core: negative keepalive period (0 = default)")
	}
	if c.TKeepalive == 0 {
		c.TKeepalive = c.TGossip
	}
	// One round runs both periods (overlaywire.go): the longer must be a whole
	// multiple of the shorter, and the shorter no less than maxExchangeTimeout,
	// so that what a round awaits is answered or timed out before the next.
	short, long := min(c.TGossip, c.TKeepalive), max(c.TGossip, c.TKeepalive)
	if long%short != 0 {
		return fmt.Errorf("core: gossip period %s and keepalive period %s do not nest", c.TGossip, c.TKeepalive)
	}
	if short < maxExchangeTimeout {
		return fmt.Errorf("core: period %s is shorter than the %s failure-detection timeout", short, maxExchangeTimeout)
	}
	if len(c.Sites) != 0 && len(c.Sites) != c.Websites { // none: New names them
		return fmt.Errorf("core: %d site names for %d websites", len(c.Sites), c.Websites)
	}
	if c.Gossip.SummaryCapacity == 0 {
		c.Gossip.SummaryCapacity = c.ObjectsPerSite
	}
	if c.Gossip.ViewSize <= 0 || c.Gossip.GossipLen <= 0 {
		return fmt.Errorf("core: gossip view size and length must be positive")
	}
	if len(c.PoolSizes) == 0 {
		return fmt.Errorf("core: pool sizes not set (use flowercdn.Params.BuildPools)")
	}
	if len(c.PoolSizes) != c.ActiveSites {
		return fmt.Errorf("core: %d pool rows for %d active sites", len(c.PoolSizes), c.ActiveSites)
	}
	for i, row := range c.PoolSizes {
		if len(row) != c.Localities {
			return fmt.Errorf("core: pool row %d has %d localities, want %d", i, len(row), c.Localities)
		}
		for _, p := range row {
			// Pools may exceed S_co: clients beyond capacity are served but
			// never admitted (§6.1: "no new clients may join the overlay").
			if p < 0 {
				return fmt.Errorf("core: negative pool size %d", p)
			}
		}
	}
	return nil
}

// ActiveSiteIDs returns the sites that receive queries.
func (c *Config) ActiveSiteIDs() []model.SiteID { return c.Sites[:c.ActiveSites] }

// Deps bundles the externally constructed substrates a System runs on.
type Deps struct {
	Kernel  *simkernel.Kernel
	Topo    *topology.Topology
	Metrics *metrics.Collector
	// Tracer receives structured protocol events when non-nil (see
	// internal/trace); nil disables tracing at zero cost.
	Tracer trace.Tracer
	// Interner is the shared dense object space. Optional: when nil the
	// system builds its own over cfg.Sites × cfg.ObjectsPerSite. Supply it
	// to share one instance (and its precomputed hash tables) with the
	// workload generator and across campaign points.
	Interner *model.Interner
}
