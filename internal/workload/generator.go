package workload

import (
	"fmt"
	"math"
	"math/rand"

	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
)

// Config parameterises the query generator.
type Config struct {
	Seed           int64
	Sites          []model.SiteID // the active websites queries are restricted to (§6.1: 6 of 100)
	ObjectsPerSite int            // nb-ob
	ZipfAlpha      float64        // object-popularity skew (Breslau et al. report 0.64–0.83)
	QueryRate      float64        // aggregate queries per second (paper: 6), at a fixed cadence
	// PoolSizes[siteIdx][loc] is the number of potential clients of that
	// website in that locality. Originator localities are implicitly
	// weighted by pool size, reproducing the non-uniform locality
	// population of §6.1.
	PoolSizes [][]int
	// Interner, when set, lets the generator stamp each query with the
	// interned ObjectRef (Sites must be a prefix of the interner's site
	// list, which holds for the harness wiring: active sites lead the full
	// site list). When nil, Ref is model.NoRef and consumers intern.
	Interner *model.Interner
}

// Query is one generated request: the member'th pool client of Site in
// Locality asks for Object at time At. The harness maps (site, locality,
// member) to a concrete simulated node. Ref is the interned form of
// Object (model.NoRef when the generator had no interner) for stream
// consumers and tooling; the simulated systems deliberately re-intern
// from (SiteIdx, Object.Num) — two integer ops — so hand-built or
// replayed queries can never smuggle a ref from a different object
// universe.
type Query struct {
	At       simkernel.Time
	Site     model.SiteID
	SiteIdx  int
	Locality int
	Member   int
	Object   model.ObjectID
	Ref      model.ObjectRef
}

// Generator produces the deterministic query stream.
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	zipf    *Zipf
	objPerm [][]int // per-site permutation: popularity rank → object number
	pools   [][]int
	// locality choice per site: cumulative pool sizes
	cumPool [][]int
	nextAt  float64 // ms
	count   uint64
}

// New validates the configuration and builds a generator.
func New(cfg Config) (*Generator, error) {
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("workload: no active sites")
	}
	if cfg.ObjectsPerSite <= 0 {
		return nil, fmt.Errorf("workload: objects per site must be positive")
	}
	// Negated so that NaN fails it too.
	if !(cfg.QueryRate > 0) || math.IsInf(cfg.QueryRate, 1) {
		return nil, fmt.Errorf("workload: query rate %v is not a positive finite number", cfg.QueryRate)
	}
	if len(cfg.PoolSizes) != len(cfg.Sites) {
		return nil, fmt.Errorf("workload: %d pool rows for %d sites", len(cfg.PoolSizes), len(cfg.Sites))
	}
	z, err := NewZipf(cfg.ObjectsPerSite, cfg.ZipfAlpha)
	if err != nil {
		return nil, err
	}
	if cfg.Interner != nil {
		if cfg.Interner.ObjectsPerSite() != cfg.ObjectsPerSite {
			return nil, fmt.Errorf("workload: interner has %d objects per site, config %d",
				cfg.Interner.ObjectsPerSite(), cfg.ObjectsPerSite)
		}
		for si, site := range cfg.Sites {
			if cfg.Interner.SiteIndex(site) != si {
				return nil, fmt.Errorf("workload: site %q is not at interner index %d", site, si)
			}
		}
	}
	g := &Generator{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		zipf: z,
	}
	for si := range cfg.Sites {
		perm := g.rng.Perm(cfg.ObjectsPerSite)
		g.objPerm = append(g.objPerm, perm)
		pools := cfg.PoolSizes[si]
		total := 0
		cum := make([]int, len(pools))
		for li, p := range pools {
			if p < 0 {
				return nil, fmt.Errorf("workload: negative pool size for site %d locality %d", si, li)
			}
			total += p
			cum[li] = total
		}
		if total == 0 {
			return nil, fmt.Errorf("workload: site %d has no clients", si)
		}
		g.pools = append(g.pools, pools)
		g.cumPool = append(g.cumPool, cum)
	}
	return g, nil
}

// Zipf exposes the underlying popularity distribution.
func (g *Generator) Zipf() *Zipf { return g.zipf }

// Count reports how many queries have been generated.
func (g *Generator) Count() uint64 { return g.count }

// Next returns the next query in the stream. The stream is unbounded; the
// caller stops pulling when the simulation horizon is reached.
func (g *Generator) Next() Query {
	g.nextAt += 1000 / g.cfg.QueryRate
	// Site: uniform among actives (§6.1: rate "distributed between the 6
	// active websites").
	si := g.rng.Intn(len(g.cfg.Sites))
	// Locality ∝ pool size, member uniform inside the pool: equivalent to
	// picking a potential client of the website uniformly.
	cum := g.cumPool[si]
	total := cum[len(cum)-1]
	x := g.rng.Intn(total)
	loc := 0
	for cum[loc] <= x {
		loc++
	}
	member := x
	if loc > 0 {
		member = x - cum[loc-1]
	}
	// Object via per-site popularity permutation.
	rank := g.zipf.Sample(g.rng)
	obj := g.objPerm[si][rank]
	g.count++
	ref := model.NoRef
	if g.cfg.Interner != nil {
		ref = g.cfg.Interner.RefFor(si, obj)
	}
	return Query{
		At:       simkernel.Time(g.nextAt),
		Site:     g.cfg.Sites[si],
		SiteIdx:  si,
		Locality: loc,
		Member:   member,
		Object:   model.ObjectID{Site: g.cfg.Sites[si], Num: obj},
		Ref:      ref,
	}
}
