package core

import (
	"math/rand"
	"testing"

	"flowercdn/internal/metrics"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/trace"
)

// shapeCounter is a tracer counting records by (kind, variant).
type shapeCounter map[[2]uint8]int

func (c shapeCounter) Record(r trace.Record) { c[[2]uint8{uint8(r.Kind), uint8(r.Variant)}]++ }

// tracedScenario runs a seeded workload of queries from every pool for two
// simulated hours with shapes installed as the tracer; script arms the
// scenario's own events on the kernel first.
func tracedScenario(t *testing.T, shapes shapeCounter, seed int64, mod func(*Config), script func(*testEnv)) {
	t.Helper()
	e := newTestEnv(t, seed, mod)
	e.sys.tracer = shapes
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 600; i++ {
		// Skewed objects, so overlays fill and views find holders.
		e.submitAt(simkernel.Time(i+1)*10*simkernel.Second, rng.Intn(2), rng.Intn(3), rng.Intn(5), rng.Intn(rng.Intn(30)+1))
	}
	script(e)
	e.k.Run(2 * simkernel.Hour)
}

// TestEveryTraceShapeEmitted: one traced run per scenario — a directory
// crash storm with standbys, active replication, a voluntary directory
// leave and churn — together emit every trace kind and every text variant,
// so no emission site goes unexercised. Served's variants are the sources
// a traced serve can have (a local hit is answered without one).
func TestEveryTraceShapeEmitted(t *testing.T) {
	shapes := shapeCounter{}
	crashAll := func(e *testEnv, at simkernel.Time) {
		e.k.At(at, func() {
			for _, site := range e.cfg.Sites {
				for loc := 0; loc < e.cfg.Localities; loc++ {
					e.sys.FailDirectory(site, loc)
				}
			}
		})
	}
	tracedScenario(t, shapes, 41, func(c *Config) {
		c.StandbyFailover = true
		c.MaintenancePeriod = 30 * simkernel.Second
		c.QueryPolicy = PolicyViewThenDirectory
	}, func(e *testEnv) { crashAll(e, 40*simkernel.Minute) })
	tracedScenario(t, shapes, 42, func(c *Config) {
		c.ReplicationTopK = 3
	}, func(*testEnv) {})
	tracedScenario(t, shapes, 43, nil, func(e *testEnv) {
		e.k.At(30*simkernel.Minute, func() {
			for _, site := range e.cfg.Sites {
				e.sys.DirectoryLeave(site, 1)
			}
		})
	})
	// Churn: directories crash before their overlays exist (founders) and
	// once they do (§5.2 takeovers); members crash and come back blank, so
	// directories redirect to dead holders and views to emptied contacts.
	tracedScenario(t, shapes, 44, func(c *Config) { c.QueryPolicy = PolicyViewThenDirectory }, func(e *testEnv) {
		e.k.At(simkernel.Minute, func() {
			for _, site := range e.cfg.Sites {
				e.sys.FailDirectory(site, 0)
			}
		})
		crashAll(e, 50*simkernel.Minute)
		rng := rand.New(rand.NewSource(44))
		for at := 10 * simkernel.Minute; at < 90*simkernel.Minute; at += simkernel.Minute {
			e.k.At(at, func() {
				addr := e.sys.PoolNode(rng.Intn(2), rng.Intn(3), rng.Intn(5))
				if e.sys.Joined(addr) {
					e.sys.FailPeer(addr)
					e.k.After(5*simkernel.Minute, func() { e.sys.RevivePeer(addr) })
				}
			})
		}
	})

	variants := map[trace.Kind][]trace.Variant{
		trace.QuerySubmitted: {0, trace.Member},
		trace.ServerFetch:    {0, trace.ViewExhausted},
		trace.Joined:         {0, trace.Founding},
		trace.DirReplaced:    {0, trace.StandbyPromoted},
		trace.Served: {trace.Variant(metrics.SourcePeer), trace.Variant(metrics.SourceRemoteOverlay),
			trace.Variant(metrics.SourceServer)},
	}
	for k := trace.Kind(0); k <= trace.Prefetch; k++ {
		vs, ok := variants[k]
		if !ok {
			vs = []trace.Variant{0}
		}
		for _, v := range vs {
			r := trace.Record{Kind: k, Variant: v}
			if shapes[[2]uint8{uint8(k), uint8(v)}] == 0 {
				t.Errorf("no scenario emitted %s variant %d (%q)", k, v, r.Detail())
			}
		}
	}
	if t.Failed() {
		t.Logf("emitted: %v", shapes)
	}
}
