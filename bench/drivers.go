package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"flowercdn"
	"flowercdn/internal/bloom"
	"flowercdn/internal/chord"
	"flowercdn/internal/core"
	"flowercdn/internal/dring"
	"flowercdn/internal/gossip"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
	querygen "flowercdn/internal/workload"
)

// The layer drivers time calls into one internal package's exported API
// from outside, with no workload in the way: a change to a layer shows
// here first, and the workloads' cpu_share says how much of it can reach
// wall_s. They are workload-independent and deterministic in what they
// execute; only their timings vary.

// opCost is a driver's result: host nanoseconds and heap allocations per
// operation.
type opCost struct{ ns, allocs float64 }

// timeOp grows the batch until one batch lasts a third of minDur, then
// times three such batches (minDur of calls in all) and reports the median
// one, so a batch that a stray GC cycle or a scheduling hiccup landed in
// does not become the result. Each batch starts from a collected heap.
// batch performs about n operations and returns how many it did (drivers
// that pop simulated events cannot hit n exactly).
func timeOp(minDur time.Duration, batch func(n int) int) opCost {
	batch(1) // first-call growth of scratch buffers is not steady state
	one := func(n int) (opCost, time.Duration) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		done := batch(n)
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		ops := float64(max(done, 1))
		return opCost{
			ns:     float64(d.Nanoseconds()) / ops,
			allocs: float64(after.Mallocs-before.Mallocs) / ops,
		}, d
	}
	const batches = 3
	n := 1
	for {
		cost, d := one(n)
		if d >= minDur/batches || n >= 1<<30 {
			costs := []opCost{cost}
			for len(costs) < batches {
				c, _ := one(n)
				costs = append(costs, c)
			}
			sort.Slice(costs, func(i, j int) bool { return costs[i].ns < costs[j].ns })
			return costs[batches/2]
		}
		// Aim a fifth past the target, growing at most 100× per step.
		grow := 1.2 * float64(minDur/batches) / float64(max(d, time.Microsecond))
		n = int(float64(n) * min(max(grow, 2), 100))
	}
}

// sink defeats dead-code elimination of driver results.
var sink uint64

func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("bench driver set-up: %v", err))
	}
	return v
}

// runDrivers executes every layer driver and returns the metrics by name.
func runDrivers(minDur time.Duration, spans *spanLog, parent int) map[string]float64 {
	out := map[string]float64{}
	timed := func(name string, fn func()) {
		sp := spans.begin("driver:"+name, parent)
		fn()
		spans.end(sp)
	}
	timed("simkernel", func() { driveKernel(minDur, out) })
	timed("simnet", func() { driveNetwork(minDur, out) })
	timed("bloom", func() { driveBloom(minDur, out) })
	timed("gossip", func() { driveGossip(minDur, out) })
	timed("dring", func() { driveDRing(minDur, out) })
	timed("overlay", func() { driveOverlay(minDur, out) })
	timed("workload+metrics+model", func() { driveEdges(minDur, out) })
	timed("topology+core", func() { drivePopulation(minDur, out) })
	return out
}

// driveKernel is the classic hold model: depth events stay pending, every
// fired event schedules its successor a pseudo-random 1..2·depth ticks
// ahead, so one simulated tick pops about one event from a heap of that
// depth. 1 k pending is the dirstress/paper regime, 100 k the pop100k one.
func driveKernel(minDur time.Duration, out map[string]float64) {
	hold := func(depth int) opCost {
		k := simkernel.New(1)
		var fire func(uint64)
		fire = func(arg uint64) {
			arg = simkernel.Mix64(arg)
			k.AfterArg(1+simkernel.Time(arg%uint64(2*depth)), fire, arg)
		}
		for i := 0; i < depth; i++ {
			fire(uint64(i))
		}
		return timeOp(minDur, func(n int) int { return int(k.Run(k.Now() + simkernel.Time(n))) })
	}
	shallow := hold(1000)
	out["simkernel.event_ns_d1k"] = shallow.ns
	out["simkernel.event_allocs"] = shallow.allocs
	out["simkernel.event_ns_d100k"] = hold(100000).ns
}

// driveNetwork times Send plus the delivery event it schedules, between
// rotating node pairs of a 300-node topology, clean and with the
// graychurn20k fault plane installed.
func driveNetwork(minDur time.Duration, out map[string]float64) {
	sendDeliver := func(faults *simnet.FaultConfig) opCost {
		cfg := topology.DefaultConfig(1)
		cfg.TotalNodes = 300
		cfg.UniformNodes = 20
		topo := must(topology.Generate(cfg))
		k := simkernel.New(1)
		n := simnet.New(k, topo)
		n.InstallFaults(faults)
		h := simnet.HandlerFunc(func(m simnet.Message) { sink++ })
		for id := 0; id < 300; id++ {
			n.Register(simnet.NodeID(id), h)
		}
		payload := new(int)
		i := 0
		return timeOp(minDur, func(ops int) int {
			for j := 0; j < ops; j++ {
				i++
				n.Send(simnet.NodeID(i%300), simnet.NodeID((i*7+1)%300), simnet.CatQuery, 40, payload)
				k.Run(k.Now() + simkernel.Second)
			}
			return ops
		})
	}
	clean := sendDeliver(nil)
	out["simnet.send_deliver_ns"] = clean.ns
	out["simnet.send_allocs"] = clean.allocs
	out["simnet.send_deliver_faulted_ns"] = sendDeliver(grayFaults()).ns
}

// paperInterner is the paper-scale object space (100 websites × 500
// objects) the substrate drivers index into.
func paperInterner() *model.Interner {
	return model.NewInterner(model.MakeSites(100), 500)
}

// summaryOf builds a content summary holding count objects of site 0,
// starting at object first.
func summaryOf(in *model.Interner, first, count int) *bloom.Filter {
	f := bloom.NewForCapacity(500)
	for i := 0; i < count; i++ {
		f.AddHash(in.Hashes(in.RefFor(0, (first+i)%500)))
	}
	return f
}

func driveBloom(minDur time.Duration, out map[string]float64) {
	in := paperInterner()
	f := summaryOf(in, 0, 100)
	// The probes the query path issues: precomputed hash pairs, no string
	// hashing (bloom.Filter.TestHash / AddHash).
	test := timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			if f.TestHash(in.Hashes(in.RefFor(0, i%500))) {
				sink++
			}
		}
		return n
	})
	out["bloom.test_ns"] = test.ns
	g := bloom.NewForCapacity(500)
	add := timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			g.AddHash(in.Hashes(in.RefFor(0, i%500)))
		}
		return n
	})
	out["bloom.add_ns"] = add.ns
	fresh := timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			sink += uint64(bloom.NewForCapacity(500).Bits())
		}
		return n
	})
	out["bloom.new_ns"] = fresh.ns
	out["bloom.new_allocs"] = fresh.allocs
}

// paperView builds a full V=50 view whose entries carry 60-object
// summaries, as content peers hold at the paper's operating point.
func paperView(in *model.Interner, owner simnet.NodeID) *gossip.View {
	v := gossip.NewView(owner, 50)
	for i := 0; i < 50; i++ {
		v.Insert(gossip.Entry{Node: simnet.NodeID(1000 + i), Age: i % 7, Summary: summaryOf(in, i*9, 60)})
	}
	return v
}

func driveGossip(minDur time.Duration, out map[string]float64) {
	in := paperInterner()
	v := paperView(in, 1)
	rng := rand.New(rand.NewSource(7))
	// L=10 received entries: half refresh known contacts, half are new.
	received := make([]gossip.Entry, 10)
	summaries := make([]*bloom.Filter, len(received))
	for j := range summaries {
		summaries[j] = summaryOf(in, j*31, 60)
	}
	round := 0
	merge := timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			round++
			for j := range received {
				node := simnet.NodeID(1000 + (round*3+j*5)%50)
				if j%2 == 1 {
					node = simnet.NodeID(2000 + (round+j)%400)
				}
				received[j] = gossip.Entry{Node: node, Age: j % 3, Summary: summaries[j]}
			}
			v.IncrementAges()
			v.Merge(received)
		}
		return n
	})
	out["gossip.merge_ns"] = merge.ns
	out["gossip.merge_allocs"] = merge.allocs

	var buf []gossip.Entry
	subset := timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			buf = v.SelectSubsetAppend(rng, 10, buf[:0])
		}
		return n
	})
	out["gossip.select_subset_ns"] = subset.ns

	w := paperView(in, 1)
	match := timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			sink += uint64(len(w.MatchingSummaries(in.Hashes(in.RefFor(0, i%500)))))
		}
		return n
	})
	out["gossip.match_summaries_ns"] = match.ns
}

func driveDRing(minDur time.Duration, out map[string]float64) {
	// A converged ring of the paper's 600 directory positions (100
	// websites × 6 localities); every lookup routes from a rotating start
	// node to a rotating key until delivery.
	ks := must(dring.NewKeySpec(30, 6, 0))
	ring := chord.NewRing(chord.Config{Bits: 30, SuccessorList: 8})
	sites := model.MakeSites(100)
	var keys []chord.ID
	var nodes []*chord.Node
	for _, site := range sites {
		for loc := 0; loc < 6; loc++ {
			key := ks.Key(site, loc)
			keys = append(keys, key)
			nodes = append(nodes, must(ring.AddNode(key, simnet.NodeID(len(nodes)))))
		}
	}
	ring.BuildConverged()
	ttl := dring.RouteTTL(ring.Space())
	lookups := 0
	// routeOne routes lookup number i and returns its hop count.
	routeOne := func(i int) int {
		at, key := nodes[(i*131)%len(nodes)], keys[(i*977)%len(keys)]
		for hops := 0; hops < ttl; hops++ {
			next, deliver := dring.NextHop(at, key, ks)
			if deliver {
				return hops
			}
			at = next
		}
		return ttl
	}
	route := timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			lookups++
			sink += uint64(routeOne(lookups))
		}
		return n
	})
	out["dring.route_ns"] = route.ns
	out["dring.route_allocs"] = route.allocs
	// A fixed set of lookups, so the mean hop count does not depend on how
	// many the timed batches happened to run.
	const hopLookups = 5000
	hops := 0
	for i := 0; i < hopLookups; i++ {
		hops += routeOne(i)
	}
	out["dring.route_hops"] = float64(hops) / hopLookups

	// A 2000-member directory, each member holding 8 of 100 objects: the
	// dirstress6h overlay's shape.
	in := model.NewInterner(model.MakeSites(4), 100)
	site := in.Sites()[0]
	d := dring.NewDirectory(site, ks.WebsiteID(site), 1, ks.Key(site, 1), 2100, 100, 0.1, in)
	const members = 2000
	var refs [8]model.ObjectRef
	for m := 0; m < members; m++ {
		for k := range refs {
			refs[k] = in.RefFor(0, (m*13+k*5)%100)
		}
		if !d.ApplyPush(simnet.NodeID(m+1), refs[:], nil) {
			panic("bench driver set-up: directory refused a member")
		}
	}
	out["dring.dir_tick_ns"] = timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			d.TickAges()
			sink += uint64(len(d.EvictOlderThan(1 << 30)))
		}
		return n
	}).ns
	// Each push adds one object and removes the one the member's previous
	// push added (offsets 3 and 4 never collide with the eight it holds), so
	// the index keeps the size the other drivers assume.
	push := 0
	var added, removed [1]model.ObjectRef
	out["dring.apply_push_ns"] = timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			push++
			m, lap := push%members, push/members
			added[0] = in.RefFor(0, (m*13+3+lap%2)%100)
			removed[0] = in.RefFor(0, (m*13+4-lap%2)%100)
			d.ApplyPush(simnet.NodeID(m+1), added[:], removed[:])
		}
		return n
	}).ns
	out["dring.holders_ns"] = timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			sink += uint64(len(d.Holders(in.RefFor(0, i%100))))
		}
		return n
	}).ns
	out["dring.build_summary_ns"] = timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			sink += uint64(d.BuildSummary().Bits())
		}
		return n
	}).ns
}

func driveOverlay(minDur time.Duration, out map[string]float64) {
	in := paperInterner()
	site := in.Sites()[0]
	cfg := overlay.DefaultConfig() // V=50, L=10
	peer := func(addr simnet.NodeID) *overlay.ContentPeer {
		c := overlay.New(addr, site, 0, cfg, 0, in)
		for i := 0; i < 60; i++ {
			c.AddObject(in.RefFor(0, (int(addr)*17+i*3)%500))
		}
		c.SeedView(paperView(in, addr).Entries())
		c.SetDir(9)
		return c
	}
	a, b := peer(1), peer(2)
	rng := rand.New(rand.NewSource(11))
	var bufA, bufB []gossip.Entry
	exchange := timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			a.TickAges()
			_, msg, ok := a.MakeGossip(rng, bufA[:0])
			if !ok {
				panic("bench driver: empty view")
			}
			reply := b.AcceptGossip(msg, rng, bufB[:0])
			a.ApplyGossipReply(reply)
			bufA, bufB = msg.ViewSubset, reply.ViewSubset
		}
		return n
	})
	out["overlay.exchange_ns"] = exchange.ns
	out["overlay.exchange_allocs"] = exchange.allocs

	c := peer(3)
	out["overlay.candidates_ns"] = timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			sink += uint64(len(c.CandidatesFor(in.RefFor(0, i%500), rng)))
		}
		return n
	}).ns
	// A content change (one object swapped) followed by the summary
	// rebuild the next gossip round pays for.
	out["overlay.summary_rebuild_ns"] = timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			ref := in.RefFor(0, 400+i%50)
			if c.Has(ref) {
				c.RemoveObject(ref)
			} else {
				c.AddObject(ref)
			}
			sink += uint64(c.Summary().Bits())
		}
		return n
	}).ns
}

// driveEdges covers the layers at the rim of a run: the query generator,
// the metrics collector and the interner.
func driveEdges(minDur time.Duration, out map[string]float64) {
	p := flowercdn.DefaultParams(1)
	in := paperInterner()
	gen := must(querygen.New(querygen.Config{
		Seed:           2,
		Sites:          model.MakeSites(p.Websites)[:p.ActiveSites],
		ObjectsPerSite: p.ObjectsPerSite,
		ZipfAlpha:      p.ZipfAlpha,
		QueryRate:      p.QueryRate,
		PoolSizes:      p.BuildPools(),
		Interner:       in,
	}))
	next := timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			sink += uint64(gen.Next().Member)
		}
		return n
	})
	out["workload.next_ns"] = next.ns
	out["workload.next_allocs"] = next.allocs

	mcfg := metrics.Config{BucketWidth: p.BucketWidth, Horizon: p.Duration}
	// RecordQuery appends a latency sample per call, so its cost includes
	// the growth of the sample slices: a fresh collector every 500 k
	// records keeps that share the one a paper-size run pays.
	out["metrics.record_query_ns"] = timeOp(minDur, func(n int) int {
		var c *metrics.Collector
		for i := 0; i < n; i++ {
			if i%500000 == 0 {
				c = metrics.New(mcfg)
			}
			c.RecordQuery(simkernel.Time(i%86400)*simkernel.Second, metrics.SourcePeer, float64(40+i%300), float64(20+i%200))
		}
		return n
	}).ns
	c := metrics.New(mcfg)
	out["metrics.record_message_ns"] = timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			c.RecordMessage(simkernel.Time(i%86400)*simkernel.Second, 1, 2, simnet.CatGossip, 700)
		}
		return n
	}).ns
	full := metrics.New(mcfg)
	full.PeerJoined(0)
	for i := 0; i < 500000; i++ {
		full.RecordQuery(simkernel.Time(i%86400)*simkernel.Second, metrics.Source(i%4), float64(40+i%900), float64(20+i%400))
	}
	out["metrics.snapshot_ms_500k"] = timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			sink += uint64(full.Snapshot(p.Duration).TotalQueries)
		}
		return n
	}).ns / 1e6

	out["model.interner_build_ms"] = timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			sink += uint64(paperInterner().Count())
		}
		return n
	}).ns / 1e6
}

// drivePopulation times the two set-up steps that grow with the client
// population, at the pop100k size: topology generation (113 k nodes) and
// core.New.
func drivePopulation(minDur time.Duration, out map[string]float64) {
	p := flowercdn.PopulationParams(1, 100000)
	pools := p.BuildPools()
	topoCfg := p.TopologyConfig(pools)
	var topo *topology.Topology
	out["topology.generate_ms_113k"] = timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			topo = must(topology.Generate(topoCfg))
		}
		return n
	}).ns / 1e6
	nodes := topo.NumNodes()
	out["topology.latency_ns"] = timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			a := simkernel.Mix64(uint64(i))
			sink += uint64(topo.Latency(topology.NodeID(a%uint64(nodes)), topology.NodeID((a>>32)%uint64(nodes))))
		}
		return n
	}).ns

	in := model.NewInterner(model.MakeSites(p.Websites), p.ObjectsPerSite)
	coreCfg := p.CoreConfig(pools)
	out["core.new_ms_pop100k"] = timeOp(minDur, func(n int) int {
		for i := 0; i < n; i++ {
			sys := must(core.New(coreCfg, core.Deps{
				Kernel:   simkernel.New(p.Seed),
				Topo:     topo,
				Metrics:  metrics.New(metrics.Config{BucketWidth: p.BucketWidth, Horizon: p.Duration}),
				Interner: in,
			}))
			sink += uint64(sys.JoinedCount())
		}
		return n
	}).ns / 1e6
}
