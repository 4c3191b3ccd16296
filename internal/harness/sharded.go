package harness

import (
	"math/rand"
	"runtime"
	"time"

	"flowercdn/internal/core"
	"flowercdn/internal/metrics"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// runFlowerSharded is the locality-sharded counterpart of RunFlowerTraced:
// one private kernel (with its own metrics collector and slab-backed
// delivery lane) per topology locality, plus the serial coordination
// kernel that executes all cross-cell work at epoch barriers. Params.Shards
// sets only the worker-goroutine count of the epoch engine — the
// decomposition into cells is fixed by the topology, the barrier applies
// every inter-cell effect in (epoch, srcCell, seq) order, and each cell's
// event stream is private in between, so the result is a pure function of
// (scenario, seed): byte-identical for 4 workers and for 1.
func runFlowerSharded(p Params, traceCapacity int) (Result, *trace.Buffer, error) {
	if err := p.Validate(); err != nil {
		return Result{}, nil, err
	}
	pools := p.BuildPools()
	global := simkernel.New(p.Seed)
	tcfg := p.TopologyConfig(pools)
	topo, err := topology.Generate(tcfg)
	if err != nil {
		return Result{}, nil, err
	}
	ccfg := p.CoreConfig(pools)
	// One kernel/collector/tracer per cell: a cell per locality, more when
	// CellSplit spreads a hot locality over several.
	cells := make([]*simkernel.Kernel, ccfg.TotalCells())
	cellMets := make([]*metrics.Collector, len(cells))
	for i := range cells {
		cells[i] = simkernel.New(int64(simkernel.Mix64(uint64(p.Seed) + uint64(i) + 1)))
		cellMets[i] = metrics.New(p.metricsConfig(len(cells)))
	}
	in := sharedInterner(p.Websites, p.ObjectsPerSite)
	deps := core.Deps{
		Kernel: global, Topo: topo, Interner: in,
		Cells: cells, CellMetrics: cellMets,
	}
	var bufs []*trace.Buffer
	if traceCapacity > 0 {
		bufs = make([]*trace.Buffer, len(cells))
		tracers := make([]trace.Tracer, len(cells))
		for i := range cells {
			bufs[i] = trace.NewBuffer(traceCapacity)
			tracers[i] = bufs[i]
		}
		deps.CellTracers = tracers
	}
	sys, err := core.New(ccfg, deps)
	if err != nil {
		return Result{}, nil, err
	}
	net := sys.Network()
	// One pump per cell, each walking its own copy of the deterministic
	// workload stream and submitting only the queries whose origin lives in
	// its cell. The global stream position becomes the query ID, so the ID
	// sequence is independent of how queries partition across cells.
	for c := range cells {
		gen, err := newGenerator(p, pools, in)
		if err != nil {
			return Result{}, nil, err
		}
		pumpCellQueries(cells[c], c, net, sys, p.Duration, gen.AsSource())
	}
	// The fault plane decides drops/jitter on per-cell RNG streams during
	// parallel phases and the coordination stream at barriers, so it is
	// worker-invariant; the auditor always ticks on the coordination kernel
	// (at barriers, workers parked).
	acc := applyFaultPlane(global, sys, p)
	scheduleDirCrashes(global, sys, p)
	// Churn is a global process: failures rewire the ring and cancel timers
	// across cells, so the whole injector lives on the coordination kernel
	// and runs at barriers.
	if p.ChurnPerHour > 0 {
		injectChurn(global, p, func(rng *rand.Rand) {
			failed := failRandomFlowerPeer(sys, p, rng)
			if failed >= 0 && p.ChurnMeanDowntime > 0 {
				down := simkernel.Time(rng.ExpFloat64() * float64(p.ChurnMeanDowntime))
				global.After(down, func() { sys.RevivePeer(failed) })
			}
		})
	}
	// The epoch width is the topology's latency floor: no message can cross
	// cells faster, so every cross-cell arrival imported at a barrier lands
	// strictly after it.
	width := simkernel.Time(tcfg.MinLatencyMs * float64(simkernel.Millisecond))
	if width < simkernel.Millisecond {
		width = simkernel.Millisecond
	}
	eng := simkernel.NewEngine(cells, width, p.Shards,
		net.ExitBarrier,
		func(boundary simkernel.Time) uint64 {
			net.EnterBarrier()
			n := global.Run(boundary)
			net.ImportMail()
			return n
		},
		global.NextEvent)
	if !p.EagerBarriers {
		// Elide boundaries where the barrier would provably process zero
		// events (no buffered mail, no coordination event due): same
		// output, far fewer single-threaded rendezvous.
		eng.EnableBarrierElision(func() bool { return net.MailPending() > 0 })
	}
	start := time.Now()
	events := eng.Run(p.Duration)
	wall := time.Since(start).Seconds()
	// An elided final boundary leaves the network in parallel mode; the
	// post-run accounting below is single-threaded.
	net.EnterBarrier()
	res := Result{
		Kind:          KindFlower,
		Stats:         sys.Stats(),
		Params:        p,
		Events:        events,
		WallSeconds:   wall,
		ShardEvents:   append([]uint64(nil), eng.CellEvents()...),
		BarrierEvents: eng.BarrierEvents(),
		Epochs:        eng.Epochs(),
		BarriersRun:   eng.BarriersRun(),
		WorkerStallNs: append([]int64(nil), eng.WorkerStallNs()...),
	}
	for _, k := range append(cells, global) {
		res.addKernel(k)
	}
	merged := metrics.New(p.metricsConfig(1))
	for _, cm := range cellMets {
		merged.MergeFrom(cm, p.Duration)
	}
	res.Report = merged.Snapshot(p.Duration)
	finishFaultPlane(&res, sys, acc)
	if p.MeasureMemory {
		res.BytesPerClient = bytesPerClientOf(pools)
		// The system (and through it the cells, lanes and directories) must
		// stay reachable while the heap is measured, or the forced GC
		// collects the very state being weighed.
		runtime.KeepAlive(sys)
	}
	var buf *trace.Buffer
	if traceCapacity > 0 {
		buf = trace.MergeBuffers(traceCapacity, bufs...)
	}
	return res, buf, nil
}

// pumpCellQueries starts one cell's pump on the cell's own kernel: it walks
// the whole stream but submits only the queries whose origin lives in the
// cell (the other cells' pumps submit the rest), under the stream position
// as the query ID.
func pumpCellQueries(k *simkernel.Kernel, cell int, net *simnet.Network, sys *core.System, until simkernel.Time, src workload.Source) {
	p := &queryPump{k: k, until: until, src: src, submit: sys.SubmitWithID,
		mine: func(q workload.Query) bool {
			return net.CellOf(sys.PoolNode(q.SiteIdx, q.Locality, q.Member)) == cell
		}}
	p.fireFn = p.fire
	p.arm()
}

// bytesPerClientOf reports the post-run heap footprint per potential
// client. It forces a collection first, so it is only computed when
// Params.MeasureMemory asks for it — never on benchmark paths.
func bytesPerClientOf(pools [][]int) float64 {
	total := 0
	for _, row := range pools {
		for _, n := range row {
			total += n
		}
	}
	if total == 0 {
		return 0
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(total)
}
