package flowercdn

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"flowercdn/internal/core"
	"flowercdn/internal/metrics"
	"flowercdn/internal/model"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/squirrel"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// SystemKind names which system a result came from.
type SystemKind string

// System kinds.
const (
	KindFlower   SystemKind = "flower-cdn"
	KindSquirrel SystemKind = "squirrel"
)

// Result is one finished run.
type Result struct {
	Kind   SystemKind
	Report metrics.Report
	Stats  core.Stats // zero for Squirrel
	Params Params

	// Events counts the kernel events processed by the run (deterministic
	// per seed); WallSeconds is the wall-clock time Kernel.Run took (not
	// deterministic — excluded from the equivalence fixture). Their ratio
	// is the simulator-throughput datapoint charted against population.
	Events      uint64
	WallSeconds float64

	// PeriodicEvents is how many of Events were periodic-timer firings (the
	// rest were one-shots), ElidedEvents the cancelled records skipped, which
	// Events excludes. Deterministic per seed.
	PeriodicEvents uint64
	ElidedEvents   uint64

	// Events by kernel queue class (simkernel.QueueStats): fired off the
	// timing wheel, off the far heap (the rest off the period lanes), and the
	// far heap's high-water length.
	NearEvents  uint64
	FarEvents   uint64
	FarHeapPeak int

	// BytesPerClient is the post-run heap footprint per potential client,
	// filled only when Params.MeasureMemory is set.
	BytesPerClient float64

	// Network delivery totals: messages sent, messages lost to dead
	// receivers, and messages dropped by the fault-injection plane
	// (loss/partition). Always filled for Flower runs; FaultDrops is zero
	// when Params.Faults is nil or disabled.
	MessagesSent    uint64
	MessagesDropped uint64
	FaultDrops      uint64

	// Recovery reports, per partitioned locality, the time from partition
	// heal to the first directory-mediated P2P hit. Nil unless
	// Params.Faults carried partition windows.
	Recovery []LocalityRecovery

	// Invariant-auditor tally (Params.AuditEvery > 0): checks performed
	// across all periodic passes plus the final one, and the violations
	// found (capped; empty means the run held every invariant).
	AuditChecks     int
	AuditViolations []string
}

// LocalityRecovery is one partitioned locality's heal/recovery datapoint.
type LocalityRecovery struct {
	Locality  int
	HealAt    simkernel.Time
	RecoverMs float64 // heal → first directory-mediated P2P hit; -1 = not observed
}

// EventsPerSecond returns the simulator throughput of the run (kernel
// events per wall-clock second); 0 when the run was too fast to time.
func (r Result) EventsPerSecond() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return float64(r.Events) / r.WallSeconds
}

// metricsConfig sizes a run's collector: time-series buckets across the
// horizon.
func (p Params) metricsConfig() metrics.Config {
	return metrics.Config{BucketWidth: p.BucketWidth, Horizon: p.Duration}
}

// setKernel fills the result's event-class counters from the run's kernel.
func (r *Result) setKernel(k *simkernel.Kernel) {
	q := k.QueueStats()
	r.PeriodicEvents = k.PeriodicFired()
	r.ElidedEvents = k.Elided()
	r.NearEvents = q.NearFired
	r.FarEvents = q.FarFired
	r.FarHeapPeak = q.FarHeapPeak
}

// timedRun drives the kernel for the configured duration, returning the
// processed-event count and wall-clock seconds.
func timedRun(k *simkernel.Kernel, d simkernel.Time) (uint64, float64) {
	start := time.Now()
	events := k.Run(d)
	return events, time.Since(start).Seconds()
}

// auditAccum accumulates the periodic and final invariant-audit passes.
type auditAccum struct {
	checks     int
	violations []string
}

func (a *auditAccum) absorb(r core.AuditReport) {
	a.checks += r.Checks
	for _, v := range r.Violations {
		if len(a.violations) >= 64 {
			break
		}
		a.violations = append(a.violations, v)
	}
}

// applyFaultPlane installs the fault-injection plane and arms the periodic
// invariant auditor on a freshly built system. Returns nil when no audit
// was requested.
func applyFaultPlane(k *simkernel.Kernel, sys *core.System, p Params) *auditAccum {
	faults := p.Faults
	if len(p.DirDegrades) > 0 {
		// Resolve the scheduled directory degradations now that the system
		// exists: only it knows which node holds each d(site, loc). The
		// caller's FaultConfig is cloned, not mutated, so a Params value can
		// drive several runs.
		fc := simnet.FaultConfig{}
		if faults != nil {
			fc = *faults
		}
		fc.NodeDegrade = append(append([]simnet.DegradeWindow{}, fc.NodeDegrade...),
			resolveDirDegrades(sys, p)...)
		faults = &fc
	}
	if faults.Enabled() {
		sys.InstallFaults(faults)
	}
	if p.AuditEvery <= 0 {
		return nil
	}
	acc := &auditAccum{}
	k.Every(p.AuditEvery, p.AuditEvery, func() { acc.absorb(sys.Audit()) })
	return acc
}

// resolveDirDegrades maps Params.DirDegrades onto the nodes currently
// holding the named directory positions (run start, before any churn).
func resolveDirDegrades(sys *core.System, p Params) []simnet.DegradeWindow {
	sites := model.MakeSites(p.Websites)[:p.ActiveSites]
	var wins []simnet.DegradeWindow
	for _, dd := range p.DirDegrades {
		addr, ok := sys.DirectoryAddr(sites[dd.SiteIdx], dd.Locality)
		if !ok {
			continue
		}
		wins = append(wins, simnet.DegradeWindow{
			Node: addr, Start: dd.Start, End: dd.End, Factor: dd.Factor,
		})
	}
	return wins
}

// finishFaultPlane runs the end-of-run audit pass and fills the network
// delivery totals, recovery datapoints and audit tally of res.
func finishFaultPlane(res *Result, sys *core.System, acc *auditAccum) {
	net := sys.Network()
	res.MessagesSent = net.Sent()
	res.MessagesDropped = net.Dropped()
	res.FaultDrops = net.FaultDropped()
	if acc != nil {
		acc.absorb(sys.Audit())
		res.AuditChecks = acc.checks
		res.AuditViolations = acc.violations
	}
	// Directory-crash datapoints ride the same rows as partition heals:
	// HealAt is then the crash time, RecoverMs the
	// crash→first-local-directory-hit delay.
	sys.EachRecovery(func(loc int, since, delay simkernel.Time) {
		res.Recovery = append(res.Recovery, LocalityRecovery{Locality: loc, HealAt: since, RecoverMs: float64(delay)})
	})
}

// scheduleDirCrashes arms the Params.DirCrashes schedule.
func scheduleDirCrashes(k *simkernel.Kernel, sys *core.System, p Params) {
	if len(p.DirCrashes) == 0 {
		return
	}
	sites := model.MakeSites(p.Websites)[:p.ActiveSites]
	for _, dc := range p.DirCrashes {
		site, loc := sites[dc.SiteIdx], dc.Locality
		k.At(dc.At, func() { sys.CrashDirectory(site, loc) })
	}
}

// RunFlower executes a full Flower-CDN experiment.
func RunFlower(p Params) (Result, error) {
	res, _, err := RunFlowerTraced(p, 0)
	return res, err
}

// RunFlowerTraced is RunFlower with protocol tracing: up to traceCapacity
// events are retained in the returned buffer (0 disables tracing).
func RunFlowerTraced(p Params, traceCapacity int) (Result, *trace.Buffer, error) {
	if err := p.Validate(); err != nil {
		return Result{}, nil, err
	}
	pools := p.BuildPools()
	gen, err := newGenerator(p, pools, sharedInterner(p.Websites, p.ObjectsPerSite))
	if err != nil {
		return Result{}, nil, err
	}
	return runFlower(p, pools, gen.AsSource(), traceCapacity)
}

// runFlower is the one Flower-CDN run scaffold: it builds the system for
// validated parameters and their pools, arms the fault plane, the auditor,
// scheduled directory crashes and churn, pumps src into the system for the
// configured duration and packages the result.
func runFlower(p Params, pools [][]int, src workload.Source, traceCapacity int) (Result, *trace.Buffer, error) {
	kernel := simkernel.New(p.Seed)
	topo, err := topology.Generate(p.TopologyConfig(pools))
	if err != nil {
		return Result{}, nil, err
	}
	mets := metrics.New(p.metricsConfig())
	// One interner serves both the system and the workload generator, and
	// is shared across campaign points: the dense object space (and its
	// precomputed keys and Bloom hash streams) is a pure function of
	// (websites, objects-per-site) and read-only after construction.
	deps := core.Deps{
		Kernel: kernel, Topo: topo, Metrics: mets,
		Interner: sharedInterner(p.Websites, p.ObjectsPerSite),
	}
	var buf *trace.Buffer
	if traceCapacity > 0 {
		buf = trace.NewBuffer(traceCapacity)
		deps.Tracer = buf
	}
	sys, err := core.New(p.CoreConfig(pools), deps)
	if err != nil {
		return Result{}, nil, err
	}
	acc := applyFaultPlane(kernel, sys, p)
	scheduleDirCrashes(kernel, sys, p)
	pumpQueries(kernel, p.Duration, src, sys.Submit)
	if p.ChurnPerHour > 0 {
		injectChurn(kernel, p, func(rng *rand.Rand) {
			failed := failRandomFlowerPeer(sys, p, rng)
			if failed >= 0 && p.ChurnMeanDowntime > 0 {
				down := simkernel.Time(rng.ExpFloat64() * float64(p.ChurnMeanDowntime))
				kernel.After(down, func() { sys.RevivePeer(failed) })
			}
		})
	}
	events, wall := timedRun(kernel, p.Duration)
	res := Result{
		Kind:        KindFlower,
		Report:      mets.Snapshot(p.Duration),
		Stats:       sys.Stats(),
		Params:      p,
		Events:      events,
		WallSeconds: wall,
	}
	res.setKernel(kernel)
	finishFaultPlane(&res, sys, acc)
	res.BytesPerClient = bytesPerClientOf(p, pools, sys)
	return res, buf, nil
}

// bytesPerClientOf reports sys's post-run heap footprint per potential
// client. It forces a collection first, so it is only computed when
// Params.MeasureMemory asks for it — never on benchmark paths.
func bytesPerClientOf(p Params, pools [][]int, sys any) float64 {
	if !p.MeasureMemory {
		return 0
	}
	defer runtime.KeepAlive(sys) // the measured state stays reachable during GC
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

// RunSquirrel executes the baseline with the identical topology seed,
// pools and workload stream, refusing the inputs it does not model (Squirrel
// never revives a failed peer, so a churn downtime is one of them).
func RunSquirrel(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	for _, in := range [...]struct {
		field string
		set   bool
	}{
		{"Faults", p.Faults.Enabled()}, {"DirDegrades", len(p.DirDegrades) > 0},
		{"DirCrashes", len(p.DirCrashes) > 0}, {"AuditEvery", p.AuditEvery > 0},
		{"Adaptive", p.Adaptive}, {"StandbyFailover", p.StandbyFailover},
		{"ReplicationTopK", p.ReplicationTopK > 0}, {"QueryPolicy", p.QueryPolicy != core.PolicyViewOnly},
		{"ChurnMeanDowntime", p.ChurnMeanDowntime > 0},
	} {
		if in.set {
			return Result{}, fmt.Errorf("flowercdn: Squirrel does not model Params.%s", in.field)
		}
	}
	pools := p.BuildPools()
	kernel := simkernel.New(p.Seed)
	topo, err := topology.Generate(p.TopologyConfig(pools))
	if err != nil {
		return Result{}, err
	}
	mets := metrics.New(p.metricsConfig())
	sys, err := squirrel.New(p.SquirrelConfig(pools), kernel, topo, mets)
	if err != nil {
		return Result{}, err
	}
	gen, err := newGenerator(p, pools, nil)
	if err != nil {
		return Result{}, err
	}
	pumpQueries(kernel, p.Duration, gen.AsSource(), sys.Submit)
	if p.ChurnPerHour > 0 {
		injectChurn(kernel, p, func(rng *rand.Rand) {
			failRandomSquirrelPeer(sys, p, pools, rng)
		})
	}
	events, wall := timedRun(kernel, p.Duration)
	res := Result{
		Kind:        KindSquirrel,
		Report:      mets.Snapshot(p.Duration),
		Params:      p,
		Events:      events,
		WallSeconds: wall,
	}
	res.setKernel(kernel)
	res.BytesPerClient = bytesPerClientOf(p, pools, sys)
	return res, nil
}

// internerCache memoises interners per (websites, objectsPerSite) shape.
// Harness sites are always MakeSites(websites), so the shape fully
// determines the interner; campaign workers share instances concurrently,
// which is safe because interners are immutable after construction.
var internerCache sync.Map // internerShape → *model.Interner

type internerShape struct{ websites, objectsPerSite int }

func sharedInterner(websites, objectsPerSite int) *model.Interner {
	shape := internerShape{websites, objectsPerSite}
	if in, ok := internerCache.Load(shape); ok {
		return in.(*model.Interner)
	}
	in, _ := internerCache.LoadOrStore(shape, model.NewInterner(model.MakeSites(websites), objectsPerSite))
	return in.(*model.Interner)
}

func newGenerator(p Params, pools [][]int, in *model.Interner) (*workload.Generator, error) {
	return workload.New(workload.Config{
		Seed:           p.Seed + 1,
		Sites:          model.MakeSites(p.Websites)[:p.ActiveSites],
		ObjectsPerSite: p.ObjectsPerSite,
		ZipfAlpha:      p.ZipfAlpha,
		QueryRate:      p.QueryRate,
		PoolSizes:      pools,
		Interner:       in,
	})
}

// queryPump lazily schedules a query stream: each fired query schedules
// the next, so the event queue never holds the whole day. The pending
// query waits in the struct and the pump re-arms itself through AtArg with
// one bound callback, so a pump step allocates nothing.
type queryPump struct {
	k      *simkernel.Kernel
	until  simkernel.Time
	src    workload.Source
	submit func(workload.Query)
	next   workload.Query
	fireFn func(uint64)
}

func (p *queryPump) fire(uint64) {
	p.submit(p.next)
	p.arm()
}

func (p *queryPump) arm() {
	q, ok := p.src.Next()
	if !ok || q.At > p.until {
		return
	}
	p.next = q
	p.k.AtArg(q.At, p.fireFn, 0)
}

// pumpQueries starts a pump feeding every query of src to submit.
func pumpQueries(k *simkernel.Kernel, until simkernel.Time, src workload.Source, submit func(workload.Query)) {
	p := &queryPump{k: k, until: until, src: src, submit: submit}
	p.fireFn = p.fire
	p.arm()
}

// RunFlowerReplay runs Flower-CDN against a recorded query trace instead
// of the synthetic generator (see workload.ParseTrace for the format). The
// trace's (site, locality, member) coordinates must fit the pools implied
// by the parameters; everything else in them (faults, churn, scheduled
// crashes, auditing, memory measurement) applies as in RunFlower.
func RunFlowerReplay(p Params, queries []workload.Query) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	pools := p.BuildPools()
	for i, q := range queries {
		if q.SiteIdx < 0 || q.SiteIdx >= len(pools) {
			return Result{}, fmt.Errorf("flowercdn: replay record %d: site %d out of range", i, q.SiteIdx)
		}
		if q.Locality < 0 || q.Locality >= p.Localities {
			return Result{}, fmt.Errorf("flowercdn: replay record %d: locality %d out of range", i, q.Locality)
		}
		if q.Member < 0 || q.Member >= pools[q.SiteIdx][q.Locality] {
			return Result{}, fmt.Errorf("flowercdn: replay record %d: member %d outside pool %d",
				i, q.Member, pools[q.SiteIdx][q.Locality])
		}
		// The interned object space is fixed at ObjectsPerSite; an
		// out-of-universe object number would alias into another site's
		// dense refs.
		if q.Object.Num < 0 || q.Object.Num >= p.ObjectsPerSite {
			return Result{}, fmt.Errorf("flowercdn: replay record %d: object %d outside universe of %d",
				i, q.Object.Num, p.ObjectsPerSite)
		}
	}
	replayer, err := workload.NewReplayer(queries)
	if err != nil {
		return Result{}, err
	}
	// The trace, not QueryRate, is the load.
	res, _, err := runFlower(p, pools, replayer, 0)
	return res, err
}

// injectChurn schedules peer failures as a Poisson process with rate
// ChurnPerHour.
func injectChurn(k *simkernel.Kernel, p Params, failOne func(*rand.Rand)) {
	rng := k.DeriveRNG("churn")
	meanGapMs := float64(simkernel.Hour) / p.ChurnPerHour
	var schedule func()
	schedule = func() {
		gap := simkernel.Time(rng.ExpFloat64() * meanGapMs)
		if gap < simkernel.Second {
			gap = simkernel.Second
		}
		k.After(gap, func() {
			failOne(rng)
			schedule()
		})
	}
	schedule()
}

// failRandomFlowerPeer crashes one peer and returns its address, or -1
// when a directory (not revivable) or nothing was failed.
func failRandomFlowerPeer(sys *core.System, p Params, rng *rand.Rand) simnet.NodeID {
	cfg := sys.Config()
	// Directory peers are a small fraction of the population; when churn
	// includes them, hit one occasionally (~10% of failures) so §5.2's
	// replacement path is actually exercised.
	if p.ChurnIncludesDirs && rng.Float64() < 0.10 {
		sites := model.MakeSites(p.Websites)[:p.ActiveSites]
		site := sites[rng.Intn(len(sites))]
		loc := rng.Intn(p.Localities)
		if sys.FailDirectory(site, loc) {
			return -1
		}
	}
	// Otherwise pick a joined content peer at random (bounded draws).
	for try := 0; try < 32; try++ {
		si := rng.Intn(cfg.ActiveSites)
		loc := rng.Intn(cfg.Localities)
		size := sys.PoolSize(si, loc)
		if size == 0 {
			continue
		}
		addr := sys.PoolNode(si, loc, rng.Intn(size))
		if !sys.Joined(addr) || !sys.Network().Alive(addr) {
			continue
		}
		sys.FailPeer(addr)
		return addr
	}
	return -1
}

func failRandomSquirrelPeer(sys *squirrel.System, p Params, pools [][]int, rng *rand.Rand) {
	for try := 0; try < 32; try++ {
		si := rng.Intn(len(pools))
		loc := rng.Intn(p.Localities)
		if pools[si][loc] == 0 {
			continue
		}
		addr := sys.PoolNode(si, loc, rng.Intn(pools[si][loc]))
		if !sys.Network().Alive(addr) {
			continue
		}
		sys.FailPeer(addr)
		return
	}
}

// Describe renders a one-line result summary.
func (r Result) Describe() string {
	return fmt.Sprintf("%s: %s", r.Kind, r.Report.String())
}
