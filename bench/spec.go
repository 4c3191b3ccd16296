package main

// spec declares one metric: its name, unit and direction, and for an
// end-to-end metric the bound — the share of the baseline's median by
// which it may worsen before -compare calls it a regression. BENCHMARK.json
// repeats these tables; TestBenchmarkJSONMatchesSpecs keeps the two equal.
//
// Naming: a metric whose name (or, per layer, whose last component) starts
// with sim_ or that counts simulated things is *simulated* — a statistic
// of the modelled CDN, exact per seed. Every other metric is *host*: what
// the simulator costs to run on this machine.
type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// SameSeed is the bound -compare applies instead of Bound when both
	// reports ran the same seed: then the simulated values repeat exactly
	// and only machine noise is left, so it sits near that noise (ISSUE 11's
	// figures) instead of having to cover a change of seed as Bound does.
	// Per-layer metrics that carry one are judged by -compare too.
	SameSeed float64 `json:"same_seed_bound,omitempty"`
	// AbsFloor is the smallest absolute worsening -compare reports: a
	// relative bound on a value of a few milliseconds is finer than the
	// clock noise around it.
	AbsFloor float64 `json:"abs_floor,omitempty"`
	// Floor marks a metric whose value is the smallest of its per-rep
	// values, not their median (setup_s; see floor in measure.go). The
	// range of the reps then says nothing about how well the value
	// repeats, so -compare never calls such a row unresolved.
	Floor bool `json:"floor,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the simulator sees. Host values are medians
// of the timed reps (setup_s: their floor).
//
// Bound is what BENCHMARK.json carries. The benchmark driver applies it
// across runs of ten different seeds (bench/README.md quotes the rule), so
// every Bound is at least three times the widest interquartile spread the
// metric showed across ten seeds on the reference box, workload by
// workload, in three sets of runs. wall_s also has to absorb the mood of
// the reference box there: between two sets of runs half an hour apart,
// with nothing else running, the memory-bound workloads' medians moved by
// 10 % (paper24h) and 15 % (pop100k) while the cache-resident ones stayed
// put. SameSeed is what -compare applies to two reports of one seed.
//
// The paper's latency figures (mean and p99 lookup, mean transfer) are
// not here but under harness.sim_*: they follow the seed's topology too
// closely (interquartile spread across seeds up to 118 % on dirstress6h,
// 27 % on graychurn20k) for any Bound the driver allows. They repeat
// exactly per seed, so they carry a SameSeed bound and -compare gates them.
var endToEnd = []spec{
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25, SameSeed: 0.05},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, SameSeed: 0.20, AbsFloor: 0.010, Floor: true},
	{Name: "allocs_per_run", Unit: "count", Better: lower, Bound: 0.05, SameSeed: 0.01},
	{Name: "alloc_mb_per_run", Unit: "MB", Better: lower, Bound: 0.06, SameSeed: 0.01},
	{Name: "heap_bytes_per_client", Unit: "B", Better: lower, Bound: 0.12, SameSeed: 0.02},
	{Name: "sim_hit_ratio", Unit: "ratio", Better: higher, Bound: 0.02, SameSeed: 0.02},
	{Name: "sim_background_bps", Unit: "bps/peer", Better: lower, Bound: 0.06, SameSeed: 0.02},
	{Name: "sim_resolved_frac", Unit: "ratio", Better: higher, Bound: 0.002, SameSeed: 0.001},
}

// cpuLayers are the buckets of the CPU-profile attribution, in print
// order: one per internal/<module> the classic path executes, the facade
// and harness together, three slices of the Go runtime, and the rest
// (standard library, the bench itself).
var cpuLayers = []string{
	"simkernel", "simnet", "topology", "gossip", "bloom", "chord", "dring",
	"overlay", "core", "workload", "metrics", "model", "bitset", "harness",
	"runtime_gc", "runtime_malloc", "runtime_other", "other",
}

// trafficCategories mirrors simnet.Category.String(), in category order.
var trafficCategories = []string{
	"gossip", "push", "dir-summary", "keepalive", "query", "maintenance",
	"transfer", "replication",
}

var servedSources = []string{"local", "peer", "remote-overlay", "server"}

var stageNames = []string{"route", "dir", "fetch"}

// perLayer lists the attribution metrics, prefixed by layer
// (internal/<module> name). bench/README.md says which end-to-end metric,
// on which workload, each is expected to move.
var perLayer = buildPerLayer()

func buildPerLayer() []spec {
	var out []spec
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, spec{Name: n, Unit: unit, Better: better})
		}
	}
	add(lower, "count", "simkernel.events", "simkernel.events_per_query")
	add(higher, "1/s", "simkernel.events_per_s")
	add(lower, "ns", "simkernel.ns_per_event")
	add(lower, "ns/op", "simkernel.event_ns_d1k", "simkernel.event_ns_d100k")
	add(lower, "allocs/op", "simkernel.event_allocs")

	add(lower, "count", "simnet.msgs_sent", "simnet.msgs_per_query", "simnet.dead_drops", "simnet.fault_drops")
	for _, c := range trafficCategories {
		add(lower, "count", "simnet.msgs."+c)
	}
	add(lower, "ns/op", "simnet.send_deliver_ns", "simnet.send_deliver_faulted_ns")
	add(lower, "allocs/op", "simnet.send_allocs")

	add(lower, "ms", "topology.generate_ms_113k")
	add(lower, "ns/op", "topology.latency_ns")

	add(lower, "ns/op", "gossip.merge_ns")
	add(lower, "allocs/op", "gossip.merge_allocs")
	add(lower, "ns/op", "gossip.select_subset_ns", "gossip.match_summaries_ns")

	add(lower, "ns/op", "bloom.test_ns", "bloom.add_ns", "bloom.new_ns")
	add(lower, "allocs/op", "bloom.new_allocs")

	add(lower, "count", "dring.route_hops_per_lookup", "dring.dir_process", "dring.redirects", "dring.sibling_forwards")
	add(lower, "ns/op", "dring.route_ns")
	add(lower, "allocs/op", "dring.route_allocs")
	add(lower, "count", "dring.route_hops")
	add(lower, "ns/op", "dring.dir_tick_ns", "dring.apply_push_ns", "dring.holders_ns", "dring.build_summary_ns")

	add(lower, "ns/op", "overlay.exchange_ns")
	add(lower, "allocs/op", "overlay.exchange_allocs")
	add(lower, "ns/op", "overlay.candidates_ns", "overlay.summary_rebuild_ns")

	for _, s := range servedSources {
		better := higher
		if s == "server" {
			better = lower
		}
		add(better, "count", "core.served."+s)
	}
	add(higher, "count", "core.joins")
	add(lower, "count", "core.dir_replacements", "core.queries_retried", "core.retries",
		"core.dir_fallbacks", "core.origin_fallbacks", "core.hedges")
	add(higher, "ratio", "core.hedge_win_frac")
	add(lower, "count", "core.breaker_trips", "core.redirect_failures")
	add(lower, "ratio", "core.peer_nack_frac")
	add(lower, "count", "core.audit_violations")
	for _, st := range stageNames {
		add(lower, "sim_ms", "core.stage."+st+"_ms_p50", "core.stage."+st+"_ms_p99")
	}
	add(lower, "ms", "core.new_ms_pop100k")

	add(lower, "ns/op", "workload.next_ns")
	add(lower, "allocs/op", "workload.next_allocs")
	add(lower, "ns/op", "metrics.record_query_ns", "metrics.record_message_ns")
	add(lower, "ms", "metrics.snapshot_ms_500k", "model.interner_build_ms")

	add(lower, "ratio", "runtime.gc_cpu_frac")
	add(lower, "count", "runtime.gc_cycles")
	add(lower, "ms", "runtime.gc_pause_ms")

	for _, l := range cpuLayers {
		add(lower, "ratio", "cpu_share."+l)
	}
	add(higher, "count", "cpu_share.samples")

	add(lower, "count", "trace.events", "trace.dropped")
	add(lower, "ratio", "trace.overhead_frac", "trace.profile_overhead_frac")

	// The paper's Fig. 7 and Fig. 8 quantities: exact per seed, gated by
	// -compare between reports of one seed.
	for _, n := range []string{"harness.sim_lookup_mean_ms", "harness.sim_lookup_p99_ms", "harness.sim_transfer_mean_ms"} {
		out = append(out, spec{Name: n, Unit: "sim_ms", Better: lower, SameSeed: 0.02})
	}
	add(lower, "ratio", "harness.paper_hit_ratio_err", "harness.paper_bps_rel_err")
	add(lower, "ns", "host.calibration_ns")
	return out
}
