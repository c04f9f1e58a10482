package main

// metricDef describes one reported metric.  The tables below are the
// benchmark's own record of what BENCHMARK.json at the repository root
// declares (metrics_test.go keeps the two in step); the steadiness command
// reads its bounds from here.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; zero for
	// per-layer metrics, which carry no bound.
	bound float64
}

// endToEnd are the metrics a user of the flow or the service sees, printed
// by every untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_p50_s", "s", "lower", 0.25},
	{"job_p90_s", "s", "lower", 0.25},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"skew_ps", "ps", "lower", 0.25},
	{"wire_mm", "mm", "lower", 0.1},
	{"buffers", "count", "lower", 0.1},
	{"sim_skew_ps", "ps", "lower", 0.25},
	{"sim_slew_ps", "ps", "lower", 0.1},
	{"model_error_ps", "ps", "lower", 0.25},
}

// perLayer are the single-layer metrics printed by every traced run; a
// layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"charlib.characterize_s", "s", "lower", 0},
	{"topology.pair_s", "s", "lower", 0},
	{"topology.levels", "count", "lower", 0},
	{"mergeroute.route_s", "s", "lower", 0},
	{"mergeroute.level1_s", "s", "lower", 0},
	{"mergeroute.merges", "count", "lower", 0},
	{"mergeroute.cpu_per_wall", "ratio", "higher", 0},
	{"mergeroute.scratch_allocs", "count", "lower", 0},
	{"cts.reused_merges", "count", "higher", 0},
	{"cts.recomputed_merges", "count", "lower", 0},
	{"cts.reuse_ratio", "ratio", "higher", 0},
	{"clocktree.buffering_s", "s", "lower", 0},
	{"clocktree.timing_s", "s", "lower", 0},
	{"clocktree.netlist_s", "s", "lower", 0},
	{"spice.verify_s", "s", "lower", 0},
	{"spice.simulate_s", "s", "lower", 0},
	{"spice.stages", "count", "lower", 0},
	{"spice.netlist_elements", "count", "lower", 0},
	{"ctsserver.submit_s", "s", "lower", 0},
	{"ctsserver.queue_wait_s", "s", "lower", 0},
	{"ctsserver.run_s", "s", "lower", 0},
	{"ctsserver.overhead_s", "s", "lower", 0},
	{"ctsserver.result_bytes", "bytes", "lower", 0},
	{"ctsserver.result_cache_hits", "count", "higher", 0},
	{"ctsserver.result_cache_misses", "count", "lower", 0},
	{"subtreecache.hits", "count", "higher", 0},
	{"subtreecache.misses", "count", "lower", 0},
	{"subtreecache.evictions", "count", "lower", 0},
	{"gateway.hop_s", "s", "lower", 0},
	{"gateway.rerouted", "count", "lower", 0},
	{"peer.requests", "count", "lower", 0},
	{"peer.misses", "count", "lower", 0},
	{"peer.request_s", "s", "lower", 0},
	{"go.alloc_bytes_per_job", "bytes", "lower", 0},
	{"go.gc_cycles_per_job", "count", "lower", 0},
	{"go.cpu_s_per_job", "s", "lower", 0},
	{"trace.job_p50_s", "s", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}

// workloadDef names a workload and why it is in the benchmark.
type workloadDef struct {
	name string
	why  string
	run  func(*runCtx) error
}

// workloads are the benchmark's workloads, in their default order.
var workloads = []workloadDef{
	{"verify_r4", "closed loop of verified r4-sized Flow.Run jobs: transient verification is about two thirds of each job", runVerifyR4},
	{"synth_10k", "closed loop of unverified 10k-sink flows at parallelism nproc: merge-routing is nearly all of each job, verify bypassed", runSynth10k},
	{"eco_10k", "closed loop of 0.1% move/add/drop ECOs on a 10k base through the gateway: incremental path, re-timing, peer hops", runEco10k},
	{"service_mix", "small mixed-priority jobs with 25% exact repeats through the gateway, open then closed loop: per-job service path", runServiceMix},
}
