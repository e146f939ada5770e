package main

// metricDef names a metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, on every workload; a
// layer a workload never enters reads 0 there.
var perLayer = []metricDef{
	// figures
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"netsim.packet_hops", "count"},
	{"netsim.delivered", "count"},
	{"netsim.drops", "count"},
	{"cluster.run_s.scda", "s"},
	{"cluster.run_s.randtcp", "s"},
	{"cluster.build_s", "s"},
	{"experiments.reduce_s", "s"},
	{"cluster.completed", "count"},
	{"ratealloc.violations", "count"},
	{"cluster.mean_fct_s.scda", "s"},
	{"cluster.mean_fct_s.randtcp", "s"},
	// fluid
	{"flowsim.arrivals", "count"},
	{"flowsim.completions", "count"},
	{"flowsim.peak_active", "count"},
	{"flowsim.run_s", "s"},
	{"flowsim.us_per_event", "us"},
	{"workload.generate_s", "s"},
	{"workload.map_s", "s"},
	{"scenario.assemble_s", "s"},
	{"fluid.ramp_s", "s"},
	{"fluid.churn_s", "s"},
	// serve
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.group_p50_ms", "ms"},
	{"serve.jobs_per_s", "1/s"},
	{"serve.hits", "count"},
	{"serve.misses", "count"},
	{"serve.groups", "count"},
	{"service.hit_local_p50_ms", "ms"},
	{"ring.hit_forwarded_p50_ms", "ms"},
	{"service.miss_local_p50_ms", "ms"},
	{"ring.miss_forwarded_p50_ms", "ms"},
	{"service.miss_tail_ms", "ms"},
	{"service.group_tail_ms", "ms"},
	{"scenario.run_ms", "ms"},
	{"scenario.parse_hash_us", "us"},
	{"service.cache_hits", "count"},
	{"service.cache_misses", "count"},
	{"ring.forwards", "count"},
	{"service.disk_cache_bytes", "bytes"},
	// CPU self time per layer, from the traced pass's profile
	{"cpu.sim_s", "s"},
	{"cpu.netsim_s", "s"},
	{"cpu.topology_s", "s"},
	{"cpu.transport_s", "s"},
	{"cpu.ratealloc_s", "s"},
	{"cpu.cluster_s", "s"},
	{"cpu.stats_s", "s"},
	{"cpu.flowsim_s", "s"},
	{"cpu.workload_s", "s"},
	{"cpu.scenario_s", "s"},
	{"cpu.service_s", "s"},
	{"cpu.ring_s", "s"},
	{"cpu.runner_s", "s"},
	{"cpu.nethttp_s", "s"},
	{"cpu.json_s", "s"},
	{"cpu.syscall_s", "s"},
	{"cpu.runtime_s", "s"},
	{"cpu.other_s", "s"},
	{"cpu.total_s", "s"},
	// the traced run's own end-to-end figures, for the tracing overhead
	{"traced.setup_s", "s"},
	{"traced.pass_s", "s"},
	{"traced.pass_cpu_s", "s"},
}
