// Package harness is the crowperf benchmark: it builds crowbench, crowsim
// and crowserve from the checkout it runs in, drives them the way their users
// do, checks their outputs, and measures. End-to-end numbers come from the
// real binaries; a separate traced run in the harness process times calls
// into each layer's public functions and buckets a CPU profile by package.
//
// The metric and workload names in this file are the benchmark's contract
// with BENCHMARK.json; the self-test holds the two lists identical.
package harness

// Metric describes one reported number.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: tolerated worsening as a share of the median
}

// EndToEnd lists the metrics every workload reports from its untraced run.
//
// On the four simulator workloads wall_s is exec-to-exit of the command (the
// lower quartile over a run's repetitions, see calmWall) and sim_minst_per_s
// the workload's instruction budget over it; on serve-open wall_s is the
// lower-quartile latency of a cold job (due time to the server's finished
// stamp) and sim_minst_per_s that job's budget over it. wall_s and setup_s
// are divided by the host's slowdown during the run (hostref.go). Every bound
// is the most the driver allows: on the shared 2-vCPU reference host the
// scaled times of ten runs spread 3 to 9 % in most sets and 18 % in the worst
// (the README has the tables).
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_minst_per_s", Unit: "Minst/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// PerLayer lists the metrics every workload reports from its traced run. A
// metric reads 0 on a workload that does not pass through the path it
// measures (service.* on the simulator workloads, exp.* outside repro).
var PerLayer = []Metric{
	{Name: "trace.next_ns", Unit: "ns/op", Better: "lower"},
	{Name: "trace.records", Unit: "count", Better: "lower"},
	{Name: "trace.self_share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.tick_ns", Unit: "ns/op", Better: "lower"},
	{Name: "cpu.self_share", Unit: "ratio", Better: "lower"},
	{Name: "cache.access_ns", Unit: "ns/op", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.reject_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cache.self_share", Unit: "ratio", Better: "lower"},
	{Name: "ctrl.req_ns", Unit: "ns/op", Better: "lower"},
	{Name: "ctrl.tick_ns", Unit: "ns/op", Better: "lower"},
	{Name: "ctrl.idle_tick_ns", Unit: "ns/op", Better: "lower"},
	{Name: "ctrl.enqueue_reject_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ctrl.row_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ctrl.self_share", Unit: "ratio", Better: "lower"},
	{Name: "dram.cmd_ns", Unit: "ns/op", Better: "lower"},
	{Name: "dram.commands", Unit: "count", Better: "lower"},
	{Name: "dram.self_share", Unit: "ratio", Better: "lower"},
	{Name: "core.table_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.self_share", Unit: "ratio", Better: "lower"},
	{Name: "oracle.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "oracle.cmd_ns_added", Unit: "ns/op", Better: "lower"},
	{Name: "oracle.violations", Unit: "count", Better: "lower"},
	{Name: "oracle.self_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.setup_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.setup_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.run_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.host_ns_per_cpu_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.self_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.other_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.runtime_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.ws_speedup_pct", Unit: "%", Better: "higher"},
	{Name: "sim.energy_saved_pct", Unit: "%", Better: "higher"},
	{Name: "crow.key_ns", Unit: "ns/op", Better: "lower"},
	{Name: "crow.decode_ns", Unit: "ns/op", Better: "lower"},
	{Name: "engine.memo_hit_ns", Unit: "ns/op", Better: "lower"},
	{Name: "engine.miss_overhead_ns", Unit: "ns/op", Better: "lower"},
	{Name: "engine.executions", Unit: "count", Better: "lower"},
	{Name: "engine.memo_hits", Unit: "count", Better: "higher"},
	{Name: "engine.store_hits", Unit: "count", Better: "higher"},
	{Name: "engine.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.get_us", Unit: "us", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.entry_bytes", Unit: "B", Better: "lower"},
	{Name: "exp.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "exp.planned_runs", Unit: "count", Better: "lower"},
	{Name: "exp.distinct_runs", Unit: "count", Better: "lower"},
	{Name: "exp.execute_s", Unit: "s", Better: "lower"},
	{Name: "exp.reduce_ms", Unit: "ms", Better: "lower"},
	{Name: "exp.slowest_run_s", Unit: "s", Better: "lower"},
	{Name: "exp.worker_busy_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exp.paper_gap_pp", Unit: "pp", Better: "lower"},
	{Name: "service.submit_us", Unit: "us", Better: "lower"},
	{Name: "service.status_us", Unit: "us", Better: "lower"},
	{Name: "service.job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.job_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "service.job_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.over_limit_share", Unit: "ratio", Better: "lower"},
	{Name: "service.cold_job_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cold_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.warm_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.warm_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.store_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.closed_jobs_per_s", Unit: "jobs/s", Better: "higher"},
	{Name: "service.stage_http_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stage_queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stage_queue_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stage_memo_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stage_store_read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stage_execute_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.stage_store_write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "service.cpu_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "service.inproc_submit_done_us", Unit: "us", Better: "lower"},
	{Name: "service.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cmd.start_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// Workload names one set of inputs. Later issues refer to these names.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workload names.
const (
	Repro     = "repro"
	MemBound  = "mem-bound"
	CPUBound  = "cpu-bound"
	Verified  = "verified"
	ServeOpen = "serve-open"
)

// Workloads lists the five workloads in the order a full run executes them.
var Workloads = []Workload{
	{Repro, "crowbench -exp all at QuickScale, -j nproc: hundreds of short runs, so construction, engine memo and exp plan/reduce show; tables must equal the goldens at seed 1"},
	{MemBound, "crowsim crow-cache+ref -compare on an HHHH mix at 64 Gbit: queues stay full, ctrl+dram+core do most of the work, cpu and cache almost none"},
	{CPUBound, "same command on an LLLL mix (MPKI below 1): the bypass for memory-system optimisations, where cpu.Tick and empty-queue controller ticks dominate"},
	{Verified, "mem-bound's mechanism run with the oracle attached: the only place an oracle optimisation shows; Violations must be 0"},
	{ServeOpen, "crowserve under Poisson arrivals at 100 jobs/s then a closed loop, 80% memo-warm / 10% store-warm / 10% cold keys: HTTP, queue, workers, memo, store and execute end to end"},
}

// Sizes holds every workload size. Full is what BENCHMARK.json runs; Smoke
// is the self-test's.
type Sizes struct {
	ReproExp   string // crowbench -exp selection
	ReproInsts int64
	ReproApps  string
	MemInsts   int64 // mem-bound and verified
	CPUInsts   int64

	ServeInsts   int64
	ServeRate    float64 // phase-A arrivals per second
	ServeOpenPct int     // share of --seconds spent in the open-loop phase
	ServeLimitMS float64 // latency limit on a job
	ServeWarm    int     // memo-warm keys executed in set-up
	ServeMaxB    int     // cap on closed-loop jobs (bounds the store pre-population)

	SetupReps   int   // set-up repetitions; setup_s is their median
	LadderInsts int64 // per-app instruction budget of the layer ladder

	HostRefTicks int // host-speed reference: ticks of the bank-queue scan
	HostRefOps   int // and operations of the map churn, per sample
}

// FullSizes are the sizes the committed benchmark runs. One repetition of a
// crowsim workload takes 1 to 2 s on the reference host, so a 16 s run has
// five to fourteen to take a quartile of; repro is one repetition of 14 to 21 s
// because the goldens fix its scale.
func FullSizes() Sizes {
	return Sizes{
		ReproExp:   "all",
		ReproInsts: 60_000,
		ReproApps:  "mcf,lbm,soplex,omnetpp,zeusmp,gcc",
		MemInsts:   150_000,
		CPUInsts:   3_600_000,

		ServeInsts:   60_000,
		ServeRate:    100,
		ServeOpenPct: 80,
		ServeLimitMS: 250,
		ServeWarm:    16,
		ServeMaxB:    1600,

		SetupReps:   3,
		LadderInsts: 200_000,

		HostRefTicks: hostRefNominalTicks,
		HostRefOps:   hostRefNominalOps,
	}
}

// SmokeSizes shrink everything so the five workloads, traced and untraced,
// fit a unit test.
func SmokeSizes() Sizes {
	return Sizes{
		ReproExp:   "table1,fig8",
		ReproInsts: 2_000,
		ReproApps:  "mcf",
		MemInsts:   4_000,
		CPUInsts:   40_000,

		ServeInsts:   2_000,
		ServeRate:    100,
		ServeOpenPct: 50,
		ServeLimitMS: 250,
		ServeWarm:    4,
		ServeMaxB:    300,

		SetupReps:   1,
		LadderInsts: 5_000,

		HostRefTicks: 2_000,
		HostRefOps:   10_000,
	}
}

// Mixes of the crowsim workloads.
var (
	memMix = []string{"mcf", "lbm", "omnetpp", "stream-copy"}
	cpuMix = []string{"povray", "gcc", "h264-enc", "jp2-dec"}
)
