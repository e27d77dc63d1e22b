package main

// metricDef describes one reported metric. End-to-end metrics carry a
// regression bound; per-layer metrics name the layer they measure, the
// end-to-end metric a change to that layer should move, and the workloads
// where the layer does most and least of its work.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	Layer  string  // per-layer only
	From   string  // per-layer only: the workloads that report it, if not all of them
	Moves  string  // per-layer only: end-to-end metric(s) it should move
	Heavy  string  // per-layer only: workloads where the layer does most of its work
	Light  string  // per-layer only: workloads where the prediction is no change
	Exact  bool    // a deterministic count: the same seed must repeat it exactly
	Doc    string
}

// workloadDef describes one workload: why it is in the benchmark and what
// its seed draws.
type workloadDef struct {
	Name  string
	Why   string
	Draws string
	Op    string // what one operation is, for ops_per_s and op_*_ms
	// Unlisted, when set, says why the workload is left out of
	// BENCHMARK.json; it still runs by name and under --all.
	Unlisted string
	run      func(*bench) error
}

var workloads = []workloadDef{
	{
		Name:  "suite-instr",
		Why:   "SpecAccel under instrcount beside a native pass: host time is almost all instrumented gpu execution, JIT well under 1%; the Fig. 8 slowdown and simulator hot path show here",
		Draws: "the order of the fifteen SpecAccel benchmarks (small size) in every pass",
		Op:    "one instrumented kernel launch; ops_per_s is launches per host second of a pass's instrumented runs, median over passes",
		run:   runSuite,
	},
	{
		Name:  "jit-churn",
		Why:   "400 unique generated kernels each loaded and launched once, cold then warm disk cache: ptx, sass, core and jitcache do about two thirds of the work (Fig. 5 analog)",
		Draws: "the kernels: segment mix, body sizes, tap offsets, loop trips and a unique tag immediate per kernel",
		Op:    "one kernel brought through module load and first instrumented launch in a cold pass (ops_per_s = jit_cold_kps, median over rounds; op_*_ms = first_launch_*_ms)",
		Unlisted: "its timings swing with the host: on a shared 2-CPU host five of six sweeps (five or ten seeds each) had a metric whose spread " +
			"(IQR/median) was 0.27-1.0, above its 0.25 bound",
		run: runChurn,
	},
	{
		Name:  "daemon-mix",
		Why:   "two closed-loop clients of an in-process nvbitd (one device, shared disk cache) running tool sessions: daemon framing, gate fair share, cache sharing and session lifecycle",
		Draws: "each client's session order per round over the eleven registry tool names except faultinject (ostencil at small size, modes alternating per tool)",
		Op:    "one open -> ostencil run -> report -> close session (ops_per_s = sessions_ok_per_s, median over rounds; op_*_ms = session_*_ms over completed sessions)",
		Unlisted: "its output check fails on the current program: sessions leak device code space and memory (most sessions fail with " +
			"out-of-code-space or out-of-device-memory), and instrcount and memdiv read counters from recycled, unzeroed device " +
			"memory, so completed sessions report stale counts; it reports correct=false until those are fixed",
		run: runDaemon,
	},
	{
		Name:  "fi-campaign",
		Why:   "NVBitFI-style campaigns with two workers: the only workload for the campaign layer and for per-run device construction",
		Draws: "the campaign manifest seed (injection targets, models and bits) over the ostencil victim at small size, group gpr, model mix",
		Op:    "one round of four injection runs, two on each worker, i.e. one Campaign.Run call with maxRuns = 2 x workers (ops_per_s = fi_runs_per_s counts runs, median over campaigns)",
		run:   runCampaign,
	},
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median over nine repetitions of the wall time before the first timed operation: input generation, device construction, attach, daemon start and references, campaign plan"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15,
		Doc: "peak resident memory of the benchmark process, sampled every 10 ms: median over operations (suite-instr benchmark runs, jit-churn device batches, daemon rounds, campaigns) of each one's peak"},
	{Name: "app_mwips", Unit: "M/s", Better: "higher", Bound: 0.25,
		Doc: "the application's native warp instructions, fixed per draw, divided by host seconds of the instrumented work that ran them, median over rounds"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "completed operations per second of the phase that performs them, median over rounds; see each workload's Op"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "median latency of a completed operation"},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "latency at the highest of p95/p90/p75/p50 with at least ten completed operations beyond it (p95 in every workload); the record states which and the count"},
}

var perLayer = []metricDef{
	// gpu
	{Name: "gpu.exec_mwips", Unit: "M/s", Better: "higher", Layer: "gpu", Moves: "app_mwips, ops_per_s", Heavy: "suite-instr, fi-campaign", Light: "jit-churn",
		Doc: "warp instructions per host second inside non-first LaunchKernel calls"},
	{Name: "gpu.allocs_per_launch", Unit: "count", Better: "lower", Layer: "gpu", Moves: "app_mwips, peak_rss_mb", Heavy: "suite-instr, fi-campaign", Light: "jit-churn",
		Doc: "heap allocations per non-first launch"},
	{Name: "gpu.alloc_kb_per_launch", Unit: "KiB", Better: "lower", Layer: "gpu", Moves: "app_mwips, peak_rss_mb", Heavy: "suite-instr, fi-campaign", Light: "jit-churn",
		Doc: "heap bytes allocated per non-first launch"},
	{Name: "gpu.device_new_ms", Unit: "ms", Better: "lower", Layer: "gpu", Moves: "setup_s, ops_per_s (fi-campaign), peak_rss_mb", Heavy: "fi-campaign", Light: "daemon-mix",
		Doc: "median gpusim.New time"},
	{Name: "gpu.warp_instrs_instr", Unit: "count", Better: "lower", Layer: "gpu", Moves: "gpu.slowdown_x", Heavy: "suite-instr", Exact: true,
		Doc: "warp instructions of one instrumented pass over the draw"},
	{Name: "gpu.warp_instrs_native", Unit: "count", Better: "lower", Layer: "gpu", Moves: "app_mwips numerator (fixed per draw)", Heavy: "suite-instr", Exact: true,
		Doc: "warp instructions of one native pass over the draw"},
	{Name: "gpu.cycles_instr", Unit: "count", Better: "lower", Layer: "gpu", Moves: "gpu.slowdown_x", Heavy: "suite-instr", Exact: true,
		Doc: "simulated cycles of one instrumented pass"},
	{Name: "gpu.cycles_native", Unit: "count", Better: "lower", Layer: "gpu", Moves: "gpu.slowdown_x", Heavy: "suite-instr", Exact: true,
		Doc: "simulated cycles of one native pass"},
	{Name: "gpu.slowdown_x", Unit: "x", Better: "lower", Layer: "gpu", Moves: "none: a result of the unvalidated timing model (paper Fig. 8: 36.4x), compare by shape only", Heavy: "suite-instr", Exact: true,
		Doc: "simulated cycles instrumented / native"},
	{Name: "gpu.l1_hit_pct", Unit: "%", Better: "higher", Layer: "gpu", Moves: "gpu.cycles_instr", Heavy: "suite-instr", Exact: true,
		Doc: "L1 hit rate of one instrumented pass"},
	{Name: "gpu.l2_hit_pct", Unit: "%", Better: "higher", Layer: "gpu", Moves: "gpu.cycles_instr", Heavy: "suite-instr", Exact: true,
		Doc: "L2 hit rate of one instrumented pass"},
	// driver
	{Name: "driver.module_load_ms", Unit: "ms", Better: "lower", Layer: "driver", Moves: "ops_per_s and op_*_ms (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "median ModuleLoadPTX time (includes the PTX compile)"},
	{Name: "driver.first_launch_ms", Unit: "ms", Better: "lower", Layer: "driver", Moves: "ops_per_s and op_*_ms (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "median first-launch time (includes instrumentation)"},
	{Name: "driver.gate_cycles_per_session", Unit: "count", Better: "lower", Layer: "driver", From: "daemon-mix", Moves: "op_tail_ms (daemon-mix)", Heavy: "daemon-mix",
		Doc: "mean device cycles the gate charged per completed session"},
	{Name: "driver.shed_sessions", Unit: "count", Better: "lower", Layer: "driver", From: "daemon-mix", Moves: "ops_per_s (daemon-mix), failed", Heavy: "daemon-mix",
		Doc: "sessions refused by load shedding"},
	// ptx
	{Name: "ptx.compile_us_per_kernel", Unit: "us", Better: "lower", Layer: "ptx", Moves: "ops_per_s (jit-churn, cold and warm: warm runs still compile PTX)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "ptx.Compile time per entry, timed by direct calls on every module the workload loaded"},
	{Name: "ptx.sass_instrs_per_kernel", Unit: "count", Better: "lower", Layer: "ptx", Moves: "ops_per_s (jit-churn)", Heavy: "jit-churn", Light: "suite-instr", Exact: true,
		Doc: "SASS instructions per compiled entry"},
	// sass
	{Name: "sass.decode_ns_per_instr", Unit: "ns", Better: "lower", Layer: "sass", Moves: "ops_per_s (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "Codec.DecodeAll time per instruction, timed by direct calls"},
	{Name: "sass.cfg_us_per_func", Unit: "us", Better: "lower", Layer: "sass", Moves: "ops_per_s (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "sass.BasicBlocks time per function, timed by direct calls"},
	{Name: "sass.liveness_us_per_func", Unit: "us", Better: "lower", Layer: "sass", Moves: "ops_per_s (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "sass.AnalyzeLiveness time per function, timed by direct calls"},
	// core
	{Name: "core.disasm_us_per_func", Unit: "us", Better: "lower", Layer: "core", Moves: "ops_per_s, op_*_ms (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "JITStats disassemble time per lifted function, cold JIT only"},
	{Name: "core.convert_us_per_func", Unit: "us", Better: "lower", Layer: "core", Moves: "ops_per_s, op_*_ms (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "JITStats convert time per lifted function"},
	{Name: "core.usercode_us_per_func", Unit: "us", Better: "lower", Layer: "core", Moves: "ops_per_s, op_*_ms (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "JITStats tool-callback (user code) time per lifted function"},
	{Name: "core.codegen_us_per_site", Unit: "us", Better: "lower", Layer: "core", Moves: "ops_per_s, op_*_ms (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "JITStats codegen time per freshly generated site"},
	{Name: "core.swap_us_per_func", Unit: "us", Better: "lower", Layer: "core", Moves: "ops_per_s, op_*_ms (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "JITStats swap time per lifted function"},
	{Name: "core.jit_ms_per_func", Unit: "ms", Better: "lower", Layer: "core", Moves: "ops_per_s, op_*_ms (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "JITStats total JIT time per lifted function, cold JIT only"},
	{Name: "core.overhead_per_site_visit", Unit: "count", Better: "lower", Layer: "core", Moves: "gpu.slowdown_x, app_mwips", Heavy: "suite-instr", Light: "jit-churn", Exact: true,
		Doc: "(instrumented - native warp instructions) / native: instrcount makes every instruction a site"},
	{Name: "core.words_per_site", Unit: "count", Better: "lower", Layer: "core", Moves: "gpu.slowdown_x, app_mwips", Heavy: "suite-instr", Light: "jit-churn", Exact: true,
		Doc: "emitted trampoline plus inline instruction words per site"},
	{Name: "core.avg_saved_regs", Unit: "count", Better: "lower", Layer: "core", Moves: "gpu.slowdown_x, app_mwips", Heavy: "suite-instr", Light: "jit-churn", Exact: true,
		Doc: "JITStats mean save-set size per trampoline"},
	{Name: "core.inline_pct", Unit: "%", Better: "higher", Layer: "core", Moves: "gpu.slowdown_x, app_mwips", Heavy: "suite-instr", Light: "jit-churn", Exact: true,
		Doc: "sites injected inline / all sites"},
	// jitcache
	{Name: "jitcache.hit_pct", Unit: "%", Better: "higher", Layer: "jitcache", From: "jit-churn", Moves: "ops_per_s (warm share of app_mwips, jit-churn)", Heavy: "jit-churn", Light: "suite-instr, fi-campaign", Exact: true,
		Doc: "warm-pass cache hits / lookups; must be 100"},
	{Name: "jitcache.lookup_us", Unit: "us", Better: "lower", Layer: "jitcache", From: "jit-churn", Moves: "ops_per_s, op_*_ms (jit-churn)", Heavy: "jit-churn", Light: "suite-instr, fi-campaign",
		Doc: "JITStats cache-lookup time per lookup"},
	{Name: "jitcache.hit_us", Unit: "us", Better: "lower", Layer: "jitcache", From: "jit-churn", Moves: "app_mwips (jit-churn warm passes), op_p50_ms (daemon-mix)", Heavy: "jit-churn, daemon-mix", Light: "suite-instr, fi-campaign",
		Doc: "JITStats cache-hit materialization time per hit"},
	{Name: "jitcache.bytes_written", Unit: "B", Better: "lower", Layer: "jitcache", From: "jit-churn", Moves: "ops_per_s (jit-churn cold)", Heavy: "jit-churn", Light: "suite-instr, fi-campaign", Exact: true,
		Doc: "artifact bytes stored by one cold pass"},
	{Name: "jitcache.bytes_read", Unit: "B", Better: "lower", Layer: "jitcache", From: "jit-churn", Moves: "app_mwips (jit-churn warm)", Heavy: "jit-churn", Light: "suite-instr, fi-campaign", Exact: true,
		Doc: "artifact bytes served by one warm pass"},
	{Name: "jitcache.objects_on_disk", Unit: "count", Better: "lower", Layer: "jitcache", From: "jit-churn, daemon-mix", Moves: "jitcache.bytes_written", Heavy: "jit-churn, daemon-mix", Light: "suite-instr, fi-campaign",
		Doc: "cache objects on disk after one cold pass or one daemon round"},
	// nvbitd
	{Name: "nvbitd.open_ms", Unit: "ms", Better: "lower", Layer: "nvbitd", From: "daemon-mix", Moves: "op_p50_ms, ops_per_s (daemon-mix)", Heavy: "daemon-mix",
		Doc: "client-side median of nvbitd.Dial"},
	{Name: "nvbitd.loadptx_ms", Unit: "ms", Better: "lower", Layer: "nvbitd", From: "daemon-mix", Moves: "op_p50_ms (daemon-mix)", Heavy: "daemon-mix",
		Doc: "client-side median of RemoteSession.ModuleLoadPTX"},
	{Name: "nvbitd.launch_ms", Unit: "ms", Better: "lower", Layer: "nvbitd", From: "daemon-mix", Moves: "op_p50_ms, op_tail_ms (daemon-mix)", Heavy: "daemon-mix",
		Doc: "client-side median of RemoteSession.LaunchKernel"},
	{Name: "nvbitd.report_ms", Unit: "ms", Better: "lower", Layer: "nvbitd", From: "daemon-mix", Moves: "op_p50_ms (daemon-mix)", Heavy: "daemon-mix",
		Doc: "client-side median of RemoteSession.Report"},
	{Name: "nvbitd.close_ms", Unit: "ms", Better: "lower", Layer: "nvbitd", From: "daemon-mix", Moves: "op_p50_ms (daemon-mix)", Heavy: "daemon-mix",
		Doc: "client-side median of RemoteSession.Close"},
	{Name: "nvbitd.rpcs_per_session", Unit: "count", Better: "lower", Layer: "nvbitd", From: "daemon-mix", Moves: "op_p50_ms (daemon-mix)", Heavy: "daemon-mix",
		Doc: "requests per completed session, open and close included"},
	// failures by cause, counted against the attempted operations
	{Name: "fail.oom", Unit: "count", Better: "lower", Layer: "driver", Moves: "failed, ops_per_s", Heavy: "daemon-mix",
		Doc: "operations failed on out-of-device-memory"},
	{Name: "fail.codespace", Unit: "count", Better: "lower", Layer: "gpu", Moves: "failed, ops_per_s", Heavy: "daemon-mix, jit-churn",
		Doc: "operations failed on out-of-code-space"},
	{Name: "fail.overload", Unit: "count", Better: "lower", Layer: "driver", Moves: "failed, ops_per_s", Heavy: "daemon-mix",
		Doc: "operations refused by load shedding"},
	{Name: "fail.fault", Unit: "count", Better: "lower", Layer: "gpu", Moves: "failed", Heavy: "suite-instr, jit-churn",
		Doc: "operations failed on a device fault or tool-callback error"},
	{Name: "fail.mismatch", Unit: "count", Better: "lower", Layer: "core", Moves: "correct", Heavy: "all",
		Doc: "operations whose output check failed"},
	{Name: "fail.other", Unit: "count", Better: "lower", Layer: "driver", Moves: "failed", Heavy: "all",
		Doc: "operations failed for any other reason"},
	// channel
	{Name: "channel.flushes_per_session", Unit: "count", Better: "lower", Layer: "channel", From: "daemon-mix", Moves: "op_tail_ms (daemon-mix)", Heavy: "daemon-mix", Light: "suite-instr",
		Doc: "channel flushes per completed memtrace session, from its report"},
	{Name: "channel.bytes_per_session", Unit: "B", Better: "lower", Layer: "channel", From: "daemon-mix", Moves: "op_tail_ms (daemon-mix)", Heavy: "daemon-mix", Light: "suite-instr",
		Doc: "channel bytes shipped per completed memtrace session, from its report"},
	{Name: "channel.dropped_per_session", Unit: "count", Better: "lower", Layer: "channel", From: "daemon-mix", Moves: "op_tail_ms (daemon-mix)", Heavy: "daemon-mix", Light: "suite-instr",
		Doc: "records dropped per completed memtrace, cachesim or itrace session, from its report"},
	// campaign
	{Name: "campaign.plan_s", Unit: "s", Better: "lower", Layer: "campaign", Moves: "setup_s (fi-campaign)", Heavy: "fi-campaign",
		Doc: "median campaign.Open time on a fresh directory (golden and profile passes, manifest draw)"},
	{Name: "campaign.report_ms", Unit: "ms", Better: "lower", Layer: "campaign", Moves: "none (outside the timed runs)", Heavy: "fi-campaign",
		Doc: "median Campaign.Report time"},
	{Name: "campaign.masked", Unit: "count", Better: "higher", Layer: "campaign", Moves: "none: fixed by the seed, any change is a bug", Heavy: "fi-campaign", Exact: true,
		Doc: "masked runs of one campaign"},
	{Name: "campaign.sdc", Unit: "count", Better: "lower", Layer: "campaign", Moves: "none: fixed by the seed, any change is a bug", Heavy: "fi-campaign", Exact: true,
		Doc: "silent-data-corruption runs of one campaign"},
	{Name: "campaign.due", Unit: "count", Better: "lower", Layer: "campaign", Moves: "none: fixed by the seed, any change is a bug", Heavy: "fi-campaign", Exact: true,
		Doc: "detected-unrecoverable-error runs of one campaign"},
	// profile
	{Name: "profile.tracing_overhead_pct", Unit: "%", Better: "lower", Layer: "profile", Moves: "none: the untraced path must stay free", Heavy: "all",
		Doc: "traced / untraced operation time of matched passes in the traced run, minus one"},
	// self time per layer
	{Name: "driver.self_pct", Unit: "%", Better: "lower", Layer: "driver", Moves: "ops_per_s", Heavy: "jit-churn",
		Doc: "driver self time (span minus children) / traced operation time"},
	{Name: "gpu.self_pct", Unit: "%", Better: "lower", Layer: "gpu", Moves: "app_mwips", Heavy: "suite-instr", Light: "jit-churn",
		Doc: "gpu self time / traced operation time"},
	{Name: "core.self_pct", Unit: "%", Better: "lower", Layer: "core", Moves: "ops_per_s (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "core self time / traced operation time"},
	{Name: "jitcache.self_pct", Unit: "%", Better: "lower", Layer: "jitcache", From: "jit-churn, daemon-mix", Moves: "ops_per_s (jit-churn)", Heavy: "jit-churn", Light: "suite-instr",
		Doc: "jitcache self time / traced operation time"},
	{Name: "channel.self_pct", Unit: "%", Better: "lower", Layer: "channel", From: "daemon-mix", Moves: "op_tail_ms (daemon-mix)", Heavy: "daemon-mix", Light: "suite-instr",
		Doc: "channel self time / traced operation time"},
	{Name: "nvbitd.self_pct", Unit: "%", Better: "lower", Layer: "nvbitd", From: "daemon-mix", Moves: "op_p50_ms (daemon-mix)", Heavy: "daemon-mix",
		Doc: "client-observed daemon time / traced session time"},
	{Name: "campaign.self_pct", Unit: "%", Better: "lower", Layer: "campaign", Moves: "ops_per_s (fi-campaign)", Heavy: "fi-campaign",
		Doc: "campaign self time / traced operation time"},
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"driver", "gpu", "core", "jitcache", "channel", "nvbitd", "campaign"}
