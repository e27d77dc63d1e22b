// Package main_test holds the benchmark harness: framework microbenchmarks
// (JIT phases, JIT cache, disassembler, simulator, launch, channel) and the
// ablations called out in DESIGN.md (save-set sizing, basic-block counting,
// tool overheads). Run with:
//
//	go test -bench=. -benchmem
//
// Paper figures are not benchmarked here: internal/experiments tests each
// figure's rows and bounds, and cmd/experiments regenerates the figures.
package main_test

import (
	"fmt"
	"testing"

	"nvbitgo/gpusim"
	"nvbitgo/internal/core"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/tools/memdiv"
	"nvbitgo/internal/tools/memtrace"
	"nvbitgo/internal/tools/ophisto"
	"nvbitgo/internal/workloads/mlsuite"
	"nvbitgo/nvbit"
)

// --- framework microbenchmarks --------------------------------------------------

const benchKernelPTX = `
.visible .entry bench(.param .u64 data, .param .u32 n)
{
	.reg .u32 %r<10>;
	.reg .u64 %rd<4>;
	.reg .pred %p<2>;
	mov.u32 %r0, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mov.u32 %r2, %tid.x;
	mad.lo.u32 %r3, %r0, %r1, %r2;
	ld.param.u32 %r4, [n];
	setp.ge.u32 %p0, %r3, %r4;
	@%p0 exit;
	ld.param.u64 %rd0, [data];
	mul.wide.u32 %rd2, %r3, 4;
	add.u64 %rd0, %rd0, %rd2;
	ld.global.u32 %r5, [%rd0];
	mov.u32 %r6, 16;
LOOP:
	mad.lo.u32 %r5, %r5, %r3, %r6;
	sub.u32 %r6, %r6, 1;
	setp.gt.u32 %p0, %r6, 0;
	@%p0 bra LOOP;
	st.global.u32 [%rd0], %r5;
	exit;
}
`

// BenchmarkLifter measures phases 1-3 of the JIT pipeline: retrieving,
// disassembling and converting one kernel's code. Each iteration loads a
// fresh module (lifting is cached per function), so the device gets a large
// Volta code space to keep b.N unconstrained.
func BenchmarkLifter(b *testing.B) {
	cfg := gpusim.DefaultConfig(gpusim.Volta)
	cfg.CodeBytes = 64 << 20
	api, err := gpusim.NewWithConfig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tool := instrcount.New()
	nv, err := nvbit.Attach(api, tool)
	if err != nil {
		b.Fatal(err)
	}
	ctx, _ := api.CtxCreate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod, err := ctx.ModuleLoadPTX(fmt.Sprintf("m%d", i), benchKernelPTX)
		if err != nil {
			b.Fatal(err)
		}
		f, _ := mod.GetFunction("bench")
		insts, err := nv.GetInstrs(f)
		if err != nil {
			b.Fatal(err)
		}
		if len(insts) == 0 {
			b.Fatal("no instructions")
		}
	}
	b.ReportMetric(float64(nv.JITStats().InstrsLifted)/float64(b.N), "instrs/op")
}

// BenchmarkCodegen measures phase 5: trampoline generation for a fully
// instrumented kernel (one trampoline per instruction).
func BenchmarkCodegen(b *testing.B) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		b.Fatal(err)
	}
	tool := instrcount.New()
	nv, err := nvbit.Attach(api, tool)
	if err != nil {
		b.Fatal(err)
	}
	ctx, _ := api.CtxCreate()
	data, _ := ctx.MemAlloc(4 * 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod, err := ctx.ModuleLoadPTX(fmt.Sprintf("m%d", i), benchKernelPTX)
		if err != nil {
			b.Fatal(err)
		}
		f, _ := mod.GetFunction("bench")
		params, _ := driver.PackParams(f, data, uint32(256))
		// First launch triggers lift+instrument+codegen+swap.
		if err := ctx.LaunchKernel(f, gpusim.D1(1), gpusim.D1(256), 0, params); err != nil {
			b.Fatal(err)
		}
	}
	st := nv.JITStats()
	b.ReportMetric(float64(st.TrampolinesEmitted)/float64(b.N), "trampolines/op")
	b.ReportMetric(float64(st.CodeGen.Nanoseconds())/float64(st.TrampolinesEmitted), "codegen-ns/tramp")
}

// BenchmarkJITCache prices the instrumentation cache (docs/jitcache.md):
// one full attach→first-launch cycle of the bench kernel per iteration,
// cold (a fresh cache every iteration, so every object is generated and
// stored) vs warm (fresh attaches sharing one pre-populated cache, so
// lift and codegen are skipped entirely). The gap is what a cache hit
// saves; allocs/op shows the hit path's footprint.
func BenchmarkJITCache(b *testing.B) {
	iter := func(b *testing.B, cache *nvbit.JITCache) *nvbit.NVBit {
		api, err := gpusim.New(gpusim.Volta)
		if err != nil {
			b.Fatal(err)
		}
		nv, err := nvbit.Attach(api, instrcount.New(), nvbit.WithJITCache(cache))
		if err != nil {
			b.Fatal(err)
		}
		ctx, _ := api.CtxCreate()
		mod, err := ctx.ModuleLoadPTX("m", benchKernelPTX)
		if err != nil {
			b.Fatal(err)
		}
		f, _ := mod.GetFunction("bench")
		data, _ := ctx.MemAlloc(4 * 256)
		params, _ := driver.PackParams(f, data, uint32(256))
		if err := ctx.LaunchKernel(f, gpusim.D1(1), gpusim.D1(256), 0, params); err != nil {
			b.Fatal(err)
		}
		return nv
	}
	newCache := func(b *testing.B) *nvbit.JITCache {
		c, err := nvbit.NewJITCache("", 0)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	report := func(b *testing.B, hits, lookups, jitNs float64) {
		if lookups > 0 {
			b.ReportMetric(100*hits/lookups, "hit-%")
		}
		b.ReportMetric(jitNs/float64(b.N), "jit-ns/op")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		var hits, lookups, jitNs float64
		for i := 0; i < b.N; i++ {
			js := iter(b, newCache(b)).JITStats()
			hits += float64(js.CacheHits)
			lookups += float64(js.CacheLookups)
			jitNs += float64(js.Total().Nanoseconds())
		}
		report(b, hits, lookups, jitNs)
	})
	b.Run("warm", func(b *testing.B) {
		cache := newCache(b)
		iter(b, cache) // populate
		b.ReportAllocs()
		b.ResetTimer()
		var hits, lookups, jitNs float64
		for i := 0; i < b.N; i++ {
			js := iter(b, cache).JITStats()
			hits += float64(js.CacheHits)
			lookups += float64(js.CacheLookups)
			jitNs += float64(js.Total().Nanoseconds())
		}
		b.StopTimer()
		report(b, hits, lookups, jitNs)
		if lookups > 0 && hits != lookups {
			b.Fatalf("warm iterations hit %v/%v lookups, want all", hits, lookups)
		}
	})
}

// BenchmarkSwap measures phase 6: the enable/disable code swap, whose cost
// the paper equates to a code-sized cudaMemcpy.
func BenchmarkSwap(b *testing.B) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		b.Fatal(err)
	}
	tool := instrcount.New()
	nv, err := nvbit.Attach(api, tool)
	if err != nil {
		b.Fatal(err)
	}
	ctx, _ := api.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("m", benchKernelPTX)
	if err != nil {
		b.Fatal(err)
	}
	f, _ := mod.GetFunction("bench")
	data, _ := ctx.MemAlloc(4 * 256)
	params, _ := driver.PackParams(f, data, uint32(256))
	if err := ctx.LaunchKernel(f, gpusim.D1(1), gpusim.D1(256), 0, params); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nv.EnableInstrumented(f, i%2 == 0); err != nil {
			b.Fatal(err)
		}
		if err := ctx.LaunchKernel(f, gpusim.D1(1), gpusim.D1(256), 0, params); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(f.NumWords * 16))
}

// BenchmarkDisassembler measures the raw family codec (the dominant Figure 5
// component) in isolation.
func BenchmarkDisassembler(b *testing.B) {
	for _, fam := range []sass.Family{sass.Kepler, sass.Volta} {
		fam := fam
		b.Run(fam.String(), func(b *testing.B) {
			m, err := ptx.Compile("m", benchKernelPTX, fam)
			if err != nil {
				b.Fatal(err)
			}
			codec := sass.CodecFor(fam)
			raw, err := codec.EncodeAll(m.Funcs[0].Insts)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.DecodeAll(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulator measures raw uninstrumented simulation throughput.
// ReportAllocs tracks the launch path's allocation behavior: once its warp
// and context pools are warm the simulator allocates nothing per launch,
// instrumented or not (TestLaunchNoTracingZeroAlloc,
// TestLaunchInstrumentedZeroAlloc). The steady-state allocs/op are the
// driver's two per-launch callback-parameter records, flat as grids grow.
func BenchmarkSimulator(b *testing.B) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		b.Fatal(err)
	}
	ctx, _ := api.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("m", benchKernelPTX)
	if err != nil {
		b.Fatal(err)
	}
	f, _ := mod.GetFunction("bench")
	data, _ := ctx.MemAlloc(4 * 4096)
	params, _ := driver.PackParams(f, data, uint32(4096))
	b.ReportAllocs()
	b.ResetTimer()
	var warpInstrs uint64
	for i := 0; i < b.N; i++ {
		before := api.Device().Stats().WarpInstrs
		if err := ctx.LaunchKernel(f, gpusim.D1(16), gpusim.D1(256), 0, params); err != nil {
			b.Fatal(err)
		}
		warpInstrs += api.Device().Stats().WarpInstrs - before
	}
	b.ReportMetric(float64(warpInstrs)/b.Elapsed().Seconds()/1e6, "Mwarpinstr/s")
}

// benchLaunch drives a 256-CTA launch of the bench kernel under the given
// scheduler; BenchmarkLaunchParallel vs BenchmarkLaunchSequential is the
// headline speedup of the per-SM parallel backend (≥ 2x expected on a
// machine with GOMAXPROCS ≥ 4; on one core the two are equivalent).
func benchLaunch(b *testing.B, sched gpusim.SchedulerKind) {
	const ctas, block = 256, 256
	cfg := gpusim.DefaultConfig(gpusim.Volta)
	cfg.Scheduler = sched
	api, err := gpusim.NewWithConfig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx, _ := api.CtxCreate()
	mod, err := ctx.ModuleLoadPTX("m", benchKernelPTX)
	if err != nil {
		b.Fatal(err)
	}
	f, _ := mod.GetFunction("bench")
	data, _ := ctx.MemAlloc(4 * ctas * block)
	params, _ := driver.PackParams(f, data, uint32(ctas*block))
	// Warm the decode cache so iterations measure pure execution.
	if err := ctx.LaunchKernel(f, gpusim.D1(ctas), gpusim.D1(block), 0, params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var warpInstrs uint64
	for i := 0; i < b.N; i++ {
		before := api.Device().Stats().WarpInstrs
		if err := ctx.LaunchKernel(f, gpusim.D1(ctas), gpusim.D1(block), 0, params); err != nil {
			b.Fatal(err)
		}
		warpInstrs += api.Device().Stats().WarpInstrs - before
	}
	b.ReportMetric(float64(warpInstrs)/b.Elapsed().Seconds()/1e6, "Mwarpinstr/s")
}

func BenchmarkLaunchSequential(b *testing.B) { benchLaunch(b, gpusim.SchedulerSequential) }
func BenchmarkLaunchParallel(b *testing.B)   { benchLaunch(b, gpusim.SchedulerParallelSM) }

// --- ablations -------------------------------------------------------------------

// BenchmarkSaveSet reports what the per-site liveness analysis buys at code
// generation: trampoline length and saved registers per instrumentation
// site, liveness-minimal vs the full-register-file ablation.
func BenchmarkSaveSet(b *testing.B) {
	run := func(b *testing.B, fullSave bool) {
		var words, saved, sites float64
		for i := 0; i < b.N; i++ {
			api, err := gpusim.New(gpusim.Volta)
			if err != nil {
				b.Fatal(err)
			}
			tool := instrcount.New()
			nv, err := nvbit.Attach(api, tool)
			if err != nil {
				b.Fatal(err)
			}
			if fullSave {
				nv.SetInjectionMode(nvbit.InjectFullSave)
			}
			ctx, _ := api.CtxCreate()
			mod, err := ctx.ModuleLoadPTX("m", benchKernelPTX)
			if err != nil {
				b.Fatal(err)
			}
			f, _ := mod.GetFunction("bench")
			data, _ := ctx.MemAlloc(4 * 4096)
			params, _ := driver.PackParams(f, data, uint32(4096))
			if err := ctx.LaunchKernel(f, gpusim.D1(16), gpusim.D1(256), 0, params); err != nil {
				b.Fatal(err)
			}
			js := nv.JITStats()
			if js.TrampolinesEmitted == 0 {
				b.Fatal("no trampolines emitted")
			}
			words += float64(js.TrampolineWords)
			saved += float64(js.SavedRegs)
			sites += float64(js.TrampolinesEmitted)
		}
		b.ReportMetric(words/sites, "words/site")
		b.ReportMetric(saved/sites, "savedregs/site")
	}
	b.Run("liveness", func(b *testing.B) { run(b, false) })
	b.Run("full255", func(b *testing.B) { run(b, true) })
}

// BenchmarkSaveSetSizing compares trampoline execution cost with the minimal
// save set (what NVBit computes from the per-site register liveness) against
// always saving the full 255-register file — the design choice of Section 5.1.
func BenchmarkSaveSetSizing(b *testing.B) {
	run := func(b *testing.B, fullSave bool) uint64 {
		cfg := gpu.DefaultConfig(sass.Volta)
		api, err := driver.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tool := instrcount.New()
		nv, err := core.Attach(api, tool)
		if err != nil {
			b.Fatal(err)
		}
		if fullSave {
			nv.SetInjectionMode(nvbit.InjectFullSave)
		}
		ctx, _ := api.CtxCreate()
		mod, err := ctx.ModuleLoadPTX("m", benchKernelPTX)
		if err != nil {
			b.Fatal(err)
		}
		f, _ := mod.GetFunction("bench")
		data, _ := ctx.MemAlloc(4 * 4096)
		params, _ := driver.PackParams(f, data, uint32(4096))
		if err := ctx.LaunchKernel(f, gpusim.D1(16), gpusim.D1(256), 0, params); err != nil {
			b.Fatal(err)
		}
		return api.Device().Stats().Cycles
	}
	b.Run("minimal", func(b *testing.B) {
		var c uint64
		for i := 0; i < b.N; i++ {
			c = run(b, false)
		}
		b.ReportMetric(float64(c), "cycles")
	})
	b.Run("full255", func(b *testing.B) {
		var c uint64
		for i := 0; i < b.N; i++ {
			c = run(b, true)
		}
		b.ReportMetric(float64(c), "cycles")
	})
}

// BenchmarkBBvsInstrCounting compares per-basic-block against per-instruction
// counting (the optimization sketched in the paper's Section 3): same
// answer, far fewer injected calls.
func BenchmarkBBvsInstrCounting(b *testing.B) {
	run := func(b *testing.B, perBB bool) uint64 {
		api, err := gpusim.New(gpusim.Volta)
		if err != nil {
			b.Fatal(err)
		}
		tool := instrcount.New()
		tool.PerBasicBlock = perBB
		nv, err := nvbit.Attach(api, tool)
		if err != nil {
			b.Fatal(err)
		}
		ctx, _ := api.CtxCreate()
		mod, err := ctx.ModuleLoadPTX("m", benchKernelPTX)
		if err != nil {
			b.Fatal(err)
		}
		f, _ := mod.GetFunction("bench")
		data, _ := ctx.MemAlloc(4 * 4096)
		params, _ := driver.PackParams(f, data, uint32(4096))
		if err := ctx.LaunchKernel(f, gpusim.D1(16), gpusim.D1(256), 0, params); err != nil {
			b.Fatal(err)
		}
		if tool.Total(nv) == 0 {
			b.Fatal("no counts")
		}
		return api.Device().Stats().Cycles
	}
	b.Run("per-instruction", func(b *testing.B) {
		var c uint64
		for i := 0; i < b.N; i++ {
			c = run(b, false)
		}
		b.ReportMetric(float64(c), "cycles")
	})
	b.Run("per-basic-block", func(b *testing.B) {
		var c uint64
		for i := 0; i < b.N; i++ {
			c = run(b, true)
		}
		b.ReportMetric(float64(c), "cycles")
	})
}

// BenchmarkToolOverheads compares the execution cost of the paper's tools on
// one ML workload (tool bodies dominate; JIT overhead is negligible here).
func BenchmarkToolOverheads(b *testing.B) {
	net := mlsuite.Networks()[0] // AlexNet
	run := func(b *testing.B, mk func() nvbit.Tool) {
		for i := 0; i < b.N; i++ {
			api, err := gpusim.New(gpusim.Volta)
			if err != nil {
				b.Fatal(err)
			}
			if mk != nil {
				if _, err := nvbit.Attach(api, mk()); err != nil {
					b.Fatal(err)
				}
			}
			ctx, _ := api.CtxCreate()
			if _, err := mlsuite.Run(ctx, nil, net); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("native", func(b *testing.B) { run(b, nil) })
	b.Run("instrcount", func(b *testing.B) { run(b, func() nvbit.Tool { return instrcount.New() }) })
	b.Run("memdiv", func(b *testing.B) { run(b, func() nvbit.Tool { return memdiv.New() }) })
	b.Run("ophisto", func(b *testing.B) { run(b, func() nvbit.Tool { return ophisto.New(false) }) })
}

// BenchmarkChannelThroughput measures the streaming-channel subsystem
// end-to-end — warp-aggregated device-side reservation, mid-kernel flushes,
// async receipt — through its heaviest client (memtrace, 280-byte records
// with all 32 lane addresses) on AlexNet. The channel is sized well below
// the trace length so every run exercises buffer recycling; the Drop/Block
// pair prices the backpressure guarantee.
func BenchmarkChannelThroughput(b *testing.B) {
	net := mlsuite.Networks()[0] // AlexNet
	run := func(b *testing.B, policy nvbit.ChannelPolicy) {
		b.ReportAllocs()
		var delivered, dropped uint64
		for i := 0; i < b.N; i++ {
			api, err := gpusim.New(gpusim.Volta)
			if err != nil {
				b.Fatal(err)
			}
			tool := memtrace.New(4096)
			tool.Policy = policy
			tool.Keep = false
			if _, err := nvbit.Attach(api, tool, nvbit.WithScheduler(gpusim.SchedulerParallelSM)); err != nil {
				b.Fatal(err)
			}
			ctx, _ := api.CtxCreate()
			if _, err := mlsuite.Run(ctx, nil, net); err != nil {
				b.Fatal(err)
			}
			st := tool.Stats()
			delivered += st.Delivered
			dropped += st.Dropped
		}
		b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "records/s")
		b.ReportMetric(float64(dropped)/float64(b.N), "dropped/op")
	}
	b.Run("drop", func(b *testing.B) { run(b, nvbit.ChannelDrop) })
	b.Run("block", func(b *testing.B) { run(b, nvbit.ChannelBlock) })
}
