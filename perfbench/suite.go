package main

import (
	"bytes"
	"fmt"
	"time"

	"nvbitgo/gpusim"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// suiteMinPasses keeps at least 200 launch samples (80 per pass), so
// op_tail_ms is always a p95 and does not hop between percentiles.
const suiteMinPasses = 3

// paperSlowdown is the paper's Fig. 8 average instrumented slowdown.
const paperSlowdown = 36.4

// drawSuite draws the order in which the suite runs: every benchmark once,
// in a seeded order. Seeded repeats would change the launch mix, and with it
// every end-to-end metric, between seeds by more than any regression bound.
func drawSuite(seed uint64) []*specaccel.Benchmark {
	draw := specaccel.Benchmarks()
	shuffle(newRNG(seed, 2), draw)
	return draw
}

// nativeRef is a benchmark's uninstrumented output and device statistics.
type nativeRef struct {
	out   []byte
	stats gpu.Stats
}

// runNative runs a benchmark uninstrumented on a fresh device.
func runNative(bm *specaccel.Benchmark) (nativeRef, error) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		return nativeRef{}, err
	}
	defer api.Close()
	ctx, err := api.CtxCreate()
	if err != nil {
		return nativeRef{}, err
	}
	out, err := bm.RunCapture(ctx, specaccel.Small)
	if err != nil {
		return nativeRef{}, fmt.Errorf("native %s: %w", bm.Name, err)
	}
	return nativeRef{out: out, stats: api.Device().Stats()}, nil
}

// instrumented is one benchmark's device with instrcount attached.
type instrumented struct {
	api   *gpusim.API
	tool  *instrcount.Tool
	nv    *nvbit.NVBit
	epoch time.Time // taken before Attach: the tracing collector's epoch
}

// newInstrumented builds a fresh device and attaches instrcount with the
// default (trampoline) injection, timing both calls.
func (b *bench) newInstrumented(sess uint64, traced bool, devNew *[]float64) (*instrumented, error) {
	tr := b.tr
	if !traced {
		tr = nil
	}
	in := &instrumented{tool: instrcount.New()}
	start := time.Now()
	api, err := gpusim.New(gpusim.Volta)
	end := time.Now()
	tr.add(sess, "gpu", "gpusim.New", start, end)
	if err != nil {
		return nil, err
	}
	*devNew = append(*devNew, ms(end.Sub(start)))
	in.api = api
	var opts []nvbit.Option
	if traced {
		opts = append(opts, nvbit.WithTracing(0))
	}
	in.epoch = time.Now()
	err = tr.do(sess, "core", "nvbit.Attach", func() (err error) {
		in.nv, err = nvbit.Attach(api, in.tool, opts...)
		return err
	})
	if err != nil {
		api.Close()
		return nil, err
	}
	return in, nil
}

// suitePass accumulates one pass over the draw.
type suitePass struct {
	instr, native gpu.Stats
	jit           jitAgg
	runTime       time.Duration // host time of the instrumented benchmark runs
	nativeWarp    uint64        // native warp instructions of the completed runs
	launches      int
}

// runSuite is the suite-instr workload: whole passes over the suite in the
// drawn order, each benchmark on a fresh device under instrcount, checked
// against its native run, until the window is spent.
func runSuite(b *bench) error {
	var draw []*specaccel.Benchmark
	var refs map[string]nativeRef
	var devNew []float64
	var next *instrumented
	err := b.timeSetup(func(rep int) (func(), error) {
		draw = drawSuite(b.seed)
		refs = map[string]nativeRef{}
		for _, bm := range draw {
			if _, ok := refs[bm.Name]; ok {
				continue
			}
			ref, err := runNative(bm)
			if err != nil {
				return nil, err
			}
			refs[bm.Name] = ref
		}
		var err error
		next, err = b.newInstrumented(0, false, &devNew)
		if err != nil {
			return nil, err
		}
		in := next
		return func() { in.api.Close() }, nil
	})
	if err != nil {
		return err
	}
	devNew = devNew[len(devNew)-1:] // keep the device the first run uses

	var passes []suitePass
	var lat []float64
	var agg launchAgg
	var sources []string
	var sess uint64
	start := time.Now()
	for p := 0; p < suiteMinPasses || time.Since(start) < b.window; p++ {
		traced := b.trace && p%2 == 1
		var pass suitePass
		for _, bm := range draw {
			sess++
			in := next
			next = nil
			if in == nil {
				if in, err = b.newInstrumented(sess, traced, &devNew); err != nil {
					return err
				}
			}
			ref := refs[bm.Name]
			b.runInstrumented(bm, in, ref, sess, traced, &pass, &lat, &agg, &sources)
			in.api.Close()
			b.rss.mark()
		}
		passes = append(passes, pass)
		b.endRound(ratio(float64(pass.launches), pass.runTime.Seconds()),
			ratio(float64(pass.nativeWarp)/1e6, pass.runTime.Seconds()))
	}

	var launches int
	for i, p := range passes {
		launches += p.launches
		if i > 0 && (p.instr.WarpInstrs != passes[0].instr.WarpInstrs || p.instr.Cycles != passes[0].instr.Cycles) {
			b.mismatch("pass %d: %d warp instructions / %d cycles, pass 0: %d / %d",
				i, p.instr.WarpInstrs, p.instr.Cycles, passes[0].instr.WarpInstrs, passes[0].instr.Cycles)
		}
	}
	b.setThroughput()
	b.setN("op_p50_ms", median(lat), len(lat))
	b.setTail(lat)

	first := passes[0]
	slowdown := ratio(float64(first.instr.Cycles), float64(first.native.Cycles))
	b.note("draw: %d benchmarks, %d passes, %d launches", len(draw), len(passes), launches)
	b.note("slowdown_x = %.2f (simulated cycles instrumented / native from an unvalidated timing model; paper Fig. 8: %.1fx; compare by shape only)",
		slowdown, paperSlowdown)

	if b.trace {
		b.set("gpu.warp_instrs_instr", float64(first.instr.WarpInstrs))
		b.set("gpu.warp_instrs_native", float64(first.native.WarpInstrs))
		b.set("gpu.cycles_instr", float64(first.instr.Cycles))
		b.set("gpu.cycles_native", float64(first.native.Cycles))
		b.set("gpu.slowdown_x", slowdown)
		b.set("gpu.l1_hit_pct", 100*ratio(float64(first.instr.L1Hits), float64(first.instr.L1Hits+first.instr.L1Misses)))
		b.set("gpu.l2_hit_pct", 100*ratio(float64(first.instr.L2Hits), float64(first.instr.L2Hits+first.instr.L2Misses)))
		b.set("core.overhead_per_site_visit", ratio(float64(first.instr.WarpInstrs-first.native.WarpInstrs), float64(first.native.WarpInstrs)))
		b.setCodegenShape(first.jit.s)
		var all jitAgg
		for _, p := range passes {
			all.add(p.jit.s)
		}
		b.setJITTimes(all.s)
		b.setN("gpu.device_new_ms", median(devNew), len(devNew))
		b.setLaunchLayer(&agg)
		times := make([]time.Duration, len(passes))
		for i, p := range passes {
			times[i] = p.runTime
		}
		b.setOverhead(times)
		if err := b.timeLayers(sources); err != nil {
			return err
		}
	}
	b.setFailMetrics()
	return nil
}

// runInstrumented runs one benchmark instrumented and checks it: the
// instrcount total must equal the native thread-instruction count and the
// output buffer must be byte-identical to the native one.
func (b *bench) runInstrumented(bm *specaccel.Benchmark, in *instrumented, ref nativeRef, sess uint64, traced bool,
	pass *suitePass, lat *[]float64, agg *launchAgg, sources *[]string) {
	tr := b.tr
	if !traced {
		tr = nil
	}
	ctx, err := in.api.CtxCreate()
	if err != nil {
		b.attempted++
		b.fail(classify(err))
		return
	}
	l := newTimedLauncher(ctx, in.api.Device(), tr, sess, "driver")
	start := time.Now()
	out, err := bm.RunCapture(l, specaccel.Small)
	end := time.Now()
	tr.add(sess, "bench", "suite:"+bm.Name, start, end)
	tr.fold(sess, in.nv.Profiler(), in.epoch)
	agg.absorb(l)
	*sources = append(*sources, l.sources...)
	b.attempted += len(l.launches)
	for _, o := range l.launches {
		if o.err == nil {
			*lat = append(*lat, ms(o.dur))
		}
	}
	if err != nil {
		if len(l.launches) == 0 || l.launches[len(l.launches)-1].err == nil {
			b.attempted++ // the failed call was not a launch
		}
		b.fail(classify(err))
		b.note("%s: %v", bm.Name, err)
		return
	}
	pass.runTime += end.Sub(start)
	pass.nativeWarp += ref.stats.WarpInstrs
	pass.launches += len(l.launches)
	pass.instr.Add(in.api.Device().Stats())
	pass.native.Add(ref.stats)
	pass.jit.add(in.nv.JITStats())
	if got, want := in.tool.AppInstrs(in.nv), ref.stats.ThreadInstrs; got != want {
		b.mismatch("%s: instrcount counted %d thread instructions, native ran %d", bm.Name, got, want)
	}
	if !bytes.Equal(out, ref.out) {
		b.mismatch("%s: instrumented output differs from native", bm.Name)
	}
}
