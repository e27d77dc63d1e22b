package main

import (
	"fmt"
	"time"

	"nvbitgo/internal/ptx"
	"nvbitgo/internal/sass"
	"nvbitgo/nvbit"
)

// jitAgg sums JITStats over several framework instances.
type jitAgg struct{ s nvbit.JITStats }

func (a *jitAgg) add(o nvbit.JITStats) {
	s := &a.s
	s.Retrieve += o.Retrieve
	s.Disassemble += o.Disassemble
	s.Convert += o.Convert
	s.UserCode += o.UserCode
	s.CodeGen += o.CodeGen
	s.Swap += o.Swap
	s.CacheLookup += o.CacheLookup
	s.CacheHit += o.CacheHit
	s.FunctionsLifted += o.FunctionsLifted
	s.InstrsLifted += o.InstrsLifted
	s.TrampolinesEmitted += o.TrampolinesEmitted
	s.TrampolineWords += o.TrampolineWords
	s.SavedRegs += o.SavedRegs
	s.InlinedSites += o.InlinedSites
	s.InlineWords += o.InlineWords
	s.SwapBytes += o.SwapBytes
	s.CacheLookups += o.CacheLookups
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheBytesRead += o.CacheBytesRead
	s.CacheBytesWritten += o.CacheBytesWritten
	s.TrampolinesFromCache += o.TrampolinesFromCache
	s.SavedRegsFromCache += o.SavedRegsFromCache
	s.InlinedFromCache += o.InlinedFromCache
}

// setJITTimes sets the core layer's per-function and per-site JIT times
// from JIT work that ran without cache hits.
func (b *bench) setJITTimes(cold nvbit.JITStats) {
	funcs := float64(cold.FunctionsLifted)
	b.setN("core.disasm_us_per_func", ratio(us(cold.Disassemble), funcs), cold.FunctionsLifted)
	b.setN("core.convert_us_per_func", ratio(us(cold.Convert), funcs), cold.FunctionsLifted)
	b.setN("core.usercode_us_per_func", ratio(us(cold.UserCode), funcs), cold.FunctionsLifted)
	b.setN("core.swap_us_per_func", ratio(us(cold.Swap), funcs), cold.FunctionsLifted)
	b.setN("core.jit_ms_per_func", ratio(ms(cold.Total()), funcs), cold.FunctionsLifted)
	fresh := cold.TrampolinesEmitted - cold.TrampolinesFromCache + cold.InlinedSites - cold.InlinedFromCache
	b.setN("core.codegen_us_per_site", ratio(us(cold.CodeGen), float64(fresh)), fresh)
}

// setCodegenShape sets the deterministic code-shape metrics of one pass.
func (b *bench) setCodegenShape(s nvbit.JITStats) {
	sites := float64(s.TrampolinesEmitted + s.InlinedSites)
	b.set("core.words_per_site", ratio(float64(s.TrampolineWords+s.InlineWords), sites))
	b.set("core.avg_saved_regs", s.AvgSavedRegs())
	b.set("core.inline_pct", 100*ratio(float64(s.InlinedSites), sites))
}

// setFailMetrics exposes the failure counts by cause.
func (b *bench) setFailMetrics() {
	for _, c := range []string{"oom", "codespace", "overload", "fault", "mismatch", "other"} {
		b.set("fail."+c, float64(b.fails[c]))
	}
}

// launchAgg accumulates observed module loads and launches across many
// launchers, so the launchers (and the devices they reference) can go.
type launchAgg struct {
	loads, firsts      []float64 // ms
	steady, measured   int
	warp               uint64
	execDur            time.Duration
	allocs, allocBytes uint64
}

func (a *launchAgg) absorb(l *timedLauncher) {
	for _, d := range l.loads {
		a.loads = append(a.loads, ms(d))
	}
	for _, o := range l.launches {
		if o.err != nil {
			continue
		}
		if o.first {
			a.firsts = append(a.firsts, ms(o.dur))
			continue
		}
		a.steady++
		a.warp += o.stats.WarpInstrs
		a.execDur += o.dur
		if o.measured {
			a.measured++
			a.allocs += o.allocs
			a.allocBytes += o.allocBytes
		}
	}
}

// setLaunchLayer sets the gpu and driver metrics from observed local
// launches and module loads.
func (b *bench) setLaunchLayer(a *launchAgg) {
	b.setN("gpu.exec_mwips", ratio(float64(a.warp)/1e6, a.execDur.Seconds()), a.steady)
	b.setN("gpu.allocs_per_launch", ratio(float64(a.allocs), float64(a.measured)), a.measured)
	b.setN("gpu.alloc_kb_per_launch", ratio(float64(a.allocBytes)/1024, float64(a.measured)), a.measured)
	b.setN("driver.module_load_ms", median(a.loads), len(a.loads))
	b.setN("driver.first_launch_ms", median(a.firsts), len(a.firsts))
}

// timeLayers times direct calls into the ptx and sass layers on every
// distinct PTX source the workload loaded: ptx.Compile, then per compiled
// function Codec.DecodeAll, sass.BasicBlocks and sass.AnalyzeLiveness.
func (b *bench) timeLayers(sources []string) error {
	seen := map[string]bool{}
	codec := sass.CodecFor(sass.Volta)
	var compile, decode, cfg, live time.Duration
	var entries, funcs, instrs, decoded int
	for i, src := range sources {
		if seen[src] {
			continue
		}
		seen[src] = true
		var pm *ptx.Module
		if err := b.tr.do(directSess, "ptx", "ptx.Compile", func() (err error) {
			start := time.Now()
			pm, err = ptx.Compile(fmt.Sprintf("m%d", i), src, sass.Volta)
			compile += time.Since(start)
			return err
		}); err != nil {
			return err
		}
		for _, f := range pm.Funcs {
			if f.Entry {
				entries++
				instrs += len(f.Insts)
			}
			raw, err := codec.EncodeAll(f.Insts)
			if err != nil {
				return err
			}
			funcs++
			decoded += len(f.Insts)
			start := time.Now()
			if _, err := codec.DecodeAll(raw); err != nil {
				return err
			}
			end := time.Now()
			b.tr.add(directSess, "sass", "Codec.DecodeAll", start, end)
			decode += end.Sub(start)
			start = time.Now()
			sass.BasicBlocks(f.Insts)
			end = time.Now()
			b.tr.add(directSess, "sass", "sass.BasicBlocks", start, end)
			cfg += end.Sub(start)
			start = time.Now()
			sass.AnalyzeLiveness(f.Insts)
			end = time.Now()
			b.tr.add(directSess, "sass", "sass.AnalyzeLiveness", start, end)
			live += end.Sub(start)
		}
	}
	b.setN("ptx.compile_us_per_kernel", ratio(us(compile), float64(entries)), entries)
	b.setN("ptx.sass_instrs_per_kernel", ratio(float64(instrs), float64(entries)), entries)
	b.setN("sass.decode_ns_per_instr", ratio(float64(decode.Nanoseconds()), float64(decoded)), decoded)
	b.setN("sass.cfg_us_per_func", ratio(us(cfg), float64(funcs)), funcs)
	b.setN("sass.liveness_us_per_func", ratio(us(live), float64(funcs)), funcs)
	return nil
}

// setOverhead sets profile.tracing_overhead_pct from per-round times of
// rounds that alternate untraced (even) and traced (odd); round 0 is a
// warm-up and is skipped.
func (b *bench) setOverhead(times []time.Duration) {
	var on, off time.Duration
	var nOn, nOff int
	for i := 1; i < len(times); i++ {
		if i%2 == 1 {
			on += times[i]
			nOn++
		} else {
			off += times[i]
			nOff++
		}
	}
	if nOn == 0 || nOff == 0 {
		return
	}
	b.set("profile.tracing_overhead_pct", 100*(ratio(float64(on)/float64(nOn), float64(off)/float64(nOff))-1))
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
