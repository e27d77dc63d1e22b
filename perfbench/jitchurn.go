package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nvbitgo/gpusim"
	"nvbitgo/internal/driver"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/nvbit"
)

const (
	churnKernels   = 400
	churnPerModule = 8
	// churnModulesPerDevice batches modules onto app-sized fresh devices:
	// instrumenting every kernel of one pass on one default device would
	// overrun its 4 MiB code space.
	churnModulesPerDevice = 10
	// churnMinRounds keeps at least 1000 cold-kernel samples, so
	// op_tail_ms is always a p99.
	churnMinRounds = 3
)

// churnCounts is what one kernel's launch executed.
type churnCounts struct {
	warp, thread uint64 // device statistics delta
	counted      uint64 // instrcount's tally (thread level)
}

// churnPass is one cold or warm pass over every generated kernel.
type churnPass struct {
	opTime                time.Duration // summed load+first-launch time of completed kernels
	lat                   []float64     // per-kernel load share + first launch, ms
	ok                    int
	counts                map[string]churnCounts
	jit                   jitAgg
	instrWarp, nativeWarp uint64
}

// runChurn is the jit-churn workload. Each round brings every generated
// kernel through module load and one instrumented launch twice: cold, with
// a fresh JITCache over an empty directory (the cache's write path), then
// warm, with fresh devices and a fresh JITCache over the filled directory
// (its read path, as a user's second process would see it).
func runChurn(b *bench) error {
	var mods []churnModule
	var native map[string]churnCounts
	var devNew []float64
	err := b.timeSetup(func(rep int) (func(), error) {
		mods = genChurn(b.seed, churnKernels, churnPerModule)
		var err error
		native, err = b.churnNative(mods)
		return func() {}, err
	})
	if err != nil {
		return err
	}

	var rounds [][2]churnPass
	var agg launchAgg
	var roundTimes []time.Duration
	var objects int
	start := time.Now()
	for r := 0; r < churnMinRounds || time.Since(start) < b.window; r++ {
		traced := b.trace && r%2 == 1
		cacheDir := filepath.Join(b.dir, fmt.Sprintf("cache%d", r))
		var pair [2]churnPass
		for warm := 0; warm < 2; warm++ {
			pass, err := b.churnPass(mods, native, cacheDir, r, warm == 1, traced, &agg, &devNew)
			if err != nil {
				return err
			}
			pair[warm] = pass
		}
		if r == 0 {
			entries, _ := os.ReadDir(filepath.Join(cacheDir, "objects"))
			objects = len(entries)
		}
		if err := os.RemoveAll(cacheDir); err != nil {
			return err
		}
		rounds = append(rounds, pair)
		roundTimes = append(roundTimes, pair[0].opTime+pair[1].opTime)
		b.checkChurnRound(r, pair)
		b.endRound(ratio(float64(pair[0].ok), pair[0].opTime.Seconds()),
			ratio(float64(pair[0].nativeWarp+pair[1].nativeWarp)/1e6, (pair[0].opTime+pair[1].opTime).Seconds()))
	}

	var lat, warmKPS []float64
	for _, pair := range rounds {
		lat = append(lat, pair[0].lat...)
		warmKPS = append(warmKPS, ratio(float64(pair[1].ok), pair[1].opTime.Seconds()))
	}
	b.setThroughput()
	b.setN("op_p50_ms", median(lat), len(lat))
	b.setTail(lat)
	b.note("rounds: %d of %d kernels in %d modules, cold then warm", len(rounds), churnKernels, len(mods))
	b.note("jit_cold_kps = %.2f kernels/s (= ops_per_s), jit_warm_kps = %.2f kernels/s, medians over rounds; first_launch_*_ms = op_*_ms",
		b.metrics["ops_per_s"], median(warmKPS))

	if b.trace {
		cold, warm := rounds[0][0], rounds[0][1]
		b.set("jitcache.hit_pct", 100*ratio(float64(warm.jit.s.CacheHits), float64(warm.jit.s.CacheLookups)))
		var all, colds, warms jitAgg
		for _, pair := range rounds {
			colds.add(pair[0].jit.s)
			warms.add(pair[1].jit.s)
			all.add(pair[0].jit.s)
			all.add(pair[1].jit.s)
		}
		b.setN("jitcache.lookup_us", ratio(us(all.s.CacheLookup), float64(all.s.CacheLookups)), all.s.CacheLookups)
		b.setN("jitcache.hit_us", ratio(us(warms.s.CacheHit), float64(warms.s.CacheHits)), warms.s.CacheHits)
		b.set("jitcache.bytes_written", float64(cold.jit.s.CacheBytesWritten))
		b.set("jitcache.bytes_read", float64(warm.jit.s.CacheBytesRead))
		b.set("jitcache.objects_on_disk", float64(objects))
		b.setJITTimes(colds.s)
		b.setCodegenShape(cold.jit.s)
		b.set("core.overhead_per_site_visit", ratio(float64(cold.instrWarp-cold.nativeWarp), float64(cold.nativeWarp)))
		b.setN("gpu.device_new_ms", median(devNew), len(devNew))
		b.setLaunchLayer(&agg)
		b.setOverhead(roundTimes)
		var sources []string
		for _, m := range mods {
			sources = append(sources, m.Source)
		}
		if err := b.timeLayers(sources); err != nil {
			return err
		}
	}
	b.setFailMetrics()
	return nil
}

// checkChurnRound checks one round: every kernel's counts agree between
// the cold pass, the warm pass and the native run, and the warm pass hit
// the cache on every lookup.
func (b *bench) checkChurnRound(r int, pair [2]churnPass) {
	cold, warm := pair[0], pair[1]
	for name, c := range cold.counts {
		w, ok := warm.counts[name]
		if !ok {
			continue // failed in the warm pass: counted there
		}
		if c != w {
			b.mismatch("round %d: %s counted %+v cold but %+v warm", r, name, c, w)
		}
	}
	if s := warm.jit.s; s.CacheLookups == 0 || s.CacheHits != s.CacheLookups {
		b.mismatch("round %d: warm pass hit %d of %d cache lookups", r, s.CacheHits, s.CacheLookups)
	}
}

// churnNative runs every kernel once uninstrumented and returns its counts.
func (b *bench) churnNative(mods []churnModule) (map[string]churnCounts, error) {
	out := map[string]churnCounts{}
	for base := 0; base < len(mods); base += churnModulesPerDevice {
		api, err := gpusim.New(gpusim.Volta)
		if err != nil {
			return nil, err
		}
		ctx, err := api.CtxCreate()
		if err != nil {
			return nil, err
		}
		data, err := churnData(ctx)
		if err != nil {
			return nil, err
		}
		for _, m := range mods[base:min(base+churnModulesPerDevice, len(mods))] {
			mod, err := ctx.ModuleLoadPTX(m.Name, m.Source)
			if err != nil {
				return nil, fmt.Errorf("native load %s: %w", m.Name, err)
			}
			for _, k := range m.Kernels {
				before := api.Device().Stats()
				if err := churnLaunch(ctx, mod, k.Name, data); err != nil {
					return nil, fmt.Errorf("native %s: %w", k.Name, err)
				}
				after := api.Device().Stats()
				out[k.Name] = churnCounts{warp: after.WarpInstrs - before.WarpInstrs, thread: after.ThreadInstrs - before.ThreadInstrs}
			}
		}
		api.Close()
	}
	return out, nil
}

// churnData allocates and fills a device's data buffer.
func churnData(l driver.Launcher) (uint64, error) {
	data, err := l.MemAlloc(churnDataBytes)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, churnDataBytes)
	for i := range buf {
		buf[i] = byte(i*7 + 3)
	}
	return data, l.MemcpyHtoD(data, buf)
}

func churnLaunch(l driver.Launcher, mod *driver.Module, name string, data uint64) error {
	fn, err := mod.GetFunction(name)
	if err != nil {
		return err
	}
	params, err := driver.PackParams(fn, data, uint32(churnN))
	if err != nil {
		return err
	}
	return l.LaunchKernel(fn, gpusim.D1(churnGrid), gpusim.D1(churnBlock), 0, params)
}

// churnPass brings every kernel through load and first launch once, on
// fresh devices sharing one JITCache over cacheDir.
func (b *bench) churnPass(mods []churnModule, native map[string]churnCounts, cacheDir string, round int, warm, traced bool,
	agg *launchAgg, devNew *[]float64) (churnPass, error) {
	tr := b.tr
	if !traced {
		tr = nil
	}
	pass := churnPass{counts: map[string]churnCounts{}}
	cache, err := nvbit.NewJITCache(cacheDir, 0)
	if err != nil {
		return pass, err
	}
	for base := 0; base < len(mods); base += churnModulesPerDevice {
		sess := uint64(round*1000 + base)
		if warm {
			sess += 500
		}
		start := time.Now()
		api, err := gpusim.New(gpusim.Volta)
		end := time.Now()
		tr.add(sess, "gpu", "gpusim.New", start, end)
		if err != nil {
			return pass, err
		}
		*devNew = append(*devNew, ms(end.Sub(start)))
		tool := instrcount.New()
		opts := []nvbit.Option{nvbit.WithJITCache(cache)}
		if traced {
			opts = append(opts, nvbit.WithTracing(0))
		}
		epoch := time.Now()
		var nv *nvbit.NVBit
		if err := tr.do(sess, "core", "nvbit.Attach", func() (err error) {
			nv, err = nvbit.Attach(api, tool, opts...)
			return err
		}); err != nil {
			return pass, err
		}
		ctx, err := api.CtxCreate()
		if err != nil {
			return pass, err
		}
		data, err := churnData(ctx)
		if err != nil {
			return pass, err
		}
		l := newTimedLauncher(ctx, api.Device(), tr, sess, "driver")
		for _, m := range mods[base:min(base+churnModulesPerDevice, len(mods))] {
			b.churnModule(l, nv, tool, m, data, native, &pass)
		}
		tr.fold(sess, nv.Profiler(), epoch)
		agg.absorb(l)
		pass.jit.add(nv.JITStats())
		api.Close()
		b.rss.mark()
	}
	return pass, nil
}

// churnModule loads one module and launches each of its kernels once.
func (b *bench) churnModule(l *timedLauncher, nv *nvbit.NVBit, tool *instrcount.Tool, m churnModule, data uint64,
	native map[string]churnCounts, pass *churnPass) {
	start := time.Now()
	mod, err := l.ModuleLoadPTX(m.Name, m.Source)
	load := time.Since(start)
	if err != nil {
		b.attempted += len(m.Kernels)
		for range m.Kernels {
			b.fail(classify(err))
		}
		b.note("load %s: %v", m.Name, err)
		return
	}
	share := load / time.Duration(len(m.Kernels))
	for _, k := range m.Kernels {
		b.attempted++
		counted := tool.AppInstrs(nv)
		n := len(l.launches)
		err := churnLaunch(l, mod, k.Name, data)
		if err != nil || len(l.launches) == n {
			if err == nil {
				err = fmt.Errorf("%s: no launch observed", k.Name)
			}
			b.fail(classify(err))
			b.note("%s: %v", k.Name, err)
			continue
		}
		obs := l.launches[len(l.launches)-1]
		c := churnCounts{warp: obs.stats.WarpInstrs, thread: obs.stats.ThreadInstrs, counted: tool.AppInstrs(nv) - counted}
		pass.counts[k.Name] = c
		nat := native[k.Name]
		if c.counted != nat.thread {
			b.mismatch("%s: instrcount counted %d thread instructions, native ran %d", k.Name, c.counted, nat.thread)
		}
		pass.ok++
		op := share + obs.dur
		pass.opTime += op
		pass.lat = append(pass.lat, ms(op))
		pass.instrWarp += obs.stats.WarpInstrs
		pass.nativeWarp += nat.warp
	}
	l.tr.add(l.sess, "bench", "churn:"+m.Name, start, time.Now())
}
