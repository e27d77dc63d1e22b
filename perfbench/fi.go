package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"nvbitgo/gpusim"
	"nvbitgo/internal/campaign"
	"nvbitgo/internal/tools/faultinject"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

const (
	// fiVictim is fixed: injection-run throughput differs up to five-fold
	// between SpecAccel victims, far more than any regression bound, so a
	// seeded victim would make every seed a different benchmark. The seed
	// draws the manifest instead.
	fiVictim  = "ostencil"
	fiWorkers = 2
	// fiRoundRuns is the runs one Campaign.Run call (one timed round)
	// makes: two per worker. With one run per worker, the p95 round
	// latency took one of two levels about 20% apart from one process to
	// the next, following the two modes of the peak resident set.
	fiRoundRuns = 2 * fiWorkers
	// fiRuns is each campaign's planned run count.
	fiRuns = 60
	// fiMinRounds keeps at least 200 round samples, so op_tail_ms is
	// always a p95.
	fiMinRounds = 200
	// fiMaxWindows bounds the run, in windows, if runs are slow.
	fiMaxWindows = 2
)

func fiConfig(seed uint64) campaign.Config {
	return campaign.Config{Benchmark: fiVictim, Size: "small", Group: "gpr", Model: "mix", Runs: fiRuns, Seed: seed}
}

// fiOutcome is one finished campaign's outcome counts.
type fiOutcome struct {
	masked, sdc, due int
	detail           string
}

// runCampaign is the fi-campaign workload: whole campaigns, each opened on
// a fresh directory (profile, golden run, manifest) and run by two workers,
// until the window is spent. Every campaign of a seed must classify its
// runs identically.
func runCampaign(b *bench) error {
	victim, err := findBenchmark(fiVictim)
	if err != nil {
		return err
	}
	var ref nativeRef
	var c *campaign.Campaign
	var plans []float64
	err = b.timeSetup(func(rep int) (func(), error) {
		var err error
		if ref, err = runNative(victim); err != nil {
			return nil, err
		}
		start := time.Now()
		c, err = campaign.Open(filepath.Join(b.dir, fmt.Sprintf("setup%d", rep)), fiConfig(b.seed))
		plans = append(plans, time.Since(start).Seconds())
		return func() {}, err
	})
	if err != nil {
		return err
	}

	var runWall, reportDur []time.Duration
	var lat []float64
	var outcomes []fiOutcome
	var agg launchAgg
	var devNew []float64
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < b.window || len(lat) < fiMinRounds && time.Since(start) < fiMaxWindows*b.window; k++ {
		traced := b.trace && k%2 == 1
		tr := b.tr
		if !traced {
			tr = nil
		}
		sess := uint64(k + 1)
		if c == nil {
			dir := filepath.Join(b.dir, fmt.Sprintf("c%d", k))
			t0 := time.Now()
			err := tr.do(sess, "campaign", "campaign.Open", func() (err error) {
				c, err = campaign.Open(dir, fiConfig(b.seed))
				return err
			})
			plans = append(plans, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
		}
		var wall time.Duration
		for {
			missing := len(c.Missing())
			if missing == 0 {
				break
			}
			want := min(missing, fiRoundRuns)
			var n int
			t0 := time.Now()
			err := tr.do(sess, "campaign", "Campaign.Run", func() (err error) {
				n, err = c.Run(fiWorkers, fiRoundRuns)
				return err
			})
			d := time.Since(t0)
			b.attempted += want
			if err != nil || n != want {
				b.failed += want - n
				b.fails[classify(fmt.Errorf("campaign run: %v", err))] += want - n
				b.note("campaign %d: %d of %d runs recorded: %v", k, n, want, err)
				if n == 0 {
					return fmt.Errorf("campaign %d made no progress: %w", k, err)
				}
			}
			wall += d
			lat = append(lat, ms(d))
		}
		runWall = append(runWall, wall)
		b.rss.mark()
		b.endRound(ratio(fiRuns, wall.Seconds()), ratio(float64(ref.stats.WarpInstrs)*fiRuns/1e6, wall.Seconds()))
		t0 := time.Now()
		var rep campaign.Report
		tr.do(sess, "campaign", "Campaign.Report", func() error {
			rep = c.Report()
			return nil
		})
		reportDur = append(reportDur, time.Since(t0))
		out := fiOutcome{rep.Masked.Count, rep.SDC.Count, rep.DUE.Count, fmt.Sprint(rep.DUEDetail)}
		if total := out.masked + out.sdc + out.due; total != rep.Planned || rep.Completed != rep.Planned {
			b.mismatch("campaign %d: masked %d + sdc %d + due %d = %d, planned %d", k, out.masked, out.sdc, out.due, total, rep.Planned)
		}
		if k > 0 && out != outcomes[0] {
			b.mismatch("campaign %d outcomes %+v differ from campaign 0 %+v", k, out, outcomes[0])
		}
		outcomes = append(outcomes, out)
		if traced {
			if err := b.probeVictim(victim, ref, sess, &agg, &devNew); err != nil {
				return err
			}
		}
		c = nil
	}

	b.setThroughput()
	b.setN("op_p50_ms", median(lat), len(lat))
	b.setTail(lat)
	o := outcomes[0]
	b.note("%d campaigns of %d runs on %s: masked %d, sdc %d, due %d %s", len(outcomes), fiRuns, fiVictim, o.masked, o.sdc, o.due, o.detail)
	b.note("fi_runs_per_s = ops_per_s (runs per second of Campaign.Run); op_*_ms are rounds of %d runs", fiRoundRuns)

	if b.trace {
		b.setN("campaign.plan_s", median(plans), len(plans))
		b.setN("campaign.report_ms", median(durationsMS(reportDur)), len(reportDur))
		b.set("campaign.masked", float64(o.masked))
		b.set("campaign.sdc", float64(o.sdc))
		b.set("campaign.due", float64(o.due))
		b.setN("gpu.device_new_ms", median(devNew), len(devNew))
		b.setLaunchLayer(&agg)
		perRun := make([]time.Duration, len(runWall))
		for i, w := range runWall {
			perRun[i] = w / fiRuns
		}
		b.setOverhead(perRun)
	}
	b.setFailMetrics()
	return nil
}

// probeVictim runs the victim once the way a campaign run does — a fresh
// device, the injection tool attached but disarmed, the sequential
// scheduler and the campaign watchdog — through the timed launcher, so the
// traced run can report the gpu layer of a campaign from the outside. Its
// output must equal the native run's.
func (b *bench) probeVictim(victim *specaccel.Benchmark, ref nativeRef, sess uint64, agg *launchAgg, devNew *[]float64) error {
	start := time.Now()
	api, err := gpusim.New(gpusim.Volta)
	end := time.Now()
	b.tr.add(sess, "gpu", "gpusim.New", start, end)
	if err != nil {
		return err
	}
	defer api.Close()
	*devNew = append(*devNew, ms(end.Sub(start)))
	tool := faultinject.New(faultinject.Injection{Group: faultinject.GroupGPR, Target: faultinject.NoTarget})
	epoch := time.Now()
	var nv *nvbit.NVBit
	if err := b.tr.do(sess, "core", "nvbit.Attach", func() (err error) {
		nv, err = nvbit.Attach(api, tool, nvbit.WithScheduler(nvbit.SchedulerSequential),
			nvbit.WithWatchdogInterval(campaign.DefaultWatchdog), nvbit.WithTracing(0))
		return err
	}); err != nil {
		return err
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		return err
	}
	l := newTimedLauncher(ctx, api.Device(), b.tr, sess, "driver")
	start = time.Now()
	out, err := victim.RunCapture(l, specaccel.Small)
	b.tr.add(sess, "bench", "probe:"+victim.Name, start, time.Now())
	b.tr.fold(sess, nv.Profiler(), epoch)
	agg.absorb(l)
	if err != nil {
		return fmt.Errorf("victim probe: %w", err)
	}
	if !bytes.Equal(out, ref.out) {
		b.mismatch("victim probe: disarmed output differs from native")
	}
	return nil
}

func findBenchmark(name string) (*specaccel.Benchmark, error) {
	for _, bm := range specaccel.Benchmarks() {
		if bm.Name == name {
			return bm, nil
		}
	}
	return nil, fmt.Errorf("no SpecAccel benchmark %q", name)
}
