package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"

	"nvbitgo/gpusim"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/nvbitd"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/registry"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

const (
	daemonClients = 2
	// daemonSessions is each client's sessions per round: two clients of
	// 120 sessions is the size at which the seed commit's per-session leaks
	// (device code space, heap, memcheck rings) fail most sessions of a
	// round, and the benchmark keeps that visible.
	daemonSessions = 120
	// daemonMinOK keeps at least 200 completed-session samples, so
	// op_tail_ms is always a p95.
	daemonMinOK = 200
	// daemonMaxWindows bounds the run, in windows, if few sessions complete.
	daemonMaxWindows = 4
)

// tenant is one (tool, benchmark, injection mode) triple of the mix and
// its standalone reference report.
type tenant struct {
	tool   string
	bench  *specaccel.Benchmark
	inject string
	report string
}

// daemonBench is every tenant's benchmark: the cheapest SpecAccel entry, so
// a round of daemonClients*daemonSessions sessions takes about two seconds
// and a run holds seven or more rounds. Heavier benchmarks stretch a round
// to 6-15 s, and seed-drawn ones let the tool-to-benchmark pairing move the
// session-latency median up to three-fold between seeds.
const daemonBench = "ostencil"

// drawTenants returns one tenant per registry tool except faultinject, all
// on daemonBench. Injection modes alternate over the sorted tool names, the
// same for every seed: inline injection makes per-instruction tools several
// times cheaper, so a seeded mode per tool would move the session-latency
// median between seeds by more than any bound. The seed draws the session order
// (drawSessions).
func drawTenants() ([]*tenant, error) {
	bm, err := findBenchmark(daemonBench)
	if err != nil {
		return nil, err
	}
	var out []*tenant
	for _, tool := range registry.Names() {
		if tool != "faultinject" {
			out = append(out, &tenant{tool: tool, bench: bm, inject: [2]string{"trampoline", "inline"}[len(out)%2]})
		}
	}
	return out, nil
}

// drawSessions draws one client's session order for a round: every tenant
// equally often (as far as daemonSessions allows), in a seeded order.
func drawSessions(seed uint64, round, client, tenants int) []int {
	seq := make([]int, daemonSessions)
	for i := range seq {
		seq[i] = i % tenants
	}
	shuffle(newRNG(seed, uint64(1000+round*daemonClients+client)), seq)
	return seq
}

// standalone runs one tenant in-process on a fresh device, exactly as the
// daemon would run it, and returns the tool's report.
func standalone(t *tenant) (string, error) {
	api, err := gpusim.New(gpusim.Volta)
	if err != nil {
		return "", err
	}
	defer api.Close()
	inst, err := registry.New(t.tool, registry.Options{})
	if err != nil {
		return "", err
	}
	mode, err := nvbit.ParseInjectionMode(t.inject)
	if err != nil {
		return "", err
	}
	sess, err := nvbit.OpenSession(api, inst.Tool, nvbit.WithScheduler(nvbit.SchedulerSequential), nvbit.WithInjectionMode(mode))
	if err != nil {
		return "", err
	}
	if err := t.bench.Run(sess.Ctx(), specaccel.Small); err != nil {
		return "", err
	}
	if err := sess.Close(); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if _, err := inst.Report(&buf, sess.NVBit()); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// daemon is one in-process nvbitd at its default configuration (one pool
// device, sequential scheduler, trampoline injection by default) with a
// shared disk JIT cache, serving on a unix socket inside the run directory.
type daemon struct {
	srv      *nvbitd.Server
	sock     string
	cacheDir string
	done     chan error
}

func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{sock: filepath.Join(dir, "d.sock"), cacheDir: filepath.Join(dir, "cache"), done: make(chan error, 1)}
	srv, err := nvbitd.NewServer(nvbitd.Config{
		Family: sass.Volta, Scheduler: gpu.SchedulerSequential, Devices: 1, QueueLimit: -1,
		CacheDir: d.cacheDir, Inject: "trampoline",
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("unix", d.sock)
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.srv = srv
	go func() { d.done <- srv.Serve(ln) }()
	return d, nil
}

// stop closes the daemon and waits for its accept loop to return.
func (d *daemon) stop() error {
	err := d.srv.Close()
	if serr := <-d.done; err == nil {
		err = serr
	}
	return err
}

// clientStats is what one client observed in one round.
type clientStats struct {
	ok, attempted                      int
	fails                              map[string]int
	failNotes                          []string
	mismatches                         []string
	lat                                []float64 // completed sessions, ms
	open, load, launch, report, closeT []float64
	rpcs, cycles                       int
	nativeWarp                         uint64
	channelTool                        map[string][]string // tool -> reports
}

var droppedRe = regexp.MustCompile(`(\d+) dropped`)
var memtraceChanRe = regexp.MustCompile(`memtrace channel: (\d+) flushes .*, (\d+) bytes shipped`)

// runDaemon is the daemon-mix workload: rounds of two closed-loop clients,
// each running daemonSessions sessions against a fresh in-process daemon;
// every completed session's report is checked against the standalone
// in-process run of its tenant. A fresh daemon per round makes every round
// start from a clean device; within a round the per-session leaks still
// fail most sessions, and each failure is counted by cause.
func runDaemon(b *bench) error {
	var tenants []*tenant
	var native uint64 // the benchmark's native warp instructions
	var d *daemon
	round := 0
	err := b.timeSetup(func(rep int) (func(), error) {
		var err error
		if tenants, err = drawTenants(); err != nil {
			return nil, err
		}
		for _, t := range tenants {
			if t.report, err = standalone(t); err != nil {
				return nil, fmt.Errorf("standalone %s/%s/%s: %w", t.tool, t.bench.Name, t.inject, err)
			}
		}
		ref, err := runNative(tenants[0].bench)
		if err != nil {
			return nil, err
		}
		native = ref.stats.WarpInstrs
		d, err = startDaemon(filepath.Join(b.dir, fmt.Sprintf("s%d", rep)))
		if err != nil {
			return nil, err
		}
		dd := d
		return func() { dd.stop() }, nil
	})
	if err != nil {
		return err
	}
	for _, t := range tenants {
		b.note("tenant %-16s %-10s %s", t.tool, t.bench.Name, t.inject)
	}

	var all []clientStats
	var roundWall []time.Duration
	var objects int
	var ok int
	start := time.Now()
	for ; round == 0 || time.Since(start) < b.window || ok < daemonMinOK && time.Since(start) < daemonMaxWindows*b.window; round++ {
		if d == nil {
			if d, err = startDaemon(filepath.Join(b.dir, fmt.Sprintf("r%d", round))); err != nil {
				return err
			}
		}
		traced := b.trace && round%2 == 1
		stats := make([]clientStats, daemonClients)
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < daemonClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				stats[c] = b.daemonClient(d.sock, tenants, native, round, c, traced)
			}(c)
		}
		wg.Wait()
		roundWall = append(roundWall, time.Since(t0))
		if round == 0 {
			entries, _ := os.ReadDir(filepath.Join(d.cacheDir, "objects"))
			objects = len(entries)
		}
		if err := d.stop(); err != nil {
			return err
		}
		d = nil
		var roundOK int
		var roundWarp uint64
		for _, s := range stats {
			roundOK += s.ok
			roundWarp += s.nativeWarp
		}
		ok += roundOK
		wall := roundWall[round].Seconds()
		b.rss.mark()
		b.endRound(ratio(float64(roundOK), wall), ratio(float64(roundWarp)/1e6, wall))
		b.note("round %d: %d of %d sessions completed in %.2fs", round, roundOK, stats[0].attempted+stats[1].attempted, wall)
		all = append(all, stats...)
	}

	var lat, open, load, launch, report, closeT []float64
	var rpcs, cycles int
	channel := map[string][]string{}
	for _, s := range all {
		b.attempted += s.attempted
		for cause, n := range s.fails {
			b.failed += n
			b.fails[cause] += n
		}
		for _, m := range s.mismatches {
			b.mismatch("%s", m)
		}
		lat = append(lat, s.lat...)
		open = append(open, s.open...)
		load = append(load, s.load...)
		launch = append(launch, s.launch...)
		report = append(report, s.report...)
		closeT = append(closeT, s.closeT...)
		rpcs += s.rpcs
		cycles += s.cycles
		for tool, reps := range s.channelTool {
			channel[tool] = append(channel[tool], reps...)
		}
	}
	if len(all) > 0 && len(all[0].failNotes) > 0 {
		b.note("first failure of round 0, client 0: %s", all[0].failNotes[0])
	}
	b.setThroughput()
	b.setN("op_p50_ms", median(lat), len(lat))
	b.setTail(lat)
	b.note("sessions_ok_per_s = ops_per_s; session_p50_ms = op_p50_ms; session_tail_ms = op_tail_ms; %d rounds", round)

	if b.trace {
		b.setN("nvbitd.open_ms", median(open), len(open))
		b.setN("nvbitd.loadptx_ms", median(load), len(load))
		b.setN("nvbitd.launch_ms", median(launch), len(launch))
		b.setN("nvbitd.report_ms", median(report), len(report))
		b.setN("nvbitd.close_ms", median(closeT), len(closeT))
		b.setN("nvbitd.rpcs_per_session", ratio(float64(rpcs), float64(ok)), ok)
		b.setN("driver.gate_cycles_per_session", ratio(float64(cycles), float64(ok)), ok)
		b.set("driver.shed_sessions", float64(b.fails["overload"]))
		b.set("jitcache.objects_on_disk", float64(objects))
		b.setChannelMetrics(channel)
		b.setOverhead(roundWall)
	}
	b.setFailMetrics()
	return nil
}

// setChannelMetrics parses the channel tools' reports of completed
// sessions: memtrace reports flushes and bytes shipped; memtrace, cachesim
// and itrace report dropped records.
func (b *bench) setChannelMetrics(reports map[string][]string) {
	var flushes, bytesShipped, mt int
	for _, r := range reports["memtrace"] {
		if m := memtraceChanRe.FindStringSubmatch(r); m != nil {
			f, _ := strconv.Atoi(m[1])
			by, _ := strconv.Atoi(m[2])
			flushes += f
			bytesShipped += by
			mt++
		}
	}
	var dropped, sessions int
	for _, tool := range []string{"memtrace", "cachesim", "itrace"} {
		for _, r := range reports[tool] {
			if m := droppedRe.FindStringSubmatch(r); m != nil {
				n, _ := strconv.Atoi(m[1])
				dropped += n
				sessions++
			}
		}
	}
	b.setN("channel.flushes_per_session", ratio(float64(flushes), float64(mt)), mt)
	b.setN("channel.bytes_per_session", ratio(float64(bytesShipped), float64(mt)), mt)
	b.setN("channel.dropped_per_session", ratio(float64(dropped), float64(sessions)), sessions)
}

// daemonClient runs one client's closed loop for a round: each session is
// open -> the tenant's benchmark -> report -> close, and the next session
// starts when the previous one has finished.
func (b *bench) daemonClient(sock string, tenants []*tenant, native uint64, round, client int, traced bool) clientStats {
	tr := b.tr
	if !traced {
		tr = nil
	}
	s := clientStats{fails: map[string]int{}, channelTool: map[string][]string{}}
	failed := func(t *tenant, err error) {
		cause := classify(err)
		s.fails[cause]++
		if len(s.failNotes) < 3 {
			s.failNotes = append(s.failNotes, fmt.Sprintf("%s/%s: %v", t.tool, t.bench.Name, err))
		}
	}
	for i, ti := range drawSessions(b.seed, round, client, len(tenants)) {
		t := tenants[ti]
		s.attempted++
		sess := uint64(1+round)<<32 | uint64(client)<<20 | uint64(i)
		start := time.Now()
		var rs *nvbitd.RemoteSession
		err := tr.do(sess, "nvbitd", "nvbitd.Dial", func() (err error) {
			rs, err = nvbitd.Dial(sock, nvbitd.OpenSpec{Tool: t.tool, Inject: t.inject})
			return err
		})
		opened := time.Now()
		if err != nil {
			failed(t, err)
			continue
		}
		s.open = append(s.open, ms(opened.Sub(start)))
		l := newTimedLauncher(rs, nil, tr, sess, "nvbitd")
		err = t.bench.Run(l, specaccel.Small)
		for _, d := range l.loads {
			s.load = append(s.load, ms(d))
		}
		for _, o := range l.launches {
			if o.err == nil {
				s.launch = append(s.launch, ms(o.dur))
			}
		}
		var res *nvbitd.ReportResult
		if err == nil {
			t0 := time.Now()
			res, err = rs.Report()
			t1 := time.Now()
			tr.add(sess, "nvbitd", "RemoteSession.Report", t0, t1)
			if err == nil {
				s.report = append(s.report, ms(t1.Sub(t0)))
			}
		}
		t0 := time.Now()
		cerr := rs.Close()
		end := time.Now()
		tr.add(sess, "nvbitd", "RemoteSession.Close", t0, end)
		tr.add(sess, "bench", "session:"+t.tool, start, end)
		if cerr == nil {
			s.closeT = append(s.closeT, ms(end.Sub(t0)))
		}
		if err == nil {
			err = cerr
		}
		if err != nil {
			failed(t, err)
			continue
		}
		if res.Text != t.report {
			s.mismatches = append(s.mismatches, fmt.Sprintf("round %d client %d session %d: %s/%s/%s: daemon report %q, standalone %q",
				round, client, i, t.tool, t.bench.Name, t.inject, res.Text, t.report))
			continue
		}
		s.ok++
		s.lat = append(s.lat, ms(end.Sub(start)))

		s.rpcs += 3 + l.calls // open, report, close and the workload's calls
		s.cycles += int(res.Cycles)
		s.nativeWarp += native
		s.channelTool[t.tool] = append(s.channelTool[t.tool], res.Text)
	}
	return s
}
