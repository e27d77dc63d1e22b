// Command perfbench is the repository benchmark. It drives the simulator,
// the NVBit core, the instrumentation cache, the nvbitd daemon and the
// fault-injection campaign engine through their public Go APIs, times every
// call it makes from the outside, checks the outputs, and reports
// end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
//
//	bash perfbench/run.sh --workload suite-instr --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --list           # every metric, unit, layer and workload
//	bash perfbench/run.sh --all --seed 1   # the four workloads, one after another
//
// A run prints its record (seed, commit, host shape, every metric with its
// unit and sample count, failures by cause) and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. BENCHMARK.json at the
// repository root is written from the catalog in catalog.go by
// --write-json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times each workload sets up from scratch; setup_s
// is the median.
const setupReps = 9

// bench is one workload run: its parameters and what it measured.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	dir      string // private scratch directory, removed at exit
	tr       *tracer
	rss      *rssSampler

	correct   bool
	attempted int
	failed    int
	fails     map[string]int
	metrics   map[string]float64
	samples   map[string]int
	tailNote  string
	opRates   []float64 // per round: operations per busy second
	appRates  []float64 // per round: native app M warp instructions per busy second
	notes     []string
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// setN sets a metric and records how many samples it summarizes.
func (b *bench) setN(name string, v float64, n int) {
	b.metrics[name] = v
	b.samples[name] = n
}

// setTail sets op_tail_ms from latency samples and records its percentile.
func (b *bench) setTail(latMS []float64) {
	v, p := tail(latMS)
	b.setN("op_tail_ms", v, len(latMS))
	b.tailNote = fmt.Sprintf("op_tail_ms is p%g of %d samples", p, len(latMS))
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// endRound closes one measured round: it records the round's throughput
// (operations per second, native application M warp instructions per
// second), then collects garbage and returns freed memory to the OS, so
// a round's peak resident set does not include freed memory that earlier
// rounds left mapped.
func (b *bench) endRound(opRate, appMWIPS float64) {
	b.opRates = append(b.opRates, opRate)
	b.appRates = append(b.appRates, appMWIPS)
	debug.FreeOSMemory()
}

// setThroughput sets ops_per_s and app_mwips to the medians over rounds.
func (b *bench) setThroughput() {
	b.setN("ops_per_s", median(b.opRates), len(b.opRates))
	b.setN("app_mwips", median(b.appRates), len(b.appRates))
}

// fail counts one failed operation by cause.
func (b *bench) fail(cause string) {
	b.failed++
	b.fails[cause]++
}

// mismatch records a failed output check: the run is incorrect.
func (b *bench) mismatch(format string, args ...any) {
	b.correct = false
	b.fail("mismatch")
	b.note("CHECK FAILED: "+format, args...)
}

// classify names the cause of a failed operation. Errors from the daemon
// arrive as text, so the classification matches on the messages the
// simulator and driver produce as well as on typed errors.
func classify(err error) string {
	msg := err.Error()
	var ov *driver.OverloadError
	switch {
	case errors.As(err, &ov) || errors.Is(err, driver.ErrDeviceOverloaded) || strings.Contains(msg, "overload"):
		return "overload"
	case strings.Contains(msg, "out of code space"):
		return "codespace"
	case strings.Contains(msg, "out of device memory"):
		return "oom"
	}
	if _, ok := gpu.AsFault(err); ok || errors.Is(err, driver.ErrToolCallback) ||
		strings.Contains(msg, "fault") || strings.Contains(msg, "tool callback") {
		return "fault"
	}
	return "other"
}

// timeSetup runs setup setupReps times from scratch and sets setup_s to the
// median. Every repetition but the last is released immediately.
func (b *bench) timeSetup(setup func(rep int) (release func(), err error)) error {
	var durs []float64
	var release func()
	for rep := 0; rep < setupReps; rep++ {
		if release != nil {
			release()
		}
		debug.FreeOSMemory() // every repetition starts from fresh memory, as a new process does
		start := time.Now()
		rel, err := setup(rep)
		durs = append(durs, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		release = rel
	}
	b.setN("setup_s", median(durs), len(durs))
	debug.FreeOSMemory()
	b.rss.reset() // peak_rss_mb covers the measured rounds
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed; the same seed draws the same inputs")
	seconds := fs.Int("seconds", runSeconds, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for scratch state and trace files")
	list := fs.Bool("list", false, "print the metric catalog and exit")
	all := fs.Bool("all", false, "run every workload in turn, each in its own process")
	writeJSON := fs.String("write-json", "", "write BENCHMARK.json (derived from the catalog) to this path and exit")
	if err := fs.Parse(args); err != nil {
		return 64
	}
	switch {
	case *list:
		printCatalog(stdout)
		return 0
	case *writeJSON != "":
		if err := writeBenchFile(*writeJSON); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *all:
		return runAll(*seed, *seconds, *traceFlag, *out, stdout, stderr)
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].Name == *workload {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 64
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "work-"+wl.Name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{
		workload: wl.Name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, dir: dir, correct: true,
		fails: map[string]int{}, metrics: map[string]float64{}, samples: map[string]int{},
	}
	if b.trace {
		b.tr = newTracer()
	}
	b.rss = startRSSSampler()
	err = wl.run(b)
	b.rss.close()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.Name, err)
		return 1
	}
	if b.rss != nil && len(b.rss.peaks) > 0 {
		b.setN("peak_rss_mb", median(b.rss.peaks), len(b.rss.peaks))
	} else {
		b.set("peak_rss_mb", peakRSSMiB())
	}
	if b.trace {
		b.tr.nest()
		b.setSelfTimes()
		traces := filepath.Join(*out, "traces")
		if err := os.MkdirAll(traces, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		path := filepath.Join(traces, fmt.Sprintf("%s-seed%d.json", wl.Name, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		b.note("trace: %d spans written to %s", len(b.tr.spans), path)
	}
	b.print(stdout)
	return 0
}

// setSelfTimes reports each layer's self time as a share of the traced
// operation time (spans of direct per-layer calls are excluded).
func (b *bench) setSelfTimes() {
	self, roots := b.tr.selfByLayer(directSess)
	for _, l := range selfLayers {
		b.set(l+".self_pct", 100*ratio(float64(self[l]), float64(roots)))
	}
}

// directSess is the span session of direct per-layer calls (ptx.Compile,
// sass decoding and analyses) made outside the workload's operations.
const directSess = math.MaxUint64

// print writes the run record and the final JSON result line.
func (b *bench) print(w io.Writer) {
	fmt.Fprintf(w, "record: workload=%s seed=%d trace=%v window=%s commit=%s nproc=%d GOMAXPROCS=%d go=%s\n",
		b.workload, b.seed, b.trace, b.window, commit(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range b.notes {
		fmt.Fprintln(w, "note:", n)
	}
	defs := endToEnd
	if b.trace {
		// The per-layer metrics BENCHMARK.json lists, and those this
		// workload reports if it is unlisted.
		defs = nil
		listed := listedWorkloads()
		for _, d := range perLayer {
			if reportedBy(d, listed) || reportedBy(d, map[string]bool{b.workload: true}) {
				defs = append(defs, d)
			}
		}
	}
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{b.correct, b.attempted, b.failed, map[string]entry{}}
	for _, d := range defs {
		v := b.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		result.Metrics[d.Name] = entry{v, d.Unit}
		n := ""
		if s, ok := b.samples[d.Name]; ok {
			n = fmt.Sprintf(" (n=%d)", s)
		}
		exact := ""
		if d.Exact {
			exact = " [exact-repeat]"
		}
		fmt.Fprintf(w, "metric: %-32s %16.6g %-6s%s%s\n", d.Name, v, d.Unit, n, exact)
	}
	if b.tailNote != "" && !b.trace {
		fmt.Fprintln(w, "note:", b.tailNote)
	}
	causes := make([]string, 0, len(b.fails))
	for c := range b.fails {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	var parts []string
	for _, c := range causes {
		parts = append(parts, fmt.Sprintf("%s=%d", c, b.fails[c]))
	}
	fmt.Fprintf(w, "failures: %d of %d attempted (%.2f%%) %s\n", b.failed, b.attempted,
		100*ratio(float64(b.failed), float64(b.attempted)), strings.Join(parts, " "))
	data, _ := json.Marshal(result)
	fmt.Fprintln(w, string(data))
}

// commit names the source revision: run.sh passes it in, since the
// benchmark may run from a checkout that is not a git repository.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, "|")
}

// runAll runs each workload in its own process (so peak_rss_mb stays per
// workload) and passes their output through.
func runAll(seed uint64, seconds, trace int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		fmt.Fprintf(stdout, "== %s\n", w.Name)
		cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// printCatalog lists every workload and metric with what it measures.
func printCatalog(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %s\n  why:   %s\n  draws: %s\n  op:    %s\n", wl.Name, wl.Why, wl.Draws, wl.Op)
		if wl.Unlisted != "" {
			fmt.Fprintf(w, "  not in BENCHMARK.json: %s\n", wl.Unlisted)
		}
	}
	fmt.Fprintln(w, "\nend-to-end metrics (untraced runs, every workload):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-16s %-4s %-6s bound %.2f  %s\n", d.Name, d.Unit, d.Better, d.Bound, d.Doc)
	}
	fmt.Fprintln(w, "\nper-layer metrics (traced runs, every workload; 0 where the layer does no work):")
	for _, d := range perLayer {
		exact := ""
		if d.Exact {
			exact = " [exact-repeat count]"
		}
		fmt.Fprintf(w, "  %-30s %-5s %-6s layer %-8s moves %s; heavy in %s", d.Name, d.Unit, d.Better, d.Layer, d.Moves, d.Heavy)
		if d.Light != "" {
			fmt.Fprintf(w, ", light in %s", d.Light)
		}
		if d.From != "" {
			fmt.Fprintf(w, "; reported by %s only", d.From)
		}
		fmt.Fprintf(w, "%s\n      %s\n", exact, d.Doc)
	}
}
