package core

import (
	"os"
	"path/filepath"
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/sass"
)

// cacheRun is one full attach→instrument→launch cycle against the given
// cache: a fresh device and framework instance every time, so a second call
// with a fresh cache instance over the same directory models a second
// process reusing the persistent tier.
type cacheRunResult struct {
	env     *testEnv
	count   uint64
	results []uint32
}

func cacheRun(t *testing.T, cache *jitcache.Cache, fullSave bool, sites func(idx int) bool) cacheRunResult {
	t.Helper()
	var ctr uint64
	tool := &testTool{}
	env := setup(t, sass.Volta, tool, WithJITCache(cache))
	if fullSave {
		env.nv.SetInjectionMode(InjectFullSave)
	}
	ctr, err := env.nv.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	tool.onLaunch = func(n *NVBit, p *driver.CallParams) {
		f := p.Launch.Func
		if n.IsInstrumented(f) {
			return
		}
		insts, err := n.GetInstrs(f)
		if err != nil {
			t.Error(err)
			return
		}
		for _, i := range insts {
			if sites != nil && !sites(i.Idx()) {
				continue
			}
			n.InsertCallArgs(i, "tally", IPointBefore, ArgConst64(ctr))
		}
	}
	env.launch(t)
	count, err := env.nv.ReadU64(ctr)
	if err != nil {
		t.Fatal(err)
	}
	return cacheRunResult{env: env, count: count, results: env.results(t)}
}

func newDiskCache(t *testing.T, dir string) *jitcache.Cache {
	t.Helper()
	c, err := jitcache.New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sameResults(t *testing.T, what string, a, b []uint32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: result lengths diverge: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: result[%d] = %d, want %d", what, i, b[i], a[i])
		}
	}
}

// TestCacheWarmAttachSkipsCodegen is the headline contract: a second attach
// through a fresh cache instance over the same directory (a second process,
// effectively) misses nothing, spends zero time in codegen, materializes all
// trampolines from cached artifacts, and produces identical tool output and
// kernel results.
func TestCacheWarmAttachSkipsCodegen(t *testing.T) {
	dir := t.TempDir()

	cold := cacheRun(t, newDiskCache(t, dir), false, nil)
	coldStats := cold.env.nv.JITStats()
	if coldStats.CacheMisses == 0 {
		t.Fatal("cold run reported no cache misses")
	}
	if coldStats.CacheBytesWritten == 0 {
		t.Fatal("cold run wrote no bytes to the disk tier")
	}

	warmCache := newDiskCache(t, dir)
	warm := cacheRun(t, warmCache, false, nil)
	warmStats := warm.env.nv.JITStats()

	if warmStats.CacheMisses != 0 {
		t.Fatalf("warm run missed %d times, want 0", warmStats.CacheMisses)
	}
	if warmStats.CacheLookups == 0 || warmStats.CacheHits != warmStats.CacheLookups {
		t.Fatalf("warm run hits/lookups = %d/%d, want all lookups to hit",
			warmStats.CacheHits, warmStats.CacheLookups)
	}
	comps, labels := warmStats.Components()
	if labels[4] != "codegen" {
		t.Fatalf("component 4 is %q, want codegen", labels[4])
	}
	if comps[4] != 0 {
		t.Fatalf("warm run spent %v in codegen, want exactly 0", comps[4])
	}
	if warmStats.TrampolinesFromCache == 0 ||
		warmStats.TrampolinesFromCache != warmStats.TrampolinesEmitted {
		t.Fatalf("warm run materialized %d/%d trampolines from cache, want all",
			warmStats.TrampolinesFromCache, warmStats.TrampolinesEmitted)
	}
	if st := warmCache.Stats(); st.DiskHits == 0 {
		t.Fatalf("warm cache instance served no disk hits: %+v", st)
	}
	if cold.count != warm.count {
		t.Fatalf("instruction counts diverge: cold %d, warm %d", cold.count, warm.count)
	}
	sameResults(t, "warm vs cold", cold.results, warm.results)
}

// TestCacheCorruptDiskEntriesFallBack flips one byte in every persisted
// object between a cold and a warm run. The warm run must detect the
// corruption (checksum), evict the damaged entries, regenerate, and still
// produce identical results — corruption can cost time, never correctness.
func TestCacheCorruptDiskEntriesFallBack(t *testing.T) {
	dir := t.TempDir()

	cold := cacheRun(t, newDiskCache(t, dir), false, nil)

	objects, err := filepath.Glob(filepath.Join(dir, "objects", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objects) == 0 {
		t.Fatal("cold run persisted no objects")
	}
	for _, path := range objects {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a payload bit when the entry has one, a header bit otherwise.
		idx := len(raw) - 1
		if len(raw) > 50 {
			idx = 50
		}
		raw[idx] ^= 0x20
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warmCache := newDiskCache(t, dir)
	warm := cacheRun(t, warmCache, false, nil)
	warmStats := warm.env.nv.JITStats()

	st := warmCache.Stats()
	if st.CorruptEvicted == 0 {
		t.Fatalf("no corrupt entries evicted: %+v", st)
	}
	if warmStats.CacheMisses == 0 {
		t.Fatal("corrupted entries were served as hits")
	}
	if cold.count != warm.count {
		t.Fatalf("instruction counts diverge after corruption: cold %d, warm %d", cold.count, warm.count)
	}
	sameResults(t, "corrupt-fallback", cold.results, warm.results)

	// The regenerated objects must be valid again: a third run hits cleanly.
	third := cacheRun(t, newDiskCache(t, dir), false, nil)
	if s := third.env.nv.JITStats(); s.CacheMisses != 0 {
		t.Fatalf("post-repair run missed %d times, want 0", s.CacheMisses)
	}
	if cold.count != third.count {
		t.Fatalf("post-repair count %d, want %d", third.count, cold.count)
	}
}

// TestCacheFullSaveNeverServedLivenessArtifact pins the key invariant for
// InjectFullSave: artifacts generated with liveness-minimal save sets are
// unreachable from a full-save attach (and vice versa) because the
// injection mode is part of the code-object fingerprint. A stale liveness
// artifact served to a full-save run would silently under-save — this test
// makes that a miss by construction.
func TestCacheFullSaveNeverServedLivenessArtifact(t *testing.T) {
	dir := t.TempDir()

	minimal := cacheRun(t, newDiskCache(t, dir), false, nil)
	minStats := minimal.env.nv.JITStats()
	regsPerThread := minimal.env.nv.hal.RegsPerThread
	if minStats.AvgSavedRegs() >= float64(regsPerThread) {
		t.Fatalf("liveness run saved %.1f regs/site, want below the full file (%d)",
			minStats.AvgSavedRegs(), regsPerThread)
	}

	// Full-save attach against the liveness-populated directory: the lift
	// object may hit, but every trampoline must be freshly generated.
	full := cacheRun(t, newDiskCache(t, dir), true, nil)
	fullStats := full.env.nv.JITStats()
	if fullStats.TrampolinesFromCache != 0 {
		t.Fatalf("full-save run materialized %d trampolines from the liveness cache, want 0",
			fullStats.TrampolinesFromCache)
	}
	if got := fullStats.AvgSavedRegs(); got != float64(regsPerThread) {
		t.Fatalf("full-save run saved %.1f regs/site, want the full file (%d)", got, regsPerThread)
	}
	if minimal.count != full.count {
		t.Fatalf("instruction counts diverge: minimal %d, full %d", minimal.count, full.count)
	}
	sameResults(t, "full vs minimal", minimal.results, full.results)

	// A second full-save run now hits its own artifact — and still reports
	// full-file save sets, proving the cached artifact preserved them.
	fullWarm := cacheRun(t, newDiskCache(t, dir), true, nil)
	fwStats := fullWarm.env.nv.JITStats()
	if fwStats.TrampolinesFromCache == 0 {
		t.Fatal("second full-save run did not hit the full-save artifact")
	}
	if got := fwStats.AvgSavedRegs(); got != float64(regsPerThread) {
		t.Fatalf("cached full-save artifact saved %.1f regs/site, want %d", got, regsPerThread)
	}
	if full.count != fullWarm.count {
		t.Fatalf("counts diverge between full-save runs: %d vs %d", full.count, fullWarm.count)
	}
}

// TestCacheVersionSkewRegenerates is the mixed-version regression test for
// the artifactVersion bump: an artifact serialized under an older codec
// version but reachable under the current key (a version-skewed writer) must
// decode-fail into a miss at BOTH cache tiers — memory LRU and disk — and
// regenerate, never hard-error the attach. Ordinary skew is unreachable by
// key rotation (artifactVersion is hashed into every key); this test plants
// the blob under the live key to exercise the decode-mismatch safety net
// behind it.
func TestCacheVersionSkewRegenerates(t *testing.T) {
	dir := t.TempDir()

	// Baseline: populate the cache and record ground-truth output.
	cold := cacheRun(t, newDiskCache(t, dir), false, nil)
	fs := cold.env.nv.funcs[cold.env.fn]
	if fs == nil {
		t.Fatal("cold run left no funcState for the kernel")
	}
	key := cold.env.nv.codeKey(fs)

	// A minimal well-formed v1 blob: version=1, zero tool names, zero sites.
	// It passes the store's integrity checksum (Put recomputes it) but must
	// fail the artifact codec's version check.
	v1 := func() []byte {
		var w artWriter
		w.u32(1)
		w.u32(0)
		w.u32(0)
		return w.b
	}

	// Memory tier: Put seeds both the seeding instance's LRU and the disk;
	// reusing the same instance makes the lookup hit in memory first.
	memCache := newDiskCache(t, dir)
	if err := memCache.Put(key, v1()); err != nil {
		t.Fatal(err)
	}
	mem := cacheRun(t, memCache, false, nil)
	memStats := mem.env.nv.JITStats()
	if memStats.CacheMisses == 0 {
		t.Fatal("v1 artifact in the memory tier was served as a usable hit")
	}
	if memStats.TrampolinesFromCache != 0 {
		t.Fatalf("materialized %d trampolines from a version-skewed artifact, want 0",
			memStats.TrampolinesFromCache)
	}
	if cold.count != mem.count {
		t.Fatalf("counts diverge after memory-tier skew: cold %d, skewed %d", cold.count, mem.count)
	}
	sameResults(t, "memory-tier skew", cold.results, mem.results)

	// Disk tier: seed through one instance, read through a fresh one whose
	// memory LRU is empty, so the skewed blob is served from disk.
	if err := newDiskCache(t, dir).Put(key, v1()); err != nil {
		t.Fatal(err)
	}
	disk := cacheRun(t, newDiskCache(t, dir), false, nil)
	diskStats := disk.env.nv.JITStats()
	if diskStats.CacheMisses == 0 {
		t.Fatal("v1 artifact in the disk tier was served as a usable hit")
	}
	if diskStats.TrampolinesFromCache != 0 {
		t.Fatalf("materialized %d trampolines from a version-skewed disk artifact, want 0",
			diskStats.TrampolinesFromCache)
	}
	if cold.count != disk.count {
		t.Fatalf("counts diverge after disk-tier skew: cold %d, skewed %d", cold.count, disk.count)
	}
	sameResults(t, "disk-tier skew", cold.results, disk.results)

	// The skewed entry was evicted on first decode failure; it must not have
	// been rewritten in the old format. A final fresh-instance run can miss
	// (the fallback regeneration does not re-populate) but must never see a
	// version error — and still matches.
	final := cacheRun(t, newDiskCache(t, dir), false, nil)
	if cold.count != final.count {
		t.Fatalf("counts diverge on post-skew run: cold %d, final %d", cold.count, final.count)
	}
	sameResults(t, "post-skew", cold.results, final.results)
}

// TestCachePlanChangeMisses: a different instrumentation plan over the same
// function must miss the code cache (the plan is hashed site by site,
// argument by argument) while still reusing the lift object.
func TestCachePlanChangeMisses(t *testing.T) {
	dir := t.TempDir()

	all := cacheRun(t, newDiskCache(t, dir), false, nil)

	evenCache := newDiskCache(t, dir)
	even := cacheRun(t, evenCache, false, func(idx int) bool { return idx%2 == 0 })
	evenStats := even.env.nv.JITStats()
	if evenStats.TrampolinesFromCache != 0 {
		t.Fatalf("changed plan materialized %d trampolines from cache, want 0",
			evenStats.TrampolinesFromCache)
	}
	if st := evenCache.Stats(); st.DiskHits == 0 {
		t.Fatalf("lift object was not reused across plans: %+v", st)
	}
	if even.count == 0 || even.count >= all.count {
		t.Fatalf("even-site count %d, want nonzero and below all-site count %d", even.count, all.count)
	}
	sameResults(t, "plan-change", all.results, even.results)
}

// TestCacheLiftArtifactRoundtrip: disassembly served from the cache is
// textually and structurally identical to a fresh lift — per-instruction
// SASS and the basic-block partition survive the artifact codec.
func TestCacheLiftArtifactRoundtrip(t *testing.T) {
	dir := t.TempDir()

	capture := func(cache *jitcache.Cache) ([]string, [][2]int) {
		env := setup(t, sass.Volta, &testTool{}, WithJITCache(cache))
		insts, err := env.nv.GetInstrs(env.fn)
		if err != nil {
			t.Fatal(err)
		}
		var text []string
		for _, i := range insts {
			text = append(text, i.GetSASS())
		}
		blocks, err := env.nv.GetBasicBlocks(env.fn)
		if err != nil {
			t.Fatal(err)
		}
		var ranges [][2]int
		for _, b := range blocks {
			if len(b.Instrs) == 0 {
				t.Fatal("empty basic block")
			}
			ranges = append(ranges, [2]int{b.Instrs[0].Idx(), b.Instrs[len(b.Instrs)-1].Idx()})
		}
		return text, ranges
	}

	coldText, coldBlocks := capture(newDiskCache(t, dir))

	warmCache := newDiskCache(t, dir)
	warmText, warmBlocks := capture(warmCache)
	if st := warmCache.Stats(); st.DiskHits == 0 {
		t.Fatalf("lift object not served from disk: %+v", st)
	}
	if len(coldText) == 0 || len(coldBlocks) == 0 {
		t.Fatal("empty lift output")
	}
	if len(warmText) != len(coldText) {
		t.Fatalf("instruction counts diverge: %d vs %d", len(warmText), len(coldText))
	}
	for i := range coldText {
		if coldText[i] != warmText[i] {
			t.Fatalf("SASS diverges at %d: cold %q, warm %q", i, coldText[i], warmText[i])
		}
	}
	if len(warmBlocks) != len(coldBlocks) {
		t.Fatalf("block counts diverge: %d vs %d", len(warmBlocks), len(coldBlocks))
	}
	for i := range coldBlocks {
		if coldBlocks[i] != warmBlocks[i] {
			t.Fatalf("block %d diverges: cold %v, warm %v", i, coldBlocks[i], warmBlocks[i])
		}
	}
}
