package gpu

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"nvbitgo/internal/sass"
)

func newTestDevice(t *testing.T, f sass.Family) *Device {
	t.Helper()
	d, err := New(DefaultConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMallocFreeRoundTrip(t *testing.T) {
	d := newTestDevice(t, sass.Pascal)
	a, err := d.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("overlapping allocations")
	}
	data := []byte{1, 2, 3, 4}
	if err := d.Write(a, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := d.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("got %v", got)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err == nil {
		t.Fatal("double free accepted")
	}
	if err := d.Free(b); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorStress(t *testing.T) {
	// Property: live allocations never overlap and freeing everything
	// restores the full arena.
	a := newAllocator(0x1000, 1<<20)
	r := rand.New(rand.NewSource(1))
	type block struct{ base, size uint64 }
	var live []block
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && r.Intn(2) == 0 {
			k := r.Intn(len(live))
			if err := a.free(live[k].base); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
			continue
		}
		n := uint64(r.Intn(4096) + 1)
		base, err := a.alloc(n)
		if err != nil {
			continue // arena full; fine
		}
		for _, b := range live {
			if base < b.base+b.size && b.base < base+n {
				t.Fatalf("allocation [%#x,+%d) overlaps [%#x,+%d)", base, n, b.base, b.size)
			}
		}
		live = append(live, block{base, n})
	}
	for _, b := range live {
		if err := a.free(b.base); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.spans) != 1 || a.spans[0].size != 1<<20 {
		t.Fatalf("arena not fully coalesced: %+v", a.spans)
	}
}

func TestMemoryRangeChecks(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	if err := d.Write(0, []byte{1}); err == nil {
		t.Fatal("write to null page accepted")
	}
	if err := d.Read(d.cfg.GlobalMemBytes-2, make([]byte, 8)); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

func TestCodeSpace(t *testing.T) {
	d := newTestDevice(t, sass.Maxwell)
	insts, err := sass.ParseProgram("MOVI R0, 42\nEXIT")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := d.Codec().EncodeAll(insts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := d.AllocCode(len(insts))
	if err != nil {
		t.Fatal(err)
	}
	if base == 0 {
		t.Fatal("code allocated at reserved word 0")
	}
	if err := d.WriteCode(base, raw); err != nil {
		t.Fatal(err)
	}
	back, err := d.ReadCode(base, len(insts))
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(raw) {
		t.Fatal("code readback mismatch")
	}
	// Decode cache invalidation: fetch, overwrite, fetch again.
	in, err := d.fetch(int32(base))
	if err != nil || in.Op != sass.OpMOVI {
		t.Fatalf("fetch: %v %v", in.Op, err)
	}
	nop := sass.NewInst(sass.OpNOP)
	buf := make([]byte, d.Codec().InstBytes())
	if err := d.Codec().Encode(nop, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCode(base, buf); err != nil {
		t.Fatal(err)
	}
	in, err = d.fetch(int32(base))
	if err != nil || in.Op != sass.OpNOP {
		t.Fatalf("stale decode cache: got %v, %v", in.Op, err)
	}
}

func TestCacheModel(t *testing.T) {
	c := newCache(64, 4)
	if c.access(100) {
		t.Fatal("cold access hit")
	}
	if !c.access(100) {
		t.Fatal("warm access missed")
	}
	// Fill the set of line 100 with conflicting lines and evict it.
	for i := 1; i <= 8; i++ {
		c.access(100 + uint64(i*c.sets))
	}
	if c.access(100) {
		t.Fatal("expected eviction after conflict sweep")
	}
	c.reset()
	if c.access(100) {
		t.Fatal("hit after reset")
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	cfg := DefaultConfig(sass.Kepler)
	cfg.NumSMs = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero SMs accepted")
	}
	cfg = DefaultConfig(sass.Kepler)
	cfg.CodeBytes = 64 << 20 // beyond the 8 MiB JMP-addressable limit
	if _, err := New(cfg); err == nil {
		t.Fatal("oversized code space accepted on 64-bit family")
	}
	cfg = DefaultConfig(sass.Volta)
	cfg.CodeBytes = 64 << 20 // fine on Volta
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	cfg = DefaultConfig(sass.Kepler)
	cfg.L1LineBytes = 96
	if _, err := New(cfg); err == nil {
		t.Fatal("non-power-of-two line accepted")
	}
}

// TestPagedMemoryReadsZeros: never-written memory reads as zeros from the
// host and from a kernel, and reading it allocates no page.
func TestPagedMemoryReadsZeros(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	buf, _ := d.Malloc(3 * pageSize)
	out, _ := d.Malloc(8)
	got := make([]byte, 3*pageSize)
	for i := range got {
		got[i] = 0xAA
	}
	if err := d.Read(buf, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d of never-written memory = %#x", i, b)
		}
	}
	for i := buf >> pageShift; i <= (buf+3*pageSize-1)>>pageShift; i++ {
		if d.pages[i].Load() != nil {
			t.Fatalf("reading page %d allocated it", i)
		}
	}
	entry := loadSASS(t, d, `
		LDC.W R2, c[1][0]
		LDC.W R4, c[1][8]
		MOVI R6, -1
		LDG.W R6, [R2]
		STG.W [R4], R6
		EXIT
	`)
	launch(t, d, entry, D1(1), D1(1), u64param(buf+pageSize+64, out), 0)
	word := make([]byte, 8)
	if err := d.Read(out, word); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(word); v != 0 {
		t.Fatalf("kernel load of never-written memory = %#x", v)
	}
}

// TestPagedMemorySpansPages: host copies that cross page boundaries
// round-trip, including a read that ends in a never-written page.
func TestPagedMemorySpansPages(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	base, _ := d.Malloc(4 * pageSize)
	start := (base+pageMask)&^uint64(pageMask) + pageSize - 700 // 700 bytes before a boundary
	data := make([]byte, pageSize+1400)                         // covers three pages
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	if err := d.Write(start, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data)+pageSize)
	if err := d.Read(start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatal("cross-page round trip corrupted data")
	}
	if !bytes.Equal(got[len(data):], make([]byte, pageSize)) {
		t.Fatal("bytes past the write are not zero")
	}
}

// TestPagedMemoryHeapEdges pins the heap bounds at both ends for host
// copies and for kernel loads, stores and atomics: the first and last heap
// words are accessible, the words just outside fault as
// FaultIllegalAddress at exactly the faulting address.
func TestPagedMemoryHeapEdges(t *testing.T) {
	d := newTestDevice(t, sass.Volta)
	top := d.cfg.GlobalMemBytes
	word := []byte{1, 2, 3, 4}
	for _, addr := range []uint64{heapBase, top - 4} {
		if err := d.Write(addr, word); err != nil {
			t.Fatalf("host write at %#x: %v", addr, err)
		}
		if err := d.Read(addr, make([]byte, 4)); err != nil {
			t.Fatalf("host read at %#x: %v", addr, err)
		}
	}
	for _, addr := range []uint64{heapBase - 4, top - 3, top} {
		if err := d.Write(addr, word); err == nil {
			t.Fatalf("host write at %#x accepted", addr)
		}
		if err := d.Read(addr, make([]byte, 4)); err == nil {
			t.Fatalf("host read at %#x accepted", addr)
		}
	}

	ops := map[string]string{
		"LDG":  "LDG R4, [R2]",
		"STG":  "STG [R2], R4",
		"ATOM": "ATOM.ADD R4, [R2], R4",
		"RED":  "RED.ADD [R2], R4",
	}
	for name, op := range ops {
		entry := loadSASS(t, d, "LDC.W R2, c[1][0]\nMOVI R4, 1\n"+op+"\nEXIT")
		for _, tc := range []struct {
			addr  uint64
			fault bool
		}{{heapBase, false}, {top - 4, false}, {heapBase - 4, true}, {top, true}} {
			_, err := d.Launch(LaunchSpec{Entry: entry, Grid: D1(1), Block: D1(1), Params: u64param(tc.addr)})
			if !tc.fault {
				if err != nil {
					t.Fatalf("%s at %#x: %v", name, tc.addr, err)
				}
				continue
			}
			f, ok := AsFault(err)
			if !ok || f.Kind != FaultIllegalAddress || f.Addr != tc.addr {
				t.Fatalf("%s at %#x: want FaultIllegalAddress at that address, got %v", name, tc.addr, err)
			}
		}
	}
}

// TestPagedMemoryConcurrentFirstTouch: under the parallel scheduler every
// CTA's first store lands in the same never-written page, so SM workers
// race to allocate it; all stores must survive (and -race stay clean).
func TestPagedMemoryConcurrentFirstTouch(t *testing.T) {
	cfg := DefaultConfig(sass.Volta)
	cfg.Scheduler = SchedulerParallelSM
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const grid, block = 64, 32
	out, _ := d.Malloc(4 * grid * block) // 8 KiB: one page
	counter, _ := d.Malloc(8)
	entry := loadSASS(t, d, gidProlog+`
		LDC.W R4, c[1][0]
		MOVI R6, 4
		IMAD.W R4, R0, R6, R4
		IADD R7, R0, RZ, 1
		STG [R4], R7
		LDC.W R8, c[1][8]
		MOVI R10, 1
		RED.ADD [R8], R10
		EXIT
	`)
	launch(t, d, entry, D1(grid), D1(block), u64param(out, counter), 0)
	buf := make([]byte, 4*grid*block)
	if err := d.Read(out, buf); err != nil {
		t.Fatal(err)
	}
	for gid := 0; gid < grid*block; gid++ {
		if got := binary.LittleEndian.Uint32(buf[4*gid:]); got != uint32(gid+1) {
			t.Fatalf("out[%d] = %d, want %d", gid, got, gid+1)
		}
	}
	c := make([]byte, 4)
	if err := d.Read(counter, c); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(c); got != grid*block {
		t.Fatalf("counter = %d, want %d", got, grid*block)
	}
}

// TestNewAllocatesLittle: device construction no longer materializes the
// global heap; untouched pages cost nothing.
func TestNewAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := New(DefaultConfig(sass.Volta))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n := after.TotalAlloc - before.TotalAlloc
	if n >= 16<<20 {
		t.Fatalf("New allocated %d MiB for a %d MiB heap, want < 16 MiB", n>>20, d.cfg.GlobalMemBytes>>20)
	}
	t.Logf("New allocated %d KiB for a %d MiB heap", n>>10, d.cfg.GlobalMemBytes>>20)
}
