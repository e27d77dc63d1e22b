package gpu

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// refExited marks an exited lane in the reference per-lane PC view.
const refExited = -1

// refLanePCs expands a warp's cached representation back into one PC per
// lane, as the simulator stored them before the issuing group was cached:
// refExited for exited lanes, curPC for the group, pc[i] for the rest.
func refLanePCs(w *warp) [WarpSize]int32 {
	var pcs [WarpSize]int32
	for i := range pcs {
		bit := uint32(1) << uint(i)
		switch {
		case w.live&bit == 0:
			pcs[i] = refExited
		case w.curMask&bit != 0:
			pcs[i] = w.curPC
		default:
			pcs[i] = w.pc[i]
		}
	}
	return pcs
}

// refMinPC is the reference minimum-PC scan over every lane.
func refMinPC(pcs [WarpSize]int32) int32 {
	lo := int32(refExited)
	for _, p := range pcs {
		if p != refExited && (lo == refExited || p < lo) {
			lo = p
		}
	}
	return lo
}

// refMask returns the lanes whose PC equals pc.
func refMask(pcs [WarpSize]int32, pc int32) uint32 {
	var m uint32
	for i, p := range pcs {
		if p == pc {
			m |= 1 << uint(i)
		}
	}
	return m
}

// checkWarpCache compares the cached (live, curPC, curMask, restPC) with a
// full reference scan. lanes is the warp's thread count (< 32 for a tail
// warp); lanes past it must never be live.
func checkWarpCache(w *warp, lanes int) error {
	if extra := w.live &^ uint32(uint64(1)<<uint(lanes)-1); extra != 0 {
		return fmt.Errorf("warp %d: lanes %#x beyond its %d threads are live", w.id, extra, lanes)
	}
	pcs := refLanePCs(w)
	lo := refMinPC(pcs)
	if lo == refExited {
		if w.curMask != 0 {
			return fmt.Errorf("warp %d: all lanes exited but curMask = %#x", w.id, w.curMask)
		}
		return nil
	}
	if w.curPC != lo || w.curMask != refMask(pcs, lo) {
		return fmt.Errorf("warp %d: cache (pc %d, mask %#x), reference (pc %d, mask %#x)",
			w.id, w.curPC, w.curMask, lo, refMask(pcs, lo))
	}
	rest := int32(noPC)
	for _, p := range pcs {
		if p != refExited && p != lo && p < rest {
			rest = p
		}
	}
	if w.restPC != rest {
		return fmt.Errorf("warp %d: restPC = %d, reference %d", w.id, w.restPC, rest)
	}
	return nil
}

// warpTestProlog leaves the thread id in R0, the CTA id in R2, the block
// size in R3 and the global thread id in R1.
const warpTestProlog = `
	S2R R0, SR_TID.X
	S2R R2, SR_CTAID.X
	S2R R3, SR_NTID.X
	IMAD R1, R2, R3, R0
`

// Every kernel below stores one word per thread with this epilogue; R1
// holds the global thread id and R6 the result.
const warpTestStore = `
	LDC.W R24, c[1][0]
	MOVI R26, 4
	IMAD.W R24, R1, R26, R24
	STG [R24], R6
	EXIT
`

// warpCacheKernels cover every way the issuing group changes. Each runs in
// 48-thread CTAs: one full warp and a 16-lane tail warp. c[1][0] is the
// output array, c[1][8] the kernel's code base (for BRX targets).
var warpCacheKernels = []struct {
	name string
	src  string
	want func(tid int) uint32
}{
	{
		// Divergent if/else, a lane-dependent loop, and a skipped block
		// the fall-through lanes reconverge past.
		name: "bra",
		src: warpTestProlog + `
	LOP.AND R5, R0, RZ, 1
	ISETP.EQ P0, R5, RZ, 0
	@P0 BRA even
	MOVI R6, 100
	BRA join
even:
	MOVI R6, 200
join:
	LOP.AND R7, R0, RZ, 7
	IADD R7, R7, RZ, 1
loop:
	IADD R6, R6, RZ, 3
	IADD R7, R7, RZ, -1
	ISETP.GT P1, R7, RZ, 0
	@P1 BRA loop
	ISETP.GE P2, R0, RZ, 40
	@P2 BRA skip
	IADD R6, R6, RZ, 1000
skip:
` + warpTestStore,
		want: func(tid int) uint32 {
			v := 200
			if tid%2 == 1 {
				v = 100
			}
			v += 3 * (tid&7 + 1)
			if tid < 40 {
				v += 1000
			}
			return uint32(v)
		},
	},
	{
		// BRX through a four-way jump table indexed by tid%4.
		name: "brx",
		src: warpTestProlog + `
	LOP.AND R4, R0, RZ, 3
	SHL R4, R4, RZ, 1
	LDC R5, c[1][8]
	IADD R4, R4, R5, 10
	BRX R4, 0
	EXIT
	MOVI R6, 11
	BRA join
	MOVI R6, 22
	BRA join
	MOVI R6, 33
	BRA join
	MOVI R6, 44
join:
` + warpTestStore,
		want: func(tid int) uint32 { return uint32(11 * (tid%4 + 1)) },
	},
	{
		// Odd lanes CAL a function that loops a lane-dependent number of
		// times around a nested CAL, so calls and returns diverge.
		name: "calret",
		src: warpTestProlog + `
	MOVI R6, 0
	LOP.AND R5, R0, RZ, 1
	ISETP.EQ P0, R5, RZ, 0
	@P0 BRA skip
	CAL f
skip:
	IADD R6, R6, RZ, 1
` + warpTestStore + `
f:
	SHR R7, R0, RZ, 1
	LOP.AND R7, R7, RZ, 3
loopf:
	ISETP.EQ P1, R7, RZ, 0
	@P1 BRA donef
	CAL g
	IADD R7, R7, RZ, -1
	BRA loopf
donef:
	RET
g:
	IADD R6, R6, RZ, 10
	RET
`,
		want: func(tid int) uint32 {
			if tid%2 == 0 {
				return 1
			}
			return uint32(10*(tid>>1&3) + 1)
		},
	},
	{
		// A quarter of the lanes exit early; the rest loop on.
		name: "exit",
		src: warpTestProlog + `
	MOVI R6, 7
	LDC.W R24, c[1][0]
	MOVI R26, 4
	IMAD.W R24, R1, R26, R24
	STG [R24], R6
	LOP.AND R5, R0, RZ, 3
	ISETP.EQ P0, R5, RZ, 0
	@P0 EXIT
	MOVI R6, 0
loop:
	IADD R6, R6, RZ, 5
	IADD R5, R5, RZ, -1
	ISETP.GT P1, R5, RZ, 0
	@P1 BRA loop
` + warpTestStore,
		want: func(tid int) uint32 {
			if tid%4 == 0 {
				return 7
			}
			return uint32(5 * (tid % 4))
		},
	},
	{
		// Each thread reads the shared word its mirror thread wrote
		// before the barrier, across the full and the tail warp.
		name: "bar",
		src: warpTestProlog + `
	SHL R4, R0, RZ, 2
	IADD R5, R0, RZ, 1000
	STS [R4], R5
	BAR
	MOVI R8, -1
	IADD R9, R3, RZ, -1
	IMAD R7, R0, R8, R9
	SHL R7, R7, RZ, 2
	LDS R6, [R7]
	BAR
` + warpTestStore,
		want: func(tid int) uint32 { return uint32(1000 + warpTestBlock - 1 - tid) },
	},
}

const (
	warpTestBlock = 48
	warpTestGrid  = 12
)

// TestWarpCacheMatchesReferenceScan checks the warp's cached issuing group
// against a full per-lane reference scan after every step, for kernels that
// diverge and reconverge in every supported way, under both schedulers.
func TestWarpCacheMatchesReferenceScan(t *testing.T) {
	var (
		mu       sync.Mutex
		firstErr error
		steps    atomic.Int64
	)
	stepObserver = func(w *warp) {
		steps.Add(1)
		lanes := min(warpTestBlock-w.id*WarpSize, WarpSize)
		if err := checkWarpCache(w, lanes); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	}
	defer func() { stepObserver = nil }()

	for _, k := range warpCacheKernels {
		t.Run(k.name, func(t *testing.T) {
			bothSchedulers(t, func(t *testing.T, kind SchedulerKind) {
				d := faultDevice(t, kind)
				n := warpTestGrid * warpTestBlock
				out, _ := d.Malloc(uint64(4 * n))
				entry := loadSASS(t, d, k.src)
				mu.Lock()
				firstErr = nil
				mu.Unlock()
				steps.Store(0)
				launch(t, d, entry, D1(warpTestGrid), D1(warpTestBlock), u64param(out, uint64(entry)), 4*warpTestBlock)
				if firstErr != nil {
					t.Fatal(firstErr)
				}
				if steps.Load() == 0 {
					t.Fatal("step observer never ran")
				}
				buf := make([]byte, 4*n)
				if err := d.Read(out, buf); err != nil {
					t.Fatal(err)
				}
				for gid := 0; gid < n; gid++ {
					if got, want := binary.LittleEndian.Uint32(buf[4*gid:]), k.want(gid%warpTestBlock); got != want {
						t.Fatalf("thread %d = %d, want %d", gid, got, want)
					}
				}
			})
		})
	}
}
