package gpu

import (
	"math"
	"math/bits"

	"nvbitgo/internal/sass"
)

// saveFrame is one pushed register-save frame on a thread's save stack — the
// synthetic equivalent of the stack area where NVBit's pre-built routines
// save general-purpose registers, predicates and (on Volta) convergence
// barrier state before entering an instrumentation function.
type saveFrame struct {
	regs    []uint32
	preds   uint8
	barrier uint32
}

// pushFrame pushes a zeroed frame of n register slots. A frame popped
// earlier keeps its slot in the stack's backing array, and its register
// slice is reused when large enough, so steady-state instrumented execution
// does not allocate.
func pushFrame(stack []saveFrame, n int) []saveFrame {
	if len(stack) < cap(stack) {
		stack = stack[:len(stack)+1]
	} else {
		stack = append(stack, saveFrame{})
	}
	fr := &stack[len(stack)-1]
	if cap(fr.regs) >= n {
		fr.regs = fr.regs[:n]
		clear(fr.regs)
	} else {
		fr.regs = make([]uint32, n)
	}
	fr.preds, fr.barrier = 0, 0
	return stack
}

// warp is the execution state of one 32-thread warp. Threads have individual
// program counters; the scheduler issues, per step, the group of live
// threads sharing the minimum PC (min-PC reconvergence), which handles
// arbitrary control flow including the trampolines NVBit splices in.
//
// The issuing group is cached rather than rescanned every step: curMask
// holds the lanes at curPC, the minimum live PC, and restPC the minimum PC
// of the other live lanes. The pc entries of curMask lanes are stale — the
// group's PC is curPC — so a fall-through step, or a branch the whole group
// takes, is O(1) while the group stays below restPC. Control flow that
// splits the group writes its per-lane PCs back and rescans; so does a move
// that reaches restPC (reconvergence).
type warp struct {
	id      int
	barWait bool
	cycles  uint64

	live    uint32 // lanes that have not exited
	curPC   int32  // minimum live PC; the PC of every curMask lane
	curMask uint32 // live lanes at curPC
	restPC  int32  // minimum PC of live lanes outside curMask (noPC if none)

	pc      [WarpSize]int32 // per-lane PCs, valid for live lanes outside curMask
	regs    [WarpSize][256]uint32
	preds   [WarpSize]uint8
	barrier [WarpSize]uint32 // Volta convergence-barrier state (opaque)

	callStack [WarpSize][]int32
	saveStack [WarpSize][]saveFrame
	local     [WarpSize][]byte
}

// noPC is restPC's "no other live lane" value; every real PC sorts below it.
const noPC = math.MaxInt32

func newWarp() *warp { return &warp{} }

// reset prepares the warp for a fresh CTA. Register and local-memory
// contents are deliberately not cleared: as on real hardware their initial
// values are undefined, and compiled kernels initialize before use. Each
// scheduler worker owns its warp pool and walks its CTAs in a fixed order
// (docs/scheduler.md), so runs stay deterministic regardless.
func (w *warp) reset(id, lanes int, entry int32) {
	w.id = id
	w.barWait = false
	w.live = uint32(uint64(1)<<uint(lanes) - 1)
	w.curPC = entry
	w.curMask = w.live
	w.restPC = noPC
	for i := 0; i < WarpSize; i++ {
		w.preds[i] = 0
		w.callStack[i] = w.callStack[i][:0]
		w.saveStack[i] = w.saveStack[i][:0]
	}
}

// advance moves the whole issuing group to pc: the fall-through PC, or the
// target of a branch every lane of the group takes. Below restPC the group
// stays the minimum and only curPC changes.
func (w *warp) advance(pc int32) {
	if pc < w.restPC {
		w.curPC = pc
		return
	}
	for m := w.curMask; m != 0; m &= m - 1 {
		w.pc[bits.TrailingZeros32(m)] = pc
	}
	w.rescan()
}

// branch sends the issuing group's lanes in taken to target and the rest of
// the group to next.
func (w *warp) branch(taken uint32, target, next int32) {
	if taken != 0 && taken != w.curMask {
		for m := taken; m != 0; m &= m - 1 {
			w.pc[bits.TrailingZeros32(m)] = target
		}
	}
	w.join(taken, taken == w.curMask, target, next)
}

// join finishes a control transfer whose caller has already written the new
// PC of every taken lane. A transfer no lane takes, or that sends the whole
// group to one target (uniform), moves the group; otherwise the group's
// other lanes go to next and the warp rescans.
func (w *warp) join(taken uint32, uniform bool, target, next int32) {
	switch {
	case taken == 0:
		w.advance(next)
	case uniform:
		w.advance(target)
	default:
		w.scatter(taken, next)
	}
}

// scatter writes next back for the issuing group's lanes outside taken (the
// caller has already written or retired the taken lanes) and rescans.
func (w *warp) scatter(taken uint32, next int32) {
	for m := w.curMask &^ taken; m != 0; m &= m - 1 {
		w.pc[bits.TrailingZeros32(m)] = next
	}
	w.rescan()
}

// rescan recomputes curPC, curMask and restPC from the per-lane PCs of the
// live lanes; callers write the issuing group's PCs back first.
func (w *warp) rescan() {
	cur, rest := int32(noPC), int32(noPC)
	var mask uint32
	for m := w.live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		switch p := w.pc[i]; {
		case p < cur:
			cur, rest, mask = p, cur, 1<<uint(i)
		case p == cur:
			mask |= 1 << uint(i)
		case p < rest:
			rest = p
		}
	}
	w.curPC, w.curMask, w.restPC = cur, mask, rest
}

// done reports whether every lane has exited.
func (w *warp) done() bool { return w.live == 0 }

// predTrue evaluates a guard predicate for one lane.
func (w *warp) predTrue(lane int, p sass.Pred, neg bool) bool {
	v := p == sass.PT || w.preds[lane]&(1<<uint(p)) != 0
	if neg {
		return !v
	}
	return v
}

// setPred writes one predicate bit for one lane (writes to PT are dropped).
func (w *warp) setPred(lane int, p sass.Pred, v bool) {
	if p == sass.PT {
		return
	}
	if v {
		w.preds[lane] |= 1 << uint(p)
	} else {
		w.preds[lane] &^= 1 << uint(p)
	}
}

// reg reads a general-purpose register (RZ reads zero).
func (w *warp) reg(lane int, r sass.Reg) uint32 {
	if r == sass.RZ {
		return 0
	}
	return w.regs[lane][r]
}

// setReg writes a general-purpose register (writes to RZ are dropped).
func (w *warp) setReg(lane int, r sass.Reg, v uint32) {
	if r == sass.RZ {
		return
	}
	w.regs[lane][r] = v
}

// reg64 reads the 64-bit value in the register pair (r, r+1).
func (w *warp) reg64(lane int, r sass.Reg) uint64 {
	if r == sass.RZ {
		return 0
	}
	lo := uint64(w.regs[lane][r])
	hi := uint64(0)
	if int(r)+1 < 256 {
		hi = uint64(w.regs[lane][r+1])
	}
	return lo | hi<<32
}

// setReg64 writes the register pair (r, r+1).
func (w *warp) setReg64(lane int, r sass.Reg, v uint64) {
	if r == sass.RZ {
		return
	}
	w.regs[lane][r] = uint32(v)
	if int(r)+1 < 256 {
		w.regs[lane][r+1] = uint32(v >> 32)
	}
}
