package gpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"nvbitgo/internal/sass"
)

func f32(bits uint32) float32    { return math.Float32frombits(bits) }
func f32bits(f float32) uint32   { return math.Float32bits(f) }
func addF32(a, b uint32) uint32  { return f32bits(f32(a) + f32(b)) }
func maxF32u(a, b uint32) uint32 { return f32bits(float32(math.Max(float64(f32(a)), float64(f32(b))))) }
func minF32u(a, b uint32) uint32 { return f32bits(float32(math.Min(float64(f32(a)), float64(f32(b))))) }

// maxStackDepth bounds the per-thread call and save stacks, as the finite
// stack RAM of real hardware does; exceeding it is a FaultStackOverflow
// rather than unbounded host-memory growth.
const maxStackDepth = 1024

// step executes one warp-level instruction: the warp's issuing group, the
// live lanes sharing the minimum PC.
func (c *execContext) step(w *warp) error {
	if w.live == 0 {
		return nil
	}
	pc := w.curPC
	if c.wdLeft--; c.wdLeft < 0 {
		f := c.trap(FaultWatchdogTimeout, pc, sass.Inst{}, -1,
			"CTA exceeded the launch watchdog budget of %d warp instructions", c.wdBudget)
		f.SASS = ""
		return f
	}
	in, err := c.dev.fetch(pc)
	if err != nil {
		f := c.trap(FaultInvalidInstruction, pc, sass.Inst{}, -1, "%v", err)
		f.SASS = ""
		return f
	}

	execMask := w.curMask
	if in.Guarded() {
		execMask = 0
		for m := w.curMask; m != 0; m &= m - 1 {
			if i := bits.TrailingZeros32(m); w.predTrue(i, in.Pred, in.PredNeg) {
				execMask |= 1 << uint(i)
			}
		}
	}
	nActive := uint64(bits.OnesCount32(w.curMask))

	st := &c.stats
	st.WarpInstrs++
	st.ThreadInstrs += nActive
	st.OpCounts[in.Op]++
	st.OpThreads[in.Op] += nActive
	w.cycles += issueCost(in.Op)

	// Control flow moves the issuing group itself and returns; every other
	// instruction falls through to w.advance after the switch. The per-step
	// helpers are plain methods/functions rather than closures so the
	// dispatch loop does not allocate.
	next := pc + 1

	switch in.Op {
	case sass.OpNOP:

	case sass.OpEXIT:
		if execMask != 0 {
			w.live &^= execMask
			w.scatter(execMask, next)
			return nil
		}

	case sass.OpBRA, sass.OpJMP:
		target := int32(in.Imm)
		if in.Op == sass.OpBRA {
			target += next
		}
		w.branch(execMask, target, next)
		return nil

	case sass.OpBRX:
		uniform := execMask == w.curMask
		var target int32
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			w.pc[i] = int32(w.reg(i, in.Src1)) + int32(in.Imm)
			uniform = uniform && (m == execMask || w.pc[i] == target)
			target = w.pc[i]
		}
		w.join(execMask, uniform, target, next)
		return nil

	case sass.OpCAL:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			if len(w.callStack[i]) >= maxStackDepth {
				return c.trap(FaultStackOverflow, pc, in, i, "call stack exceeds %d frames", maxStackDepth)
			}
			w.callStack[i] = append(w.callStack[i], next)
		}
		w.branch(execMask, int32(in.Imm), next)
		return nil

	case sass.OpRET:
		uniform := execMask == w.curMask
		var target int32
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			n := len(w.callStack[i])
			if n == 0 {
				return c.trap(FaultStackUnderflow, pc, in, i, "RET with empty call stack")
			}
			w.pc[i] = w.callStack[i][n-1]
			w.callStack[i] = w.callStack[i][:n-1]
			uniform = uniform && (m == execMask || w.pc[i] == target)
			target = w.pc[i]
		}
		w.join(execMask, uniform, target, next)
		return nil

	case sass.OpBAR:
		if execMask != 0 {
			w.barWait = true
		}

	case sass.OpMOV:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			if in.Mods.Wide() {
				w.setReg64(i, in.Dst, w.reg64(i, in.Src1))
			} else {
				w.setReg(i, in.Dst, w.reg(i, in.Src1))
			}
		}

	case sass.OpMOVI:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			w.setReg(i, in.Dst, uint32(int32(in.Imm)))
		}

	case sass.OpMOVIH:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			v := w.reg(i, in.Dst)&0xFFFFF | uint32(in.Imm)<<20
			w.setReg(i, in.Dst, v)
		}

	case sass.OpS2R:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			w.setReg(i, in.Dst, c.specialReg(w, i, in.Imm))
		}

	case sass.OpP2R:
		single := in.Mods.SubOp() == sass.P2RSingle
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			if single {
				v := uint32(0)
				if w.predTrue(i, in.Mods.Aux(), false) {
					v = 1
				}
				w.setReg(i, in.Dst, v)
			} else {
				w.setReg(i, in.Dst, uint32(w.preds[i]))
			}
		}

	case sass.OpR2P:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			w.preds[i] = uint8(w.reg(i, in.Src1)) & 0x7f
		}

	case sass.OpSEL:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			if w.predTrue(i, in.Mods.Aux(), false) {
				w.setReg(i, in.Dst, w.reg(i, in.Src1))
			} else {
				w.setReg(i, in.Dst, w.reg(i, in.Src2))
			}
		}

	case sass.OpIADD:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			if in.Mods.Wide() {
				w.setReg64(i, in.Dst, w.reg64(i, in.Src1)+w.reg64(i, in.Src2)+uint64(in.Imm))
			} else {
				w.setReg(i, in.Dst, w.reg(i, in.Src1)+eff2(w, &in, i))
			}
		}

	case sass.OpIMUL:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			w.setReg(i, in.Dst, w.reg(i, in.Src1)*w.reg(i, in.Src2))
		}

	case sass.OpIMAD:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			if in.Mods.Wide() {
				// IMAD.WIDE: 32x32 unsigned multiply + 64-bit add.
				v := uint64(w.reg(i, in.Src1))*uint64(w.reg(i, in.Src2)) + w.reg64(i, in.Src3)
				w.setReg64(i, in.Dst, v)
			} else {
				w.setReg(i, in.Dst, w.reg(i, in.Src1)*w.reg(i, in.Src2)+w.reg(i, in.Src3))
			}
		}

	case sass.OpISETP:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			var r bool
			if in.Mods.Flag() { // unsigned
				a, b := w.reg(i, in.Src1), eff2(w, &in, i)
				r = cmpU32(in.Mods.SubOp(), a, b)
			} else {
				a, b := int32(w.reg(i, in.Src1)), int32(eff2(w, &in, i))
				r = cmpI32(in.Mods.SubOp(), a, b)
			}
			w.setPred(i, in.Mods.Aux(), r)
		}

	case sass.OpSHL:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			w.setReg(i, in.Dst, w.reg(i, in.Src1)<<(eff2(w, &in, i)&31))
		}

	case sass.OpSHR:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			w.setReg(i, in.Dst, w.reg(i, in.Src1)>>(eff2(w, &in, i)&31))
		}

	case sass.OpLOP:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			a, b := w.reg(i, in.Src1), eff2(w, &in, i)
			var v uint32
			switch in.Mods.SubOp() {
			case sass.LopAnd:
				v = a & b
			case sass.LopOr:
				v = a | b
			case sass.LopXor:
				v = a ^ b
			case sass.LopNot:
				v = ^a
			default:
				return c.trap(FaultInvalidInstruction, pc, in, i, "bad LOP sub-op %d", in.Mods.SubOp())
			}
			w.setReg(i, in.Dst, v)
		}

	case sass.OpPOPC:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			v := w.reg(i, in.Src1)
			n := uint32(0)
			for v != 0 {
				v &= v - 1
				n++
			}
			w.setReg(i, in.Dst, n)
		}

	case sass.OpFADD:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			w.setReg(i, in.Dst, addF32(w.reg(i, in.Src1), w.reg(i, in.Src2)))
		}

	case sass.OpFMUL:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			w.setReg(i, in.Dst, f32bits(f32(w.reg(i, in.Src1))*f32(w.reg(i, in.Src2))))
		}

	case sass.OpFFMA:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			v := f32(w.reg(i, in.Src1))*f32(w.reg(i, in.Src2)) + f32(w.reg(i, in.Src3))
			w.setReg(i, in.Dst, f32bits(v))
		}

	case sass.OpFSETP:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			a, b := f32(w.reg(i, in.Src1)), f32(w.reg(i, in.Src2))
			w.setPred(i, in.Mods.Aux(), cmpF32(in.Mods.SubOp(), a, b))
		}

	case sass.OpMUFU:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			x := float64(f32(w.reg(i, in.Src1)))
			var v float64
			switch in.Mods.SubOp() {
			case sass.MufuRcp:
				v = 1 / x
			case sass.MufuRsq:
				v = 1 / math.Sqrt(x)
			case sass.MufuSqrt:
				v = math.Sqrt(x)
			case sass.MufuSin:
				v = math.Sin(x)
			case sass.MufuCos:
				v = math.Cos(x)
			case sass.MufuEx2:
				v = math.Exp2(x)
			case sass.MufuLg2:
				v = math.Log2(x)
			default:
				return c.trap(FaultInvalidInstruction, pc, in, i, "bad MUFU sub-op %d", in.Mods.SubOp())
			}
			w.setReg(i, in.Dst, f32bits(float32(v)))
		}

	case sass.OpI2F:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			w.setReg(i, in.Dst, f32bits(float32(int32(w.reg(i, in.Src1)))))
		}

	case sass.OpF2I:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			f := f32(w.reg(i, in.Src1))
			switch {
			case math.IsNaN(float64(f)):
				w.setReg(i, in.Dst, 0)
			case f >= math.MaxInt32:
				w.setReg(i, in.Dst, uint32(math.MaxInt32))
			case f <= math.MinInt32:
				w.setReg(i, in.Dst, 0x80000000)
			default:
				w.setReg(i, in.Dst, uint32(int32(f)))
			}
		}

	case sass.OpLDG, sass.OpSTG:
		if err := c.globalAccess(w, in, execMask, pc); err != nil {
			return err
		}

	case sass.OpLDS, sass.OpSTS:
		width := accessWidth(in)
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			addr := int(int32(w.reg(i, in.Src1)) + int32(in.Imm))
			if addr%width != 0 {
				f := c.trap(FaultMisalignedAddress, pc, in, i, "shared access at %#x not %d-byte aligned", addr, width)
				f.Addr = uint64(uint32(addr))
				return f
			}
			if addr < 0 || addr+width > len(c.shared) {
				f := c.trap(FaultSharedOOB, pc, in, i, "shared access [%#x,+%d) out of range (%d bytes shared)", addr, width, len(c.shared))
				f.Addr = uint64(uint32(addr))
				return f
			}
			if in.Op == sass.OpLDS {
				if width == 8 {
					w.setReg64(i, in.Dst, binary.LittleEndian.Uint64(c.shared[addr:]))
				} else {
					w.setReg(i, in.Dst, binary.LittleEndian.Uint32(c.shared[addr:]))
				}
			} else {
				if width == 8 {
					binary.LittleEndian.PutUint64(c.shared[addr:], w.reg64(i, in.Src2))
				} else {
					binary.LittleEndian.PutUint32(c.shared[addr:], w.reg(i, in.Src2))
				}
			}
		}

	case sass.OpLDL, sass.OpSTL:
		width := accessWidth(in)
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			if w.local[i] == nil {
				w.local[i] = make([]byte, c.dev.cfg.LocalMemPerThr)
			}
			addr := int(int32(w.reg(i, in.Src1)) + int32(in.Imm))
			if addr < 0 || addr+width > len(w.local[i]) {
				f := c.trap(FaultLocalOOB, pc, in, i, "local access [%#x,+%d) out of range", addr, width)
				f.Addr = uint64(uint32(addr))
				return f
			}
			if in.Op == sass.OpLDL {
				if width == 8 {
					w.setReg64(i, in.Dst, binary.LittleEndian.Uint64(w.local[i][addr:]))
				} else {
					w.setReg(i, in.Dst, binary.LittleEndian.Uint32(w.local[i][addr:]))
				}
			} else {
				if width == 8 {
					binary.LittleEndian.PutUint64(w.local[i][addr:], w.reg64(i, in.Src2))
				} else {
					binary.LittleEndian.PutUint32(w.local[i][addr:], w.reg(i, in.Src2))
				}
			}
		}

	case sass.OpLDC:
		bank := in.Mods.SubOp()
		data := c.banks[bank]
		width := accessWidth(in)
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			addr := int(int32(w.reg(i, in.Src1)) + int32(in.Imm))
			if addr < 0 || addr+width > len(data) {
				f := c.trap(FaultConstOOB, pc, in, i, "constant access c[%d][%#x] out of range (%d bytes in bank)", bank, addr, len(data))
				f.Addr = uint64(uint32(addr))
				return f
			}
			if width == 8 {
				w.setReg64(i, in.Dst, binary.LittleEndian.Uint64(data[addr:]))
			} else {
				w.setReg(i, in.Dst, binary.LittleEndian.Uint32(data[addr:]))
			}
		}

	case sass.OpATOM, sass.OpRED:
		if err := c.atomicAccess(w, in, execMask, pc); err != nil {
			return err
		}

	case sass.OpSHFL:
		var vals [WarpSize]uint32
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			vals[i] = w.reg(i, in.Src1)
		}
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			delta := int(int32(eff2(w, &in, i)))
			src := i
			switch in.Mods.SubOp() {
			case sass.ShflUp:
				src = i - delta
			case sass.ShflDown:
				src = i + delta
			case sass.ShflBfly:
				src = i ^ delta
			case sass.ShflIdx:
				src = delta
			}
			if src >= 0 && src < WarpSize && execMask&(1<<uint(src)) != 0 {
				w.setReg(i, in.Dst, vals[src])
			} else {
				// Out-of-range or inactive source returns the lane's
				// own source value, as CUDA shuffles do.
				w.setReg(i, in.Dst, vals[i])
			}
		}

	case sass.OpVOTE:
		var mask uint32
		for m := execMask; m != 0; m &= m - 1 {
			if i := bits.TrailingZeros32(m); w.predTrue(i, in.Mods.Aux(), false) {
				mask |= 1 << uint(i)
			}
		}
		switch in.Mods.SubOp() {
		case sass.VoteBallot:
			for m := execMask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros32(m)
				w.setReg(i, in.Dst, mask)
			}
		case sass.VoteAny:
			for m := execMask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros32(m)
				w.setPred(i, sass.Pred(in.Dst&7), mask != 0)
			}
		case sass.VoteAll:
			for m := execMask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros32(m)
				w.setPred(i, sass.Pred(in.Dst&7), mask == execMask)
			}
		default:
			return c.trap(FaultInvalidInstruction, pc, in, -1, "bad VOTE sub-op %d", in.Mods.SubOp())
		}

	case sass.OpMATCH:
		wide := in.Mods.Wide()
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			var mine uint64
			if wide {
				mine = w.reg64(i, in.Src1)
			} else {
				mine = uint64(w.reg(i, in.Src1))
			}
			var match uint32
			for mj := execMask; mj != 0; mj &= mj - 1 {
				j := bits.TrailingZeros32(mj)
				var theirs uint64
				if wide {
					theirs = w.reg64(j, in.Src1)
				} else {
					theirs = uint64(w.reg(j, in.Src1))
				}
				if theirs == mine {
					match |= 1 << uint(j)
				}
			}
			w.setReg(i, in.Dst, match)
		}

	case sass.OpWFFT32:
		if !c.dev.cfg.EnableWFFT {
			return c.trap(FaultInvalidInstruction, pc, in, -1, "WFFT32 is a hypothetical instruction; this device does not implement it "+
				"(instrument it with the emulation tool, or enable Config.EnableWFFT)")
		}
		execWFFT32(w, in, execMask)

	case sass.OpSAVEPUSH:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			if len(w.saveStack[i]) >= maxStackDepth {
				return c.trap(FaultStackOverflow, pc, in, i, "save stack exceeds %d frames", maxStackDepth)
			}
			w.saveStack[i] = pushFrame(w.saveStack[i], int(in.Imm))
		}

	case sass.OpSAVEPOP:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			n := len(w.saveStack[i])
			if n == 0 {
				return c.trap(FaultStackUnderflow, pc, in, i, "SAVEPOP with empty save stack")
			}
			w.saveStack[i] = w.saveStack[i][:n-1]
		}

	case sass.OpSTSA, sass.OpLDSA, sass.OpSTSP, sass.OpLDSP, sass.OpSTSB, sass.OpLDSB,
		sass.OpRDREG, sass.OpWRREG, sass.OpRDPRED, sass.OpWRPRED:
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			n := len(w.saveStack[i])
			if n == 0 {
				return c.trap(FaultStackUnderflow, pc, in, i, "%v with no save frame", in.Op)
			}
			fr := &w.saveStack[i][n-1]
			switch in.Op {
			case sass.OpSTSA:
				if int(in.Imm) >= len(fr.regs) {
					return c.trap(FaultInvalidInstruction, pc, in, i, "save slot %d beyond frame of %d", in.Imm, len(fr.regs))
				}
				fr.regs[in.Imm] = w.reg(i, in.Src1)
			case sass.OpLDSA:
				if int(in.Imm) >= len(fr.regs) {
					return c.trap(FaultInvalidInstruction, pc, in, i, "save slot %d beyond frame of %d", in.Imm, len(fr.regs))
				}
				w.setReg(i, in.Dst, fr.regs[in.Imm])
			case sass.OpSTSP:
				fr.preds = w.preds[i]
			case sass.OpLDSP:
				w.preds[i] = fr.preds
			case sass.OpSTSB:
				fr.barrier = w.barrier[i]
			case sass.OpLDSB:
				w.barrier[i] = fr.barrier
			case sass.OpRDREG:
				idx := int(w.reg(i, in.Src1)) + int(in.Imm)
				if idx < 0 || idx >= len(fr.regs) {
					return c.trap(FaultInvalidInstruction, pc, in, i, "RDREG of register %d beyond saved set of %d", idx, len(fr.regs))
				}
				w.setReg(i, in.Dst, fr.regs[idx])
			case sass.OpWRREG:
				idx := int(w.reg(i, in.Src1)) + int(in.Imm)
				if idx < 0 || idx >= len(fr.regs) {
					return c.trap(FaultInvalidInstruction, pc, in, i, "WRREG of register %d beyond saved set of %d", idx, len(fr.regs))
				}
				fr.regs[idx] = w.reg(i, in.Src2)
			case sass.OpRDPRED:
				w.setReg(i, in.Dst, uint32(fr.preds))
			case sass.OpWRPRED:
				fr.preds = uint8(w.reg(i, in.Src2)) & 0x7f
			}
		}

	default:
		return c.trap(FaultInvalidInstruction, pc, in, -1, "unimplemented opcode")
	}
	w.advance(next)
	return nil
}

// trap builds a structured execution fault at the current instruction,
// stamping it with the worker's full provenance (kernel, SM, CTA, warp).
// It is the cold path of step; keeping it a method (not a per-step closure)
// keeps the dispatch loop allocation-free. Lane is -1 for warp-wide faults.
func (c *execContext) trap(kind FaultKind, pc int32, in sass.Inst, lane int, format string, args ...any) *Fault {
	return &Fault{
		Kind:   kind,
		PC:     pc,
		SASS:   sass.Format(in),
		Entry:  c.spec.Entry,
		Kernel: c.spec.Name,
		SM:     c.sm,
		CTA:    c.ctaID,
		Warp:   c.curWarp,
		Lane:   lane,
		Detail: fmt.Sprintf(format, args...),
	}
}

// eff2 computes the effective second source: Src2 plus the signed immediate.
func eff2(w *warp, in *sass.Inst, lane int) uint32 {
	return w.reg(lane, in.Src2) + uint32(int32(in.Imm))
}

func cmpI32(sub int, a, b int32) bool {
	switch sub {
	case sass.CmpEQ:
		return a == b
	case sass.CmpNE:
		return a != b
	case sass.CmpLT:
		return a < b
	case sass.CmpLE:
		return a <= b
	case sass.CmpGT:
		return a > b
	case sass.CmpGE:
		return a >= b
	}
	return false
}

func cmpU32(sub int, a, b uint32) bool {
	switch sub {
	case sass.CmpEQ:
		return a == b
	case sass.CmpNE:
		return a != b
	case sass.CmpLT:
		return a < b
	case sass.CmpLE:
		return a <= b
	case sass.CmpGT:
		return a > b
	case sass.CmpGE:
		return a >= b
	}
	return false
}

func cmpF32(sub int, a, b float32) bool {
	switch sub {
	case sass.CmpEQ:
		return a == b
	case sass.CmpNE:
		return a != b
	case sass.CmpLT:
		return a < b
	case sass.CmpLE:
		return a <= b
	case sass.CmpGT:
		return a > b
	case sass.CmpGE:
		return a >= b
	}
	return false
}

// specialReg evaluates an S2R source for one lane.
func (c *execContext) specialReg(w *warp, lane int, id int64) uint32 {
	t := w.id*WarpSize + lane // linear thread index within the CTA
	b := c.spec.Block
	switch id {
	case sass.SRLaneID:
		return uint32(lane)
	case sass.SRWarpID:
		return uint32(w.id)
	case sass.SRTIDX:
		return uint32(t % max1(b.X))
	case sass.SRTIDY:
		return uint32(t / max1(b.X) % max1(b.Y))
	case sass.SRTIDZ:
		return uint32(t / (max1(b.X) * max1(b.Y)))
	case sass.SRCTAIDX:
		return uint32(c.cta.X)
	case sass.SRCTAIDY:
		return uint32(c.cta.Y)
	case sass.SRCTAIDZ:
		return uint32(c.cta.Z)
	case sass.SRNTIDX:
		return uint32(max1(b.X))
	case sass.SRNTIDY:
		return uint32(max1(b.Y))
	case sass.SRNTIDZ:
		return uint32(max1(b.Z))
	case sass.SRNCTAIDX:
		return uint32(max1(c.spec.Grid.X))
	case sass.SRNCTAIDY:
		return uint32(max1(c.spec.Grid.Y))
	case sass.SRNCTAIDZ:
		return uint32(max1(c.spec.Grid.Z))
	case sass.SRClock:
		return uint32(w.cycles)
	case sass.SRSMID:
		return uint32(c.sm)
	}
	return 0
}

func accessWidth(in sass.Inst) int {
	if in.Mods.Wide() {
		return 8
	}
	return 4
}

// globalAccess performs a coalesced warp-level global load/store and feeds
// the cache/timing model.
func (c *execContext) globalAccess(w *warp, in sass.Inst, execMask uint32, pc int32) error {
	if execMask == 0 {
		return nil
	}
	width := accessWidth(in)
	d := c.dev
	lineShift := uint(0)
	for 1<<lineShift < d.cfg.L1LineBytes {
		lineShift++
	}
	var lines [WarpSize]uint64
	nLines := 0
	for m := execMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		addr := w.reg64(i, in.Src1) + uint64(in.Imm)
		if addr%uint64(width) != 0 {
			f := c.trap(FaultMisalignedAddress, pc, in, i, "global access at %#x not %d-byte aligned", addr, width)
			f.Addr = addr
			return f
		}
		if !d.inHeap(addr, width) {
			f := c.trap(FaultIllegalAddress, pc, in, i, "global access [%#x,+%d) outside the device heap", addr, width)
			f.Addr = addr
			return f
		}
		if in.Op == sass.OpLDG {
			if width == 8 {
				w.setReg64(i, in.Dst, d.load64(addr))
			} else {
				w.setReg(i, in.Dst, d.load32(addr))
			}
		} else {
			if width == 8 {
				binary.LittleEndian.PutUint64(d.writePage(addr)[addr&pageMask:], w.reg64(i, in.Src2))
			} else {
				binary.LittleEndian.PutUint32(d.writePage(addr)[addr&pageMask:], w.reg(i, in.Src2))
			}
		}
		// Record the unique lines touched (both words of a straddling
		// access count, matching hardware sectoring).
		for _, a := range [2]uint64{addr, addr + uint64(width) - 1} {
			line := a >> lineShift
			dup := false
			for k := 0; k < nLines; k++ {
				if lines[k] == line {
					dup = true
					break
				}
			}
			if !dup {
				lines[nLines] = line
				nLines++
			}
		}
	}
	st := &c.stats
	st.GlobalAccesses++
	st.GlobalLines += uint64(nLines)
	for k := 0; k < nLines; k++ {
		w.cycles += c.lineCost(lines[k])
	}
	return nil
}

// lineCost runs one line through L1/L2 and returns its latency contribution.
// c.l1s[c.sm] is owned by this worker (each SM has exactly one owner); c.l2
// is the device-shared L2 under the sequential scheduler and a private
// per-SM shard under the parallel one.
func (c *execContext) lineCost(line uint64) uint64 {
	st := &c.stats
	if c.l1s[c.sm].access(line) {
		st.L1Hits++
		return costL1Hit
	}
	st.L1Misses++
	if c.l2.access(line) {
		st.L2Hits++
		return costL2Hit
	}
	st.L2Misses++
	return costL2Miss
}

// atomicAccess executes ATOM/RED lane by lane in lane order (deterministic
// within a warp). Under the parallel scheduler (c.locked) each lane's
// read-modify-write is serialized through an address-striped device lock, so
// concurrent CTAs interleave atomically — in an undefined cross-CTA order,
// exactly as on real hardware — and the race detector stays clean.
func (c *execContext) atomicAccess(w *warp, in sass.Inst, execMask uint32, pc int32) error {
	d := c.dev
	width := accessWidth(in)
	lineShift := uint(0)
	for 1<<lineShift < d.cfg.L1LineBytes {
		lineShift++
	}
	for m := execMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		addr := w.reg64(i, in.Src1) + uint64(in.Imm)
		if addr%uint64(width) != 0 {
			f := c.trap(FaultMisalignedAddress, pc, in, i, "atomic access at %#x not %d-byte aligned", addr, width)
			f.Addr = addr
			return f
		}
		if !d.inHeap(addr, width) {
			f := c.trap(FaultIllegalAddress, pc, in, i, "atomic access [%#x,+%d) outside the device heap", addr, width)
			f.Addr = addr
			return f
		}
		var mu *sync.Mutex
		if c.locked {
			mu = &d.atomLocks[(addr>>3)&(atomStripes-1)]
			mu.Lock()
		}
		word := d.writePage(addr)[addr&pageMask:]
		if width == 8 {
			old := binary.LittleEndian.Uint64(word)
			val := w.reg64(i, in.Src2)
			var nv uint64
			switch in.Mods.SubOp() {
			case sass.AtomAdd:
				nv = old + val
			case sass.AtomMin:
				nv = old
				if val < old {
					nv = val
				}
			case sass.AtomMax:
				nv = old
				if val > old {
					nv = val
				}
			case sass.AtomExch:
				nv = val
			case sass.AtomAnd:
				nv = old & val
			case sass.AtomOr:
				nv = old | val
			case sass.AtomXor:
				nv = old ^ val
			}
			binary.LittleEndian.PutUint64(word, nv)
			if in.Op == sass.OpATOM {
				w.setReg64(i, in.Dst, old)
			}
		} else {
			old := binary.LittleEndian.Uint32(word)
			val := w.reg(i, in.Src2)
			var nv uint32
			if in.Mods.Flag() { // float atomic
				switch in.Mods.SubOp() {
				case sass.AtomAdd:
					nv = addF32(old, val)
				case sass.AtomMin:
					nv = minF32u(old, val)
				case sass.AtomMax:
					nv = maxF32u(old, val)
				case sass.AtomExch:
					nv = val
				default:
					if mu != nil {
						mu.Unlock()
					}
					return c.trap(FaultInvalidInstruction, pc, in, i, "float atomic %s unsupported", sass.AtomName(in.Mods.SubOp()))
				}
			} else {
				switch in.Mods.SubOp() {
				case sass.AtomAdd:
					nv = old + val
				case sass.AtomMin:
					nv = old
					if val < old {
						nv = val
					}
				case sass.AtomMax:
					nv = old
					if val > old {
						nv = val
					}
				case sass.AtomExch:
					nv = val
				case sass.AtomAnd:
					nv = old & val
				case sass.AtomOr:
					nv = old | val
				case sass.AtomXor:
					nv = old ^ val
				}
			}
			binary.LittleEndian.PutUint32(word, nv)
			if in.Op == sass.OpATOM {
				w.setReg(i, in.Dst, old)
			}
		}
		if mu != nil {
			mu.Unlock()
		}
		w.cycles += c.lineCost((w.reg64(i, in.Src1) + uint64(in.Imm)) >> lineShift)
	}
	if execMask != 0 {
		c.stats.GlobalAccesses++
	}
	return nil
}

// execWFFT32 natively evaluates the hypothetical warp-wide 32-point FFT:
// lane k receives X[k] = sum_n x[n] * e^(-2*pi*i*k*n/32), with the real parts
// in register Dst and the imaginary parts in register Src1 across the warp.
func execWFFT32(w *warp, in sass.Inst, execMask uint32) {
	var re, im [WarpSize]float64
	for m := execMask; m != 0; m &= m - 1 {
		n := bits.TrailingZeros32(m)
		re[n] = float64(f32(w.reg(n, in.Dst)))
		im[n] = float64(f32(w.reg(n, in.Src1)))
	}
	for m := execMask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros32(m)
		var sr, si float64
		for n := 0; n < WarpSize; n++ {
			ang := -2 * math.Pi * float64(k*n) / WarpSize
			c, s := math.Cos(ang), math.Sin(ang)
			sr += re[n]*c - im[n]*s
			si += re[n]*s + im[n]*c
		}
		w.setReg(k, in.Dst, f32bits(float32(sr)))
		w.setReg(k, in.Src1, f32bits(float32(si)))
	}
}
