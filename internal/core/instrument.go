package core

import (
	"fmt"

	"nvbitgo/internal/sass"
)

// IPoint selects where an injected function executes relative to the
// instrumented instruction (paper Listing 5).
type IPoint int

const (
	IPointBefore IPoint = iota
	IPointAfter
)

func (p IPoint) String() string {
	if p == IPointBefore {
		return "IPOINT_BEFORE"
	}
	return "IPOINT_AFTER"
}

type argKind int

const (
	argRegVal argKind = iota
	argRegVal64
	argImm32
	argImm64
	argCBank
	argPredVal
	argGuardPred
	argMRefAddr
)

// CallArg is one positional argument for an injected function
// (nvbit_add_call_arg). Argument passing is positional and must match the
// signature of the injected device function; the Code Generator validates
// widths and arity against the tool function's parameter table.
type CallArg struct {
	kind    argKind
	reg     int
	imm     uint64
	bank    int
	off     int
	pred    sass.Pred
	predNeg bool
}

// The unified argument-constructor API (nvbit_add_call_arg variants). Every
// constructor returns a CallArg describing what the trampoline marshals into
// the corresponding positional parameter of the injected device function;
// see docs/tools.md for the mapping from the historical names.

// ArgReg passes the run-time value of a 32-bit register at the
// instrumentation site.
func ArgReg(reg int) CallArg { return CallArg{kind: argRegVal, reg: reg} }

// ArgReg64 passes the 64-bit value held in the register pair (reg, reg+1).
func ArgReg64(reg int) CallArg { return CallArg{kind: argRegVal64, reg: reg} }

// ArgConst32 passes a 32-bit constant chosen at instrumentation time.
func ArgConst32(v uint32) CallArg { return CallArg{kind: argImm32, imm: uint64(v)} }

// ArgConst64 passes a 64-bit constant (e.g. the device address of a counter).
func ArgConst64(v uint64) CallArg { return CallArg{kind: argImm64, imm: v} }

// ArgConstBank passes a 32-bit value read from a constant bank at run time.
func ArgConstBank(bank, off int) CallArg { return CallArg{kind: argCBank, bank: bank, off: off} }

// ArgPred passes the run-time value (0/1) of a predicate register.
func ArgPred(p sass.Pred, neg bool) CallArg {
	return CallArg{kind: argPredVal, pred: p, predNeg: neg}
}

// ArgSitePred passes the value of the instrumented instruction's own guard
// predicate — the idiom of Listing 8, where the injected function returns
// immediately if the instruction was not actually executing.
func ArgSitePred() CallArg { return CallArg{kind: argGuardPred} }

// ArgMRefAddr passes the 64-bit effective address of the instrumented
// instruction's memory reference, computed at the instrumentation site from
// the saved base register (pair) plus the encoded offset — the
// nvbit_add_call_arg_mref_addr64 analog that memory tools previously had to
// assemble by hand from ArgReg64 and the decoded offset. Instrumenting an
// instruction with no memory operand fails at code generation.
func ArgMRefAddr() CallArg { return CallArg{kind: argMRefAddr} }

// LaunchDim selects one launch-configuration dimension for ArgLaunchDim.
type LaunchDim int

// Launch-configuration dimensions, in constant-bank 0 layout order.
const (
	GridDimX LaunchDim = iota
	GridDimY
	GridDimZ
	BlockDimX
	BlockDimY
	BlockDimZ
)

// ArgLaunchDim passes one grid/block dimension of the current launch, read
// from constant bank 0 where the driver places the launch configuration.
func ArgLaunchDim(d LaunchDim) CallArg {
	return CallArg{kind: argCBank, bank: 0, off: 4 * int(d)}
}

// bytes returns the argument's ABI width.
func (a CallArg) bytes() int {
	if a.kind == argRegVal64 || a.kind == argImm64 || a.kind == argMRefAddr {
		return 8
	}
	return 4
}

// InsertCall injects a call to the named tool device function before or
// after the instruction (nvbit_insert_call). Multiple functions can be
// injected at the same location; they execute in insertion order.
func (n *NVBit) InsertCall(i *Instr, funcName string, where IPoint) {
	req := &callRequest{funcName: funcName}
	if where == IPointBefore {
		i.before = append(i.before, req)
	} else {
		i.after = append(i.after, req)
	}
	i.lastInserted = req
	i.fs.dirty = true
}

// AddCallArg appends a positional argument to the most recently inserted
// call on this instruction (nvbit_add_call_arg).
func (n *NVBit) AddCallArg(i *Instr, a CallArg) {
	if i.lastInserted == nil {
		panic("nvbit: AddCallArg before InsertCall")
	}
	i.lastInserted.args = append(i.lastInserted.args, a)
}

// InsertCallArgs is a convenience combining InsertCall and AddCallArg.
func (n *NVBit) InsertCallArgs(i *Instr, funcName string, where IPoint, args ...CallArg) {
	n.InsertCall(i, funcName, where)
	for _, a := range args {
		n.AddCallArg(i, a)
	}
}

// GuardCall restricts the most recently inserted call so that only lanes for
// which predicate p (negated if neg) holds at the instrumentation site enter
// the injected function at all — the lanes are filtered by predicate
// matching on the call instruction itself rather than by an early return
// inside the tool function. This implements the finer-grained thread
// selection the paper sketches as future work in Section 7; when a whole
// warp fails the predicate, the call is skipped entirely.
func (n *NVBit) GuardCall(i *Instr, p sass.Pred, neg bool) {
	if i.lastInserted == nil {
		panic("nvbit: GuardCall before InsertCall")
	}
	i.lastInserted.guarded = true
	i.lastInserted.guardP, i.lastInserted.guardNeg = p, neg
}

// GuardCallBySite restricts the most recently inserted call to the lanes for
// which the instrumented instruction's own guard predicate holds — the
// zero-argument alternative to passing ArgGuardPred and returning early.
func (n *NVBit) GuardCallBySite(i *Instr) {
	if i.lastInserted == nil {
		panic("nvbit: GuardCallBySite before InsertCall")
	}
	i.lastInserted.guarded = true
	i.lastInserted.useSite = true
}

// RemoveOrig removes the original instruction, keeping any injected calls
// (nvbit_remove_orig) — the mechanism behind instruction emulation
// (Section 6.3), where the injected function supersedes the instruction.
func (n *NVBit) RemoveOrig(i *Instr) {
	i.removeOrig = true
	i.fs.dirty = true
}

// InjectionMode selects how the Code Generator materializes injected tool
// calls at instrumented sites.
type InjectionMode int

const (
	// InjectTrampoline (the default) jumps to a per-site trampoline that
	// saves the liveness-minimal register set, marshals arguments, calls the
	// tool function and restores (paper Section 5.1).
	InjectTrampoline InjectionMode = iota
	// InjectFullSave is the ablation baseline: trampolines that save the
	// entire register file regardless of per-site liveness.
	InjectFullSave
	// InjectInline splices eligible tool bodies directly into the relocated
	// stream, renamed into registers liveness proved dead at the site — no
	// save/restore, no call. Sites that cannot inline (indirect control
	// flow, self-clobbering guards, dead set too small) fall back to
	// trampolines.
	InjectInline
)

var injectionModeNames = [...]string{"trampoline", "full-save", "inline"}

func (m InjectionMode) String() string {
	if m >= InjectTrampoline && int(m) < len(injectionModeNames) {
		return injectionModeNames[m]
	}
	return fmt.Sprintf("InjectionMode(%d)", int(m))
}

// ParseInjectionMode converts a flag-style mode name ("trampoline",
// "full-save", "inline") into an InjectionMode.
func ParseInjectionMode(s string) (InjectionMode, error) {
	for i, name := range injectionModeNames {
		if s == name {
			return InjectionMode(i), nil
		}
	}
	return InjectTrampoline, fmt.Errorf("nvbit: unknown injection mode %q (want trampoline, full-save or inline)", s)
}

// SetInjectionMode switches the Code Generator's injection strategy. It takes
// effect at the next instrumentation pass; cached artifacts are keyed on the
// mode, so switching never reuses code generated under another mode.
func (n *NVBit) SetInjectionMode(m InjectionMode) { n.injectMode = m }

// InjectionMode returns the active injection strategy.
func (n *NVBit) InjectionMode() InjectionMode { return n.injectMode }

// hasWork reports whether the instruction carries instrumentation requests.
func (i *Instr) hasWork() bool {
	return len(i.before) > 0 || len(i.after) > 0 || i.removeOrig
}

func validateArgs(tf *toolFunc, args []CallArg) error {
	if len(args) != len(tf.params) {
		return fmt.Errorf("tool function %s takes %d arguments, got %d", tf.name, len(tf.params), len(args))
	}
	for k, a := range args {
		if a.bytes() != tf.params[k].Bytes {
			return fmt.Errorf("tool function %s argument %d (%s) is %d bytes, got %d",
				tf.name, k, tf.params[k].Name, tf.params[k].Bytes, a.bytes())
		}
	}
	return nil
}
