// Package driver implements the CUDA-driver analog of this NVBit
// reproduction: contexts, modules, functions, memory and launch APIs, plus
// the interposition boundary that the NVBit core hooks.
//
// On a real system, compute runtimes (CUDA, OpenCL, OpenACC, CUDA-Fortran)
// all sit on top of the CUDA driver API, and NVBit interposes that API via
// LD_PRELOAD. Here, applications call this package directly, and Hooks
// observe driver calls with CUPTI-style enter/exit callbacks and callback
// ids.
//
// Hooks live in one registry keyed by scope, with one firing rule: a hook
// fires only for calls on contexts whose scope equals its own.
//
//   - Scope 0 is the process-wide interposer (SetHook), the analog of one
//     preloaded tool library. At most one may be attached, matching the
//     paper's "only a single library can be injected" rule, and it observes
//     every call on contexts made by CtxCreate.
//   - Every other scope is one session (CtxCreateScoped): a hook bound to
//     its own context, with its own activity collector and flush-hook
//     scope. Any number of sessions coexist on one device, and the
//     fair-share Gate serializes their device-owning operations (module
//     loads, memory traffic, launches) with least-accumulated-cycles
//     admission and bounded-queue load-shedding (OverloadError).
//
// Because no hook observes another scope, a preloaded tool and a session
// tool never instrument the same loaded function. Every scope leaves the
// registry the same way: its synthetic application-exit callback fires
// (Context.DetachHook, or Close for every scope still attached), or, when
// setup failed, the hook is dropped silently (DiscardHook).
package driver

import (
	"fmt"
	"sync"
	"time"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/profile"
	"nvbitgo/internal/ptx"
)

// CBID enumerates driver API callback ids, mirroring CUPTI's driver-call
// enumeration (paper Section 2.2).
type CBID int

const (
	CBCtxCreate CBID = iota
	CBModuleLoadData
	CBModuleGetFunction
	CBMemAlloc
	CBMemFree
	CBMemcpyHtoD
	CBMemcpyDtoH
	CBLaunchKernel
	CBAppExit // synthesized when the application shuts the driver down
)

var cbidNames = [...]string{
	"cuCtxCreate", "cuModuleLoadData", "cuModuleGetFunction",
	"cuMemAlloc", "cuMemFree", "cuMemcpyHtoD", "cuMemcpyDtoH",
	"cuLaunchKernel", "appExit",
}

func (c CBID) String() string {
	if c >= 0 && int(c) < len(cbidNames) {
		return cbidNames[c]
	}
	return fmt.Sprintf("CBID(%d)", int(c))
}

// LaunchParams are the mutable parameters of a cuLaunchKernel interposition.
type LaunchParams struct {
	Func        *Function
	Grid, Block gpu.Dim3
	SharedBytes int    // dynamic shared memory
	ParamData   []byte // raw parameter block
}

// CallParams is the parameter union passed to hooks; the populated field
// depends on the CBID.
type CallParams struct {
	Ctx    *Context
	Launch *LaunchParams // CBLaunchKernel
	Module *Module       // CBModuleLoadData, CBModuleGetFunction
	Func   *Function     // CBModuleGetFunction
	Addr   uint64        // CBMemAlloc (result), CBMemFree, CBMemcpy*
	Bytes  int           // CBMemAlloc, CBMemcpy*
}

// Hook observes driver API calls. Before fires when the application enters
// the driver call; After fires once the driver has performed it. This is the
// boundary the NVBit core's Driver Interposer occupies.
type Hook interface {
	Before(cbid CBID, name string, p *CallParams)
	After(cbid CBID, name string, p *CallParams, result error)
}

// Launcher is the minimal driver surface a workload needs to load code, move
// memory and launch kernels. *Context implements it locally; nvbitd's remote
// session client implements it over the wire, so workloads run unchanged
// against either.
type Launcher interface {
	ModuleLoadPTX(name, source string) (*Module, error)
	MemAlloc(n uint64) (uint64, error)
	MemFree(addr uint64) error
	MemcpyHtoD(dst uint64, src []byte) error
	MemcpyDtoH(dst []byte, src uint64) error
	LaunchKernel(f *Function, grid, block gpu.Dim3, sharedBytes int, params []byte) error
}

var _ Launcher = (*Context)(nil)

// hookEntry binds one attached Hook to its scope: 0 for the process-wide
// interposer, the context's scope for a session hook. ctx is the session's
// context, carried by its exit callback (nil at scope 0). prof, when
// non-nil, is the session's private collector for the hook's tool-callback
// records; nil falls back to the device-wide collector.
type hookEntry struct {
	h     Hook
	scope uint64
	ctx   *Context
	prof  *profile.Collector
}

func (e *hookEntry) profFor(a *API) *profile.Collector {
	if e.prof != nil {
		return e.prof
	}
	return a.dev.Profiler()
}

// API is the driver instance bound to one simulated device.
type API struct {
	dev *gpu.Device

	// mu guards hooks/closed/nextScope. hooks holds at most one entry per
	// scope and is copy-on-write: it is replaced wholesale on attach/detach,
	// so driver calls iterate a snapshot lock-free.
	mu        sync.Mutex
	hooks     []hookEntry
	closed    bool
	nextScope uint64

	gate *Gate
}

// New initializes the driver on a fresh simulated device.
func New(cfg gpu.Config) (*API, error) {
	dev, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	return &API{dev: dev, gate: NewGate(DefaultQueueLimit)}, nil
}

// SetHook attaches the process-wide interposer library: the scope-0 hook.
// A second process-wide attachment fails, matching the paper's "only a
// single library can be injected" rule; session hooks (CtxCreateScoped) are
// not limited by it.
func (a *API) SetHook(h Hook) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.hooks {
		if e.scope == 0 {
			return fmt.Errorf("driver: an interposer library is already injected")
		}
	}
	a.addHookLocked(hookEntry{h: h})
	return nil
}

// DiscardHook unregisters the process-wide interposer without firing its
// exit callback: the cleanup path when the tool's AtInit failed, so its
// AtTerm must not run. It is a no-op when no interposer is attached.
func (a *API) DiscardHook() { a.detach(0, false) }

// addHookLocked installs a hook entry copy-on-write.
func (a *API) addHookLocked(e hookEntry) {
	next := make([]hookEntry, len(a.hooks), len(a.hooks)+1)
	copy(next, a.hooks)
	a.hooks = append(next, e)
}

// detach unregisters the hook bound to scope and, when fire is set, delivers
// its synthetic application-exit callbacks. Enter and exit each recover
// their own panic, so a broken enter callback cannot suppress the tool's
// exit callback (where it flushes its results); the first recovered error is
// returned. Detaching a scope with no hook is a no-op, which makes every
// exit path idempotent.
func (a *API) detach(scope uint64, fire bool) error {
	a.mu.Lock()
	var e hookEntry
	found := false
	next := make([]hookEntry, 0, len(a.hooks))
	for _, o := range a.hooks {
		if o.scope == scope {
			e, found = o, true
		} else {
			next = append(next, o)
		}
	}
	if found {
		a.hooks = next
	}
	a.mu.Unlock()
	if !found || !fire {
		return nil
	}
	p := &CallParams{Ctx: e.ctx}
	err := a.fire(e, CBAppExit, p, false, nil)
	if aerr := a.fire(e, CBAppExit, p, true, nil); err == nil {
		err = aerr
	}
	return err
}

func (a *API) hookSnapshot() []hookEntry {
	a.mu.Lock()
	h := a.hooks
	a.mu.Unlock()
	return h
}

// HookCount reports how many hooks — process-wide and session — are
// currently registered. Monitoring and leak tests use it: every session
// close must return the count to its pre-open value.
func (a *API) HookCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.hooks)
}

// Device exposes the underlying simulated device. The NVBit core uses this
// privileged access for code reads/writes and trampoline allocation; well-
// behaved applications never need it.
func (a *API) Device() *gpu.Device { return a.dev }

// Gate exposes the fair-share admission gate serializing device-owning
// operations across sessions; nvbitd tunes its queue limit for
// load-shedding.
func (a *API) Gate() *Gate { return a.gate }

// fire runs one hook entry's enter (exit == false) or exit callback,
// wrapped in its tool-callback activity record (emitted even when the
// callback panics, via defer, so the trace shows where the time went). A
// panic inside the callback is recovered into an ErrToolCallback error, so a
// broken tool turns into a failing driver call instead of a crashed host
// process.
func (a *API) fire(e hookEntry, cbid CBID, p *CallParams, exit bool, result error) (err error) {
	defer recoverHookPanic(cbid, &err)
	if prof := e.profFor(a); prof != nil {
		t0 := prof.Now()
		phase := ":enter"
		if exit {
			phase = ":exit"
		}
		defer func() {
			prof.Emit(profile.Record{
				Kind: profile.KindToolCallback, Name: cbid.String() + phase,
				Start: t0, Dur: prof.Now() - t0, SM: -1,
			})
		}()
	}
	if exit {
		e.h.After(cbid, cbid.String(), p, result)
	} else {
		e.h.Before(cbid, cbid.String(), p)
	}
	return nil
}

// dispatch fires the callback of the hook whose scope equals the calling
// context's, if one is attached: scopes hold at most one hook each.
func (a *API) dispatch(cbid CBID, p *CallParams, exit bool, result error) error {
	for _, e := range a.hookSnapshot() {
		if e.scope == p.Ctx.scope {
			return a.fire(e, cbid, p, exit, result)
		}
	}
	return nil
}

// before fires the enter callback observing this call. On an error (a
// recovered panic) the caller must skip the interposed operation.
func (a *API) before(cbid CBID, p *CallParams) error {
	return a.dispatch(cbid, p, false, nil)
}

// after fires the exit callback. The operation itself has already happened;
// a panicking After only changes the error the application sees.
func (a *API) after(cbid CBID, p *CallParams, result error) error {
	return a.dispatch(cbid, p, true, result)
}

// Close shuts the driver down. Every attached scope receives its synthetic
// application-exit callbacks and is unregistered: sessions first, then the
// process-wide interposer. It returns the first error (tools flush their
// results at exit, so a panicking AtTerm matters).
func (a *API) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	entries := a.hooks
	a.mu.Unlock()
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	for _, e := range entries {
		if e.scope != 0 {
			keep(a.detach(e.scope, true))
		}
	}
	keep(a.detach(0, true))
	return first
}

// Context is the CUcontext analog: per-context module and allocation state,
// plus the CUDA-style sticky error. After a kernel faults, the context is
// poisoned: every subsequent call on it fails with the sticky error until
// ResetPersistingError (or a fresh context) — exactly how a real context
// behaves after CUDA_ERROR_ILLEGAL_ADDRESS and friends.
type Context struct {
	api     *API
	modules []*Module
	nextMod int

	// scope is the context's session/tenant id: 0 for classic CtxCreate
	// contexts, unique per CtxCreateScoped session. It tags launches'
	// flush-hook scope and the gate's per-tenant fair-share accounting.
	scope uint64
	// profOv is the session's private activity collector; nil routes the
	// context's records to the device-wide collector (gpu.SetProfiler).
	profOv *profile.Collector

	mu     sync.Mutex
	sticky error
}

// CtxCreate creates a context on the device.
func (a *API) CtxCreate() (*Context, error) {
	return a.ctxCreate(nil, nil)
}

// CtxCreateScoped creates a context with its own session hook. The hook is
// registered before the CBCtxCreate callback fires — so it observes its own
// context's creation (where the NVBit core initializes its HAL) — and from
// then on it observes exactly this context's driver calls. prof, when
// non-nil, is the session's private activity collector: the context's
// memory/module records, its launches' kernel records and its hook's
// tool-callback records all go there instead of the device-wide collector.
// Detach with Context.DetachHook.
func (a *API) CtxCreateScoped(h Hook, prof *profile.Collector) (*Context, error) {
	if h == nil {
		return nil, fmt.Errorf("driver: nil session hook")
	}
	return a.ctxCreate(h, prof)
}

func (a *API) ctxCreate(h Hook, sessProf *profile.Collector) (*Context, error) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, fmt.Errorf("driver: closed")
	}
	c := &Context{api: a}
	if h != nil {
		a.nextScope++
		c.scope = a.nextScope
		c.profOv = sessProf
		a.addHookLocked(hookEntry{h: h, scope: c.scope, ctx: c, prof: sessProf})
	}
	a.mu.Unlock()

	// Context creation is device-owning work (the core's HAL init may write
	// device state), so it runs inside the gate's admission window.
	if err := a.gate.Admit(c.scope); err != nil {
		c.DiscardHook()
		return nil, err
	}
	defer a.gate.Release(c.scope, 0)

	p := &CallParams{Ctx: c}
	var t0 time.Duration
	if prof := c.prof(); prof != nil {
		t0 = prof.Now()
	}
	if err := a.before(CBCtxCreate, p); err != nil {
		c.DiscardHook()
		return nil, err
	}
	if prof := c.prof(); prof != nil {
		prof.Emit(profile.Record{
			Kind: profile.KindCtxCreate, Name: CBCtxCreate.String(),
			Start: t0, Dur: prof.Now() - t0, SM: -1,
		})
	}
	if err := a.after(CBCtxCreate, p, nil); err != nil {
		c.DiscardHook()
		return nil, err
	}
	return c, nil
}

// DetachHook fires the session hook's synthetic application-exit callback —
// scoped to this context; the process-wide interposer does not see it — and
// unregisters the hook. Further driver calls on the context run
// uninstrumented. It is idempotent and a no-op for scope-0 contexts.
func (c *Context) DetachHook() error {
	if c.scope == 0 {
		return nil
	}
	return c.api.detach(c.scope, true)
}

// DiscardHook unregisters the session hook without firing its exit callback
// — the cleanup path when session setup fails partway (the tool's AtInit
// errored, so its AtTerm must not run). A no-op for scope-0 contexts.
func (c *Context) DiscardHook() {
	if c.scope != 0 {
		c.api.detach(c.scope, false)
	}
}

// Scope returns the context's session/tenant id (0 for contexts made by
// CtxCreate). Channels bound to a session pass it as their flush-hook scope
// so their mid-kernel flushes fire only during this context's launches.
func (c *Context) Scope() uint64 { return c.scope }

// prof resolves the collector receiving this context's activity records: the
// session's private collector when set, else the device-wide one.
func (c *Context) prof() *profile.Collector {
	if c.profOv != nil {
		return c.profOv
	}
	return c.api.dev.Profiler()
}

// stickyErr returns the context's persisting error, if any.
func (c *Context) stickyErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sticky
}

// poison records a device fault as the context's persisting error. The first
// fault wins; later ones (on a context the application keeps using after a
// reset race) do not overwrite it.
func (c *Context) poison(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sticky == nil {
		c.sticky = err
	}
}

// GetLastError returns the sticky error poisoning the context, without
// clearing it (the cuCtxGetLastError-style query). Nil means the context is
// healthy.
func (c *Context) GetLastError() error { return c.stickyErr() }

// ResetPersistingError clears the context's sticky error, restoring it to a
// usable state. Device memory contents are preserved (this models the
// "create a new context / reset the error" recovery path; the simulator has
// no per-context address spaces to tear down).
func (c *Context) ResetPersistingError() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sticky = nil
}

// API returns the driver instance that owns the context.
func (c *Context) API() *API { return c.api }

// Device returns the context's device.
func (c *Context) Device() *gpu.Device { return c.api.dev }

// MemAlloc allocates device global memory (cuMemAlloc).
func (c *Context) MemAlloc(n uint64) (uint64, error) {
	if err := c.stickyErr(); err != nil {
		return 0, err
	}
	if err := c.api.gate.Admit(c.scope); err != nil {
		return 0, err
	}
	defer c.api.gate.Release(c.scope, 0)
	p := &CallParams{Ctx: c, Bytes: int(n)}
	if err := c.api.before(CBMemAlloc, p); err != nil {
		return 0, err
	}
	var t0 time.Duration
	prof := c.prof()
	if prof != nil {
		t0 = prof.Now()
	}
	addr, err := c.api.dev.Malloc(n)
	p.Addr = addr
	if prof != nil && err == nil {
		prof.Emit(profile.Record{
			Kind: profile.KindMemAlloc, Name: CBMemAlloc.String(),
			Start: t0, Dur: prof.Now() - t0, SM: -1, Addr: addr, Bytes: n,
		})
	}
	if aerr := c.api.after(CBMemAlloc, p, err); err == nil {
		err = aerr
	}
	return addr, err
}

// MemFree releases device memory (cuMemFree).
func (c *Context) MemFree(addr uint64) error {
	if err := c.stickyErr(); err != nil {
		return err
	}
	if err := c.api.gate.Admit(c.scope); err != nil {
		return err
	}
	defer c.api.gate.Release(c.scope, 0)
	p := &CallParams{Ctx: c, Addr: addr}
	if err := c.api.before(CBMemFree, p); err != nil {
		return err
	}
	var t0 time.Duration
	prof := c.prof()
	if prof != nil {
		t0 = prof.Now()
	}
	err := c.api.dev.Free(addr)
	if prof != nil && err == nil {
		prof.Emit(profile.Record{
			Kind: profile.KindMemFree, Name: CBMemFree.String(),
			Start: t0, Dur: prof.Now() - t0, SM: -1, Addr: addr,
		})
	}
	if aerr := c.api.after(CBMemFree, p, err); err == nil {
		err = aerr
	}
	return err
}

// MemcpyHtoD copies host memory to the device (cuMemcpyHtoD).
func (c *Context) MemcpyHtoD(dst uint64, src []byte) error {
	if err := c.stickyErr(); err != nil {
		return err
	}
	if err := c.api.gate.Admit(c.scope); err != nil {
		return err
	}
	defer c.api.gate.Release(c.scope, 0)
	p := &CallParams{Ctx: c, Addr: dst, Bytes: len(src)}
	if err := c.api.before(CBMemcpyHtoD, p); err != nil {
		return err
	}
	var t0 time.Duration
	prof := c.prof()
	if prof != nil {
		t0 = prof.Now()
	}
	err := c.api.dev.Write(dst, src)
	if prof != nil && err == nil {
		prof.Emit(profile.Record{
			Kind: profile.KindMemcpyH2D, Name: CBMemcpyHtoD.String(),
			Start: t0, Dur: prof.Now() - t0, SM: -1, Addr: dst, Bytes: uint64(len(src)),
		})
	}
	if aerr := c.api.after(CBMemcpyHtoD, p, err); err == nil {
		err = aerr
	}
	return err
}

// MemcpyDtoH copies device memory to the host (cuMemcpyDtoH).
func (c *Context) MemcpyDtoH(dst []byte, src uint64) error {
	if err := c.stickyErr(); err != nil {
		return err
	}
	if err := c.api.gate.Admit(c.scope); err != nil {
		return err
	}
	defer c.api.gate.Release(c.scope, 0)
	p := &CallParams{Ctx: c, Addr: src, Bytes: len(dst)}
	if err := c.api.before(CBMemcpyDtoH, p); err != nil {
		return err
	}
	var t0 time.Duration
	prof := c.prof()
	if prof != nil {
		t0 = prof.Now()
	}
	err := c.api.dev.Read(src, dst)
	if prof != nil && err == nil {
		prof.Emit(profile.Record{
			Kind: profile.KindMemcpyD2H, Name: CBMemcpyDtoH.String(),
			Start: t0, Dur: prof.Now() - t0, SM: -1, Addr: src, Bytes: uint64(len(dst)),
		})
	}
	if aerr := c.api.after(CBMemcpyDtoH, p, err); err == nil {
		err = aerr
	}
	return err
}

// LaunchKernel launches a kernel function (cuLaunchKernel). The interposer's
// Before callback fires first — that is where the NVBit core inspects and
// instruments the function and decides which code version runs — then the
// kernel executes on the device. The whole window (JIT included) runs under
// the gate's admission, so concurrent sessions' launches are serialized onto
// the shared SM capacity in least-accumulated-cycles order; under overload
// the launch is rejected with an OverloadError before any tool work runs.
func (c *Context) LaunchKernel(f *Function, grid, block gpu.Dim3, sharedBytes int, params []byte) error {
	if err := c.stickyErr(); err != nil {
		return err
	}
	if f == nil {
		return fmt.Errorf("driver: launch of nil function")
	}
	if !f.Entry {
		return fmt.Errorf("driver: %s is not a kernel entry", f.Name)
	}
	if err := c.api.gate.Admit(c.scope); err != nil {
		return fmt.Errorf("driver: launching %s: %w", f.Name, err)
	}
	lp := &LaunchParams{Func: f, Grid: grid, Block: block, SharedBytes: sharedBytes, ParamData: params}
	p := &CallParams{Ctx: c, Launch: lp}
	if err := c.api.before(CBLaunchKernel, p); err != nil {
		c.api.gate.Release(c.scope, 0)
		return err
	}
	st, err := c.api.dev.Launch(gpu.LaunchSpec{
		Entry:       f.launchAddr(),
		Name:        f.Name,
		Grid:        lp.Grid,
		Block:       lp.Block,
		Params:      lp.ParamData,
		SharedBytes: f.SharedBytes + lp.SharedBytes,
		Prof:        c.profOv,
		HookScope:   c.scope,
	})
	c.api.gate.Release(c.scope, st.Cycles)
	if err != nil {
		_, isFault := gpu.AsFault(err)
		err = mapLaunchError(f.Name, err)
		if isFault {
			// Device faults poison the context, CUDA-style; host-side
			// launch validation failures (bad grid, oversized shared
			// memory) leave it usable.
			c.poison(err)
		}
	}
	if aerr := c.api.after(CBLaunchKernel, p, err); err == nil {
		err = aerr
	}
	return err
}

// PackParams marshals typed arguments into the raw parameter block matching
// the function's parameter table (uint64 device pointers, uint32/int32
// scalars, float32).
func PackParams(f *Function, args ...any) ([]byte, error) {
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("driver: %s takes %d parameters, got %d", f.Name, len(f.Params), len(args))
	}
	buf := make([]byte, f.ParamBytes)
	for i, p := range f.Params {
		switch v := args[i].(type) {
		case uint64:
			if p.Bytes != 8 {
				return nil, fmt.Errorf("driver: %s parameter %s is %d bytes, got uint64", f.Name, p.Name, p.Bytes)
			}
			putU64(buf[p.Offset:], v)
		case uint32:
			if p.Bytes != 4 {
				return nil, fmt.Errorf("driver: %s parameter %s is %d bytes, got uint32", f.Name, p.Name, p.Bytes)
			}
			putU32(buf[p.Offset:], v)
		case int:
			if p.Bytes == 8 {
				putU64(buf[p.Offset:], uint64(v))
			} else {
				putU32(buf[p.Offset:], uint32(v))
			}
		case float32:
			if p.Bytes != 4 {
				return nil, fmt.Errorf("driver: %s parameter %s is %d bytes, got float32", f.Name, p.Name, p.Bytes)
			}
			putF32(buf[p.Offset:], v)
		default:
			return nil, fmt.Errorf("driver: %s parameter %s: unsupported argument type %T", f.Name, p.Name, args[i])
		}
	}
	return buf, nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func putF32(b []byte, v float32) {
	putU32(b, f32bits(v))
}

// ptxParamsOf re-exports the compiled parameter table type for module.go.
type ptxParam = ptx.Param
