package driver

import (
	"errors"
	"testing"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
)

// launchAddOne loads addOnePTX on c and launches it over a fresh buffer.
func launchAddOne(t *testing.T, c *Context) {
	t.Helper()
	mod, err := c.ModuleLoadPTX("app", addOnePTX)
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.GetFunction("addone")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := c.MemAlloc(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	params, err := PackParams(f, buf, uint32(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LaunchKernel(f, gpu.D1(2), gpu.D1(32), 0, params); err != nil {
		t.Fatal(err)
	}
}

// TestFlushHooksFireForOwnScopeOnly: a flush hook fires only during launches
// whose context scope equals its own. A scope-0 hook stays silent inside a
// session's kernels, and a session's hook stays silent inside scope-0
// kernels.
func TestFlushHooksFireForOwnScopeOnly(t *testing.T) {
	a := newAPI(t, sass.Volta)
	plain, err := a.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := a.CtxCreateScoped(&recordingHook{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fired [2]int
	defer a.Device().AddFlushHook(0, func(int, gpu.FlushPoint) { fired[0]++ })()
	defer a.Device().AddFlushHook(sess.Scope(), func(int, gpu.FlushPoint) { fired[1]++ })()

	launchAddOne(t, sess)
	if fired[0] != 0 || fired[1] == 0 {
		t.Fatalf("session launch: scope-0 hook fired %d times, session hook %d (want 0, >0)", fired[0], fired[1])
	}
	fired = [2]int{}
	launchAddOne(t, plain)
	if fired[0] == 0 || fired[1] != 0 {
		t.Fatalf("scope-0 launch: scope-0 hook fired %d times, session hook %d (want >0, 0)", fired[0], fired[1])
	}
}

// TestDriverHooksObserveOwnScopeOnly: the process-wide interposer and a
// session hook each see only their own scope's calls, Close delivers every
// scope's exit callback once and empties the registry, and a panicking
// scope-0 exit enter callback does not suppress its exit callback.
func TestDriverHooksObserveOwnScopeOnly(t *testing.T) {
	a := newAPI(t, sass.Volta)
	global := &exitProbe{panicHook: &panicHook{panicBefore: map[CBID]bool{CBAppExit: true}}}
	if err := a.SetHook(global); err != nil {
		t.Fatal(err)
	}
	local := &recordingHook{}
	sess, err := a.CtxCreateScoped(local, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.HookCount(); got != 2 {
		t.Fatalf("HookCount = %d, want 2", got)
	}
	launchAddOne(t, sess)
	for _, cbid := range global.calls {
		if cbid != CBAppExit {
			t.Fatalf("process-wide hook observed session call %s", cbid)
		}
	}
	n := len(local.events)
	plain, err := a.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	launchAddOne(t, plain)
	if len(local.events) != n {
		t.Fatalf("session hook observed scope-0 calls: %v", local.events[n:])
	}

	if err := a.Close(); !errors.Is(err, ErrToolCallback) {
		t.Fatalf("Close with panicking exit enter: %v", err)
	}
	if !global.exitAfter {
		t.Fatal("panicking exit enter callback suppressed the exit callback")
	}
	if got := local.events[len(local.events)-1]; got != "exit:appExit" {
		t.Fatalf("session's last event %q, want exit:appExit", got)
	}
	if got := a.HookCount(); got != 0 {
		t.Fatalf("HookCount after Close = %d, want 0", got)
	}
}

// exitProbe is a panicHook that records whether the application-exit exit
// callback ran.
type exitProbe struct {
	*panicHook
	exitAfter bool
}

func (h *exitProbe) After(cbid CBID, name string, p *CallParams, result error) {
	if cbid == CBAppExit {
		h.exitAfter = true
	}
	h.panicHook.After(cbid, name, p, result)
}
