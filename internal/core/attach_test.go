package core_test

import (
	"testing"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/sass"
	"nvbitgo/internal/tools/instrcount"
	"nvbitgo/internal/workloads/specaccel"
	"nvbitgo/nvbit"
)

// brokenTool panics in AtInit and counts every callback it still receives.
type brokenTool struct{ calls int }

func (t *brokenTool) AtInit(*nvbit.NVBit) { panic("tool bug in AtInit") }
func (t *brokenTool) AtTerm(*nvbit.NVBit) { t.calls++ }
func (t *brokenTool) AtCUDACall(*nvbit.NVBit, bool, nvbit.CBID, string, *nvbit.CallParams) {
	t.calls++
}

// TestFailedAttachReleasesHook: an Attach whose AtInit panics leaves no hook
// behind, on the process-wide and the session path alike. The broken tool
// sees no further callbacks and the scope is free for the next attachment.
func TestFailedAttachReleasesHook(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	base := api.HookCount()
	broken := &brokenTool{}
	if _, err := nvbit.Attach(api, broken); err == nil {
		t.Fatal("Attach with a panicking AtInit succeeded")
	}
	if _, err := nvbit.OpenSession(api, broken); err == nil {
		t.Fatal("OpenSession with a panicking AtInit succeeded")
	}
	if got := api.HookCount(); got != base {
		t.Fatalf("HookCount after failed attaches = %d, want %d", got, base)
	}
	// A session's hook sees its own context's creation before AtInit runs;
	// nothing may reach the tool after its attach failed.
	seen := broken.calls
	tool := instrcount.New()
	nv, err := nvbit.Attach(api, tool)
	if err != nil {
		t.Fatalf("Attach after a failed Attach: %v", err)
	}
	ctx, err := api.CtxCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := sessionBenchmark("ostencil").Run(ctx, specaccel.Small); err != nil {
		t.Fatal(err)
	}
	if err := api.Close(); err != nil {
		t.Fatal(err)
	}
	if broken.calls != seen {
		t.Fatalf("broken tool received %d callbacks after its attaches failed", broken.calls-seen)
	}
	if tool.AppInstrs(nv) == 0 {
		t.Fatal("tool attached after the failure counted nothing")
	}
}

// TestToolMallocZeroed: NVBit.Malloc hands tools zeroed memory even when the
// device allocator recycles a freed block that held data.
func TestToolMallocZeroed(t *testing.T) {
	api, err := driver.New(gpu.DefaultConfig(sass.Volta))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	nv, err := nvbit.Attach(api, instrcount.New())
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 << 16 // spans several device pages
	dev := api.Device()
	old, err := dev.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	pattern := make([]byte, n)
	for i := range pattern {
		pattern[i] = byte(i) | 1
	}
	if err := dev.Write(old, pattern); err != nil {
		t.Fatal(err)
	}
	if err := dev.Free(old); err != nil {
		t.Fatal(err)
	}
	addr, err := nv.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	if addr != old {
		t.Fatalf("allocator did not recycle the freed block (%#x, want %#x)", addr, old)
	}
	got := make([]byte, n)
	if err := dev.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d of tool memory = %#x, want 0", i, b)
		}
	}
}
