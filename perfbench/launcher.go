package main

import (
	"time"

	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
)

// launchObs is one observed LaunchKernel call.
type launchObs struct {
	first bool // first launch of fn through this launcher (JIT happens here)
	dur   time.Duration
	err   error
	// Filled only when the launcher has a local device.
	stats gpu.Stats
	// Filled only for traced non-first launches (measured set): heap
	// allocations the launch made.
	measured           bool
	allocs, allocBytes uint64
}

// timedLauncher wraps a driver.Launcher — a local context or an nvbitd
// remote session — and times every call into it from the outside. It is
// how the benchmark measures the driver (or, remotely, the daemon) without
// adding anything to the program.
type timedLauncher struct {
	inner driver.Launcher
	dev   *gpu.Device // local device for per-launch stats deltas; nil remotely
	tr    *tracer
	sess  uint64
	layer string // "driver" locally, "nvbitd" for a remote session

	launched map[*driver.Function]bool
	sources  []string // every PTX source loaded, in order

	loads    []time.Duration
	launches []launchObs
	calls    int // calls made through the launcher
}

func newTimedLauncher(inner driver.Launcher, dev *gpu.Device, tr *tracer, sess uint64, layer string) *timedLauncher {
	return &timedLauncher{inner: inner, dev: dev, tr: tr, sess: sess, layer: layer,
		launched: make(map[*driver.Function]bool)}
}

var _ driver.Launcher = (*timedLauncher)(nil)

func (l *timedLauncher) span(name string, start time.Time) {
	l.calls++
	l.tr.add(l.sess, l.layer, name, start, time.Now())
}

func (l *timedLauncher) ModuleLoadPTX(name, source string) (*driver.Module, error) {
	start := time.Now()
	m, err := l.inner.ModuleLoadPTX(name, source)
	l.loads = append(l.loads, time.Since(start))
	l.sources = append(l.sources, source)
	l.span("ModuleLoadPTX", start)
	return m, err
}

func (l *timedLauncher) MemAlloc(n uint64) (uint64, error) {
	start := time.Now()
	a, err := l.inner.MemAlloc(n)
	l.span("MemAlloc", start)
	return a, err
}

func (l *timedLauncher) MemFree(addr uint64) error {
	start := time.Now()
	err := l.inner.MemFree(addr)
	l.span("MemFree", start)
	return err
}

func (l *timedLauncher) MemcpyHtoD(dst uint64, src []byte) error {
	start := time.Now()
	err := l.inner.MemcpyHtoD(dst, src)
	l.span("MemcpyHtoD", start)
	return err
}

func (l *timedLauncher) MemcpyDtoH(dst []byte, src uint64) error {
	start := time.Now()
	err := l.inner.MemcpyDtoH(dst, src)
	l.span("MemcpyDtoH", start)
	return err
}

func (l *timedLauncher) LaunchKernel(f *driver.Function, grid, block gpu.Dim3, sharedBytes int, params []byte) error {
	obs := launchObs{first: !l.launched[f]}
	l.launched[f] = true
	var before gpu.Stats
	if l.dev != nil {
		before = l.dev.Stats()
	}
	measureAllocs := l.tr != nil && !obs.first
	var o0, b0 uint64
	if measureAllocs {
		o0, b0 = heapAllocs()
	}
	start := time.Now()
	err := l.inner.LaunchKernel(f, grid, block, sharedBytes, params)
	obs.dur = time.Since(start)
	if measureAllocs {
		o1, b1 := heapAllocs()
		obs.measured, obs.allocs, obs.allocBytes = true, o1-o0, b1-b0
	}
	if l.dev != nil {
		obs.stats = l.dev.Stats()
		obs.stats.Sub(before)
	}
	obs.err = err
	l.launches = append(l.launches, obs)
	name := "LaunchKernel"
	if obs.first {
		name = "LaunchKernel(first)"
	}
	l.span(name, start)
	return err
}
