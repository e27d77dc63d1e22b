package core

import (
	"nvbitgo/internal/driver"
	"nvbitgo/internal/gpu"
	"nvbitgo/internal/jitcache"
	"nvbitgo/internal/profile"
)

// Option configures an Attach call. Options are the supported way to select
// per-attachment behavior (execution backend, watchdog budget, activity
// tracing); the zero-option Attach behaves exactly as before they existed.
type Option func(*attachConfig)

type attachConfig struct {
	scheduler    gpu.SchedulerKind
	setScheduler bool

	watchdog    int64
	setWatchdog bool

	tracing     bool
	traceBuffer int

	cache *jitcache.Cache

	injectMode InjectionMode
}

// WithScheduler selects the CTA-to-SM execution backend (see
// docs/scheduler.md) for the attached device.
func WithScheduler(k gpu.SchedulerKind) Option {
	return func(c *attachConfig) { c.scheduler = k; c.setScheduler = true }
}

// WithWatchdogInterval sets the launch watchdog's per-CTA warp-instruction
// budget: zero selects the default, a negative value disables the watchdog
// (see docs/faults.md).
func WithWatchdogInterval(v int64) Option {
	return func(c *attachConfig) { c.watchdog = v; c.setWatchdog = true }
}

// WithTracing attaches an activity-record collector to the device, enabling
// the CUPTI-style tracing and metrics surface (NVBit.Profiler,
// docs/observability.md). bufferRecords bounds the collector's ring; zero or
// negative selects profile.DefaultCapacity. Without this option the launch
// path stays allocation-free.
func WithTracing(bufferRecords int) Option {
	return func(c *attachConfig) { c.tracing = true; c.traceBuffer = bufferRecords }
}

// WithJITCache attaches a content-addressed instrumentation cache (see
// internal/jitcache and docs/jitcache.md) to this attachment: JIT results —
// disassembly and generated trampolines — are stored under fingerprints of
// their inputs and reused across functions, attaches and (with a disk-backed
// cache) processes. The same Cache may be shared by concurrent attaches; the
// cache coalesces racing generations so each unique function is JITted once.
func WithJITCache(c *jitcache.Cache) Option {
	return func(cfg *attachConfig) { cfg.cache = c }
}

// WithInjectionMode selects the Code Generator's injection strategy for this
// attachment: trampoline (default), full-save (ablation baseline), or inline
// (splice eligible tool bodies into dead registers; see docs/tools.md). The
// mode can also be switched later via SetInjectionMode.
func WithInjectionMode(m InjectionMode) Option {
	return func(c *attachConfig) { c.injectMode = m }
}

// apply applies the collected options to the device. Scheduler and
// watchdog are device-wide knobs for every attachment. Tracing installs a
// device-wide collector for a scope-0 attachment; for a session (scoped) it
// instead returns a private collector, so concurrent sessions' timelines
// stay separate. The result is nil unless a private collector was made.
func (c *attachConfig) apply(dev *gpu.Device, scoped bool) *profile.Collector {
	if c.setScheduler {
		dev.SetScheduler(c.scheduler)
	}
	if c.setWatchdog {
		dev.SetWatchdogInterval(c.watchdog)
	}
	if !c.tracing {
		return nil
	}
	if scoped {
		return profile.NewCollector(c.traceBuffer)
	}
	if dev.Profiler() == nil {
		dev.SetProfiler(profile.NewCollector(c.traceBuffer))
	}
	return nil
}

// Configure applies attach options to a driver instance's device without
// attaching a tool — the launcher path for running a workload uninjected
// while still selecting the scheduler, watchdog budget, or tracing through
// the same options struct every attachment uses. Attachment-only options
// (WithJITCache) are accepted and ignored: there is no JIT without a tool.
func Configure(api *driver.API, opts ...Option) {
	var cfg attachConfig
	for _, o := range opts {
		o(&cfg)
	}
	cfg.apply(api.Device(), false)
}

// Profiler returns the activity collector this attachment's records go to —
// the session's private collector for OpenSession attachments, else the
// device-wide one; nil when tracing is off. Tools and launchers use it to
// subscribe to records, drain the timeline, or read the per-kernel metrics
// table.
func (n *NVBit) Profiler() *profile.Collector { return n.profiler() }

// profiler resolves this instance's collector: session-private first, then
// device-wide.
func (n *NVBit) profiler() *profile.Collector {
	if n.prof != nil {
		return n.prof
	}
	return n.api.Device().Profiler()
}
