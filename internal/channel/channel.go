// Package channel implements the device→host streaming record channel of
// this NVBit reproduction — the analog of the real framework's
// ChannelDev/ChannelHost utility pair that every data-heavy tool (mem_trace,
// cache simulators, the Section 6.3 tracing workflow) is built on.
//
// A Channel owns, per SM, one 64-byte control block and a double-buffered
// record area in device memory. Injected tool functions push fixed-size
// records with a warp-aggregated atomic-reserve protocol (ReservePTX /
// CommitPTX — the idiom previously hand-rolled by itrace and cachesim,
// factored out here), selecting their shard with %smid so no two scheduler
// workers ever touch the same shard. The simulator's flush hooks
// (gpu.AddFlushHook) give the host control at every CTA-completion and
// warp-sweep boundary: when a shard's buffer is full and quiescent the hook
// swaps it for the spare and ships the full one to an asynchronous receiver
// goroutine — a mid-kernel flush, so long kernels no longer lose records at
// the old launch-exit-only drain.
//
// Backpressure is selectable per channel: Drop (the pre-channel behaviour —
// a push into a full buffer is counted and discarded) or Block (the device
// side retries until a flush frees the buffer, guaranteeing zero loss).
//
// Ordering guarantee: within one shard, records are delivered in push order;
// Drain merges shards in ascending-SM order (the PR 1/PR 3 merge
// discipline). Because the per-SM CTA schedule, warp scheduling, and flush
// points are identical under the sequential and parallel schedulers, the
// delivered record stream is byte-identical across both.
package channel

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"nvbitgo/internal/gpu"
	"nvbitgo/internal/profile"
)

// Policy selects what the device-side push does when the shard's active
// buffer is full.
type Policy int

const (
	// Drop discards the push and counts the loss in Stats.Dropped — the
	// behaviour of the pre-channel ring buffers, minus the losses that
	// mid-kernel flushes now salvage.
	Drop Policy = iota
	// Block retries the claim until a sweep-boundary flush frees the
	// buffer. No record is ever lost; the device spends (watchdog-counted)
	// spin instructions instead.
	Block
)

func (p Policy) String() string {
	switch p {
	case Drop:
		return "drop"
	case Block:
		return "block"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Per-SM control block layout (ctrlBytes each, at CtrlAddr() + sm*ctrlBytes):
//
//	[0]  u64 head   — claim cursor, atomically advanced by warp leaders by
//	                  the warp's record count ("need"). The fetched old
//	                  value is the claim's slot base; the claim succeeded
//	                  iff base+need ≤ cap. A failed claim leaves head
//	                  inflated, so within one buffer epoch every claim
//	                  after the first failure also fails — successful
//	                  claims therefore form a contiguous slot prefix.
//	[8]  u64 cap    — record slots per buffer
//	[16] u64 buf    — active buffer base address (the host swaps it)
//	[24] u64 failed — slots claimed by failed attempts, published by the
//	                  leader after detecting fullness. head-failed is the
//	                  successfully claimed count.
//	[32] u64 commit — fully written slots, published by the leader after
//	                  all record stores (CommitPTX).
//
// The quiescence rule that makes mid-kernel buffer swaps safe: the host
// ships only when commit == head-failed. The head atomic itself publishes
// a claim, so a warp interrupted anywhere mid-push (between claim and
// failed-publish, or between claim and commit) makes head-failed strictly
// exceed commit — the hook then skips and retries at a later boundary,
// never observing a claimed-but-unwritten slot as shippable.
const (
	ctrlBytes = 64
	offHead   = 0
	offCap    = 8
	offBuf    = 16
	offFailed = 24
	offCommit = 32
)

// MinBufRecords is the smallest per-SM buffer capacity: a full warp's
// per-lane claim (32 records) must always be able to succeed, or a
// Block-policy push could spin forever against a buffer that can never fit
// it.
const MinBufRecords = 32

// Config describes one channel.
type Config struct {
	// Name labels the channel in activity records and errors.
	Name string
	// RecordBytes is the fixed record size; must be a positive multiple
	// of 8 (records hold 64-bit words and are stored 8-aligned).
	RecordBytes int
	// BufRecords is the per-SM, per-buffer capacity in records. Zero
	// derives it from TotalRecords; either way it is clamped up to
	// MinBufRecords.
	BufRecords int
	// TotalRecords sizes the channel the way the old ring buffers were
	// sized — an aggregate record capacity, divided evenly across the
	// SM shards. Ignored when BufRecords is set.
	TotalRecords int
	// Policy selects the full-buffer backpressure behaviour.
	Policy Policy
	// OnBatch, if set, receives each shipped buffer's raw bytes (a whole
	// number of records) in delivered order during Drain. The slice is
	// owned by the callee.
	OnBatch func(data []byte)
	// QueueDepth bounds the flush→receiver Go channel (default 64).
	QueueDepth int
	// Scope is the hook scope of the channel's flush hooks: they fire only
	// during launches carrying the same gpu.LaunchSpec HookScope, so no
	// channel observes another scope's kernels. Zero (the default) is the
	// process-wide scope: launches on CtxCreate contexts and direct device
	// launches. NVBit.OpenChannel fills in a session's scope.
	Scope uint64
	// Profiler, when non-nil, receives the channel's flush/drain activity
	// records instead of the device-wide collector — a session's private
	// timeline.
	Profiler *profile.Collector
}

// Stats is a consistent snapshot of a channel's counters. All counters are
// maintained atomically (the hook side runs on SM worker goroutines); a
// snapshot taken after Drain returns reflects everything that launch pushed.
type Stats struct {
	Delivered    uint64 // records handed to OnBatch
	Dropped      uint64 // records lost to Drop-policy overflow
	Flushes      uint64 // buffers shipped (all flush points)
	TickFlushes  uint64 // … at warp-sweep boundaries (mid-kernel)
	CTAFlushes   uint64 // … at CTA completion (mid-kernel)
	DrainFlushes uint64 // … at launch-exit Drain
	BytesShipped uint64 // payload bytes copied off the device
}

// Channel is one open device→host record stream. The flush side runs on the
// scheduler's SM goroutines; Open, Drain and Close must be called from the
// host (launching) goroutine, between launches.
type Channel struct {
	cfg    Config
	dev    *gpu.Device
	nSMs   int
	slots  uint64 // records per buffer (per SM)
	ctrl   uint64 // nSMs control blocks
	bufs   uint64 // nSMs × 2 record buffers
	sms    []smState
	unhook func()

	delivered    atomic.Uint64
	dropped      atomic.Uint64
	flushes      atomic.Uint64
	tickFlushes  atomic.Uint64
	ctaFlushes   atomic.Uint64
	drainFlushes atomic.Uint64
	bytesShipped atomic.Uint64

	msgs chan flushMsg
	done chan struct{}
}

// smState is the host-side state of one SM shard, touched only by the
// goroutine that owns the SM (plus the launching goroutine at Drain, after
// workers have joined).
type smState struct {
	ctrl    uint64 // this shard's control block
	bufA    uint64
	bufB    uint64
	activeB bool // bufB is the device's active buffer
	scratch [ctrlBytes]byte
	shard   *profile.Shard // KindChannelFlush spans, merged at Drain
}

type flushMsg struct {
	sm   int
	data []byte
	sync chan struct{} // drain barrier when non-nil
}

// Open allocates a channel's device memory on dev, registers its flush hook
// and starts the receiver goroutine. Call between launches.
func Open(dev *gpu.Device, cfg Config) (*Channel, error) {
	if cfg.RecordBytes <= 0 || cfg.RecordBytes%8 != 0 {
		return nil, fmt.Errorf("channel: record size %d not a positive multiple of 8", cfg.RecordBytes)
	}
	if cfg.Name == "" {
		cfg.Name = "channel"
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	nSMs := dev.Config().NumSMs
	slots := cfg.BufRecords
	if slots == 0 && cfg.TotalRecords > 0 {
		slots = cfg.TotalRecords / nSMs
	}
	if slots < MinBufRecords {
		slots = MinBufRecords
	}
	cfg.BufRecords = slots

	c := &Channel{
		cfg:   cfg,
		dev:   dev,
		nSMs:  nSMs,
		slots: uint64(slots),
		msgs:  make(chan flushMsg, cfg.QueueDepth),
		done:  make(chan struct{}),
		sms:   make([]smState, nSMs),
	}
	var err error
	if c.ctrl, err = dev.Malloc(uint64(nSMs) * ctrlBytes); err != nil {
		return nil, fmt.Errorf("channel %s: %w", cfg.Name, err)
	}
	bufBytes := uint64(slots * cfg.RecordBytes)
	if c.bufs, err = dev.Malloc(uint64(nSMs) * 2 * bufBytes); err != nil {
		_ = dev.Free(c.ctrl)
		return nil, fmt.Errorf("channel %s: %w", cfg.Name, err)
	}
	for sm := 0; sm < nSMs; sm++ {
		s := &c.sms[sm]
		s.ctrl = c.ctrl + uint64(sm)*ctrlBytes
		s.bufA = c.bufs + uint64(sm)*2*bufBytes
		s.bufB = s.bufA + bufBytes
		s.shard = profile.NewShard(0)
		binary.LittleEndian.PutUint64(s.scratch[offCap:], c.slots)
		binary.LittleEndian.PutUint64(s.scratch[offBuf:], s.bufA)
		if err := dev.Write(s.ctrl, s.scratch[:]); err != nil {
			_ = dev.Free(c.ctrl)
			_ = dev.Free(c.bufs)
			return nil, fmt.Errorf("channel %s: %w", cfg.Name, err)
		}
	}
	c.unhook = dev.AddFlushHook(cfg.Scope, c.onFlushPoint)
	go c.receive()
	return c, nil
}

// prof resolves the collector for the channel's activity records.
func (c *Channel) prof() *profile.Collector {
	if c.cfg.Profiler != nil {
		return c.cfg.Profiler
	}
	return c.dev.Profiler()
}

// CtrlAddr returns the device address of the shard control-block array —
// the value tools pass to their injected functions (ArgConst64) and name in
// ReservePTX's CtrlParam.
func (c *Channel) CtrlAddr() uint64 { return c.ctrl }

// Config returns the channel's configuration with sizing resolved
// (BufRecords holds the actual per-SM buffer capacity).
func (c *Channel) Config() Config { return c.cfg }

// Stats returns a snapshot of the channel counters.
func (c *Channel) Stats() Stats {
	return Stats{
		Delivered:    c.delivered.Load(),
		Dropped:      c.dropped.Load(),
		Flushes:      c.flushes.Load(),
		TickFlushes:  c.tickFlushes.Load(),
		CTAFlushes:   c.ctaFlushes.Load(),
		DrainFlushes: c.drainFlushes.Load(),
		BytesShipped: c.bytesShipped.Load(),
	}
}

// onFlushPoint is the gpu.FlushHook: at each sweep/CTA boundary of SM sm it
// ships the shard's buffer if (and only if) the buffer is full and every
// claimed record has been committed. The quiescence check (commit ==
// claimed) makes the swap safe even when another warp was interrupted
// mid-push: that warp's claim keeps the buffer pinned until its stores land.
func (c *Channel) onFlushPoint(sm int, point gpu.FlushPoint) {
	c.flushShard(sm, point, false)
}

func (c *Channel) flushShard(sm int, point gpu.FlushPoint, drain bool) {
	s := &c.sms[sm]
	if err := c.dev.Read(s.ctrl, s.scratch[:]); err != nil {
		return
	}
	head := binary.LittleEndian.Uint64(s.scratch[offHead:])
	failed := binary.LittleEndian.Uint64(s.scratch[offFailed:])
	commit := binary.LittleEndian.Uint64(s.scratch[offCommit:])
	if failed > head {
		return // a failed-claim publish outran our view; not quiescent
	}
	claimed := head - failed // successfully claimed slots (exact when quiescent)
	if claimed > c.slots {
		claimed = c.slots // defensive clamp; successes cannot exceed cap
	}
	if drain {
		if head == 0 && failed == 0 {
			return // shard untouched since its last flush
		}
	} else {
		// Mid-kernel: flush only a full, quiescent buffer. "Full" is
		// either exactly at capacity or wedged (a claim has failed, so
		// every further claim fails until we reset); "quiescent" is
		// commit == claimed, which any mid-push warp falsifies.
		if claimed == 0 || commit != claimed || (claimed != c.slots && failed == 0) {
			return
		}
	}

	prof := c.prof()
	var t0 time.Duration
	if prof != nil {
		t0 = prof.Now()
	}
	var data []byte
	if claimed > 0 {
		src := s.bufA
		if s.activeB {
			src = s.bufB
		}
		data = make([]byte, claimed*uint64(c.cfg.RecordBytes))
		if err := c.dev.Read(src, data); err != nil {
			return
		}
		s.activeB = !s.activeB // swap: the device fills the spare next
	}
	next := s.bufA
	if s.activeB {
		next = s.bufB
	}
	for i := range s.scratch {
		s.scratch[i] = 0
	}
	binary.LittleEndian.PutUint64(s.scratch[offCap:], c.slots)
	binary.LittleEndian.PutUint64(s.scratch[offBuf:], next)
	if err := c.dev.Write(s.ctrl, s.scratch[:]); err != nil {
		return
	}

	// Under Drop, failed claims are lost records; under Block they were
	// retried and will land in a later epoch — reset without counting.
	if failed > 0 && c.cfg.Policy == Drop {
		c.dropped.Add(failed)
	}
	if data != nil {
		c.flushes.Add(1)
		c.bytesShipped.Add(uint64(len(data)))
		switch {
		case drain:
			c.drainFlushes.Add(1)
		case point == gpu.FlushCTA:
			c.ctaFlushes.Add(1)
		default:
			c.tickFlushes.Add(1)
		}
		c.msgs <- flushMsg{sm: sm, data: data}
		if prof != nil {
			s.shard.Append(profile.Record{
				Kind:  profile.KindChannelFlush,
				Name:  c.cfg.Name,
				SM:    sm,
				Start: t0,
				Dur:   prof.Now() - t0,
				Bytes: uint64(len(data)),
				Count: claimed,
			})
		}
	}
}

// receive is the channel's host receiver: it consumes shipped buffers
// concurrently with kernel execution, bucketing them per SM shard in arrival
// order (which, per sender, is flush order). Delivery to OnBatch happens at
// each Drain barrier, shard by shard in ascending-SM order, so the record
// stream a consumer sees is scheduler-independent.
func (c *Channel) receive() {
	defer close(c.done)
	pending := make([][][]byte, c.nSMs)
	for m := range c.msgs {
		if m.sync == nil {
			pending[m.sm] = append(pending[m.sm], m.data)
			continue
		}
		for sm := range pending {
			for _, data := range pending[sm] {
				if c.cfg.OnBatch != nil {
					c.cfg.OnBatch(data)
				}
				c.delivered.Add(uint64(len(data) / c.cfg.RecordBytes))
			}
			pending[sm] = pending[sm][:0]
		}
		close(m.sync)
	}
}

// Drain ships every shard's remaining records (and residual drop counts),
// then waits for the receiver to deliver all buffered batches in
// ascending-SM order. Tools call it from their launch-exit callback; it must
// run on the launching goroutine with no launch in flight. With a profiler
// attached it emits one KindChannelDrain record whose children are the
// drain's (and the preceding launch's mid-kernel) flush spans, merged in
// ascending-SM order.
func (c *Channel) Drain() {
	before := c.delivered.Load()
	bytesBefore := c.bytesShipped.Load()
	prof := c.prof()
	var t0 time.Duration
	if prof != nil {
		t0 = prof.Now()
	}
	for sm := 0; sm < c.nSMs; sm++ {
		c.flushShard(sm, gpu.FlushCTA, true)
	}
	syn := make(chan struct{})
	c.msgs <- flushMsg{sync: syn}
	<-syn
	if prof != nil {
		id := prof.Emit(profile.Record{
			Kind:  profile.KindChannelDrain,
			Name:  c.cfg.Name,
			SM:    -1,
			Start: t0,
			Dur:   prof.Now() - t0,
			Bytes: c.bytesShipped.Load() - bytesBefore,
			Count: c.delivered.Load() - before,
		})
		for sm := 0; sm < c.nSMs; sm++ {
			prof.MergeShard(c.sms[sm].shard, id)
		}
	}
}

// Close unregisters the flush hook, stops the receiver and frees the
// channel's device memory. Buffers shipped but not yet drained are
// discarded; call Drain first. Call between launches.
func (c *Channel) Close() {
	if c.unhook != nil {
		c.unhook()
		c.unhook = nil
	}
	if c.msgs != nil {
		close(c.msgs)
		<-c.done
		c.msgs = nil
	}
	if c.ctrl != 0 {
		_ = c.dev.Free(c.ctrl)
		_ = c.dev.Free(c.bufs)
		c.ctrl, c.bufs = 0, 0
	}
}
