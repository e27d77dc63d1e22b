package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"nvbitgo/internal/profile"
)

// span is one timed call into a layer. Spans the benchmark records around
// its own calls nest exactly (they are taken on one goroutine per session);
// folded spans come from the framework's activity collector and are placed
// under the innermost own span containing their midpoint, so a few
// microseconds of epoch error cannot turn a record into the parent of the
// call that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Sess   uint64 `json:"sess"` // session, client or run the span belongs to
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer epoch
	End    int64  `json:"end_ns"`
	Folded bool   `json:"folded,omitempty"`
	self   int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced path pays one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span.
func (t *tracer) add(sess uint64, layer, name string, start, end time.Time) {
	t.record(sess, layer, name, start, end, false)
}

func (t *tracer) record(sess uint64, layer, name string, start, end time.Time, folded bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Sess: sess, Layer: layer, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Folded: folded,
	})
	t.mu.Unlock()
}

// do times fn as a span.
func (t *tracer) do(sess uint64, layer, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.add(sess, layer, name, start, time.Now())
	return err
}

// jitPhaseLayer maps the framework's JIT-phase records to the layer doing
// the work: lookups and hits are the instrumentation cache's, retrieval is
// the driver's, the rest is the NVBit core's.
var jitPhaseLayer = map[string]string{
	"retrieve":     "driver",
	"disassemble":  "core",
	"convert":      "core",
	"user-code":    "core",
	"codegen":      "core",
	"swap":         "core",
	"cache_lookup": "jitcache",
	"cache_hit":    "jitcache",
}

// fold copies the records of the framework's own activity collector
// (nvbit.WithTracing) into the span list. epoch is a wall time taken just
// before the collector was created, so folded spans land within the
// collector's creation latency of their true position.
func (t *tracer) fold(sess uint64, c *profile.Collector, epoch time.Time) {
	if t == nil || c == nil {
		return
	}
	for _, r := range c.Records() {
		var layer string
		switch r.Kind {
		case profile.KindJITPhase:
			layer = jitPhaseLayer[r.Name]
		case profile.KindKernel:
			layer = "gpu"
		case profile.KindToolCallback:
			layer = "core"
		case profile.KindChannelFlush, profile.KindChannelDrain:
			layer = "channel"
		case profile.KindModuleLoad, profile.KindCtxCreate, profile.KindMemcpyH2D,
			profile.KindMemcpyD2H, profile.KindMemAlloc, profile.KindMemFree:
			layer = "driver"
		}
		if layer == "" { // per-SM slices tile their kernel record
			continue
		}
		start := epoch.Add(r.Start)
		t.record(sess, layer, "profile."+r.Kind.String()+":"+r.Name, start, start.Add(r.Dur), true)
	}
}

// nest assigns parents and computes every span's self time: its duration
// minus the union of its direct children's intervals (clipped to it).
func (t *tracer) nest() {
	sort.SliceStable(t.spans, func(i, j int) bool {
		a, b := t.spans[i], t.spans[j]
		if a.Sess != b.Sess {
			return a.Sess < b.Sess
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	for lo := 0; lo < len(t.spans); {
		hi := lo
		for hi < len(t.spans) && t.spans[hi].Sess == t.spans[lo].Sess {
			hi++
		}
		nestSession(t.spans[lo:hi])
		lo = hi
	}
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
}

// nestSession nests one session's spans (sorted by start, longest first).
func nestSession(spans []span) {
	var own []int           // indexes of own spans, in start order
	ownPos := map[int]int{} // own span ID -> position in own
	var stack []int
	for i := range spans {
		if spans[i].Folded {
			continue
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].End <= spans[i].Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			spans[i].Parent = spans[stack[len(stack)-1]].ID
		}
		stack = append(stack, i)
		ownPos[spans[i].ID] = len(own)
		own = append(own, i)
	}
	// A folded span's own parent is the innermost own span containing its
	// midpoint: the last own span starting at or before the midpoint, or
	// the nearest of that span's ancestors that contains it. Under that
	// parent, folded spans nest by containment among themselves.
	open := map[int][]int{} // own parent ID -> stack of open folded spans
	for i := range spans {
		f := &spans[i]
		if !f.Folded {
			continue
		}
		mid := f.Start + (f.End-f.Start)/2
		parent := 0
		for k := sort.Search(len(own), func(k int) bool { return spans[own[k]].Start > mid }) - 1; k >= 0; {
			o := &spans[own[k]]
			if o.End > mid {
				parent = o.ID
				break
			}
			pos, ok := ownPos[o.Parent]
			if !ok {
				break
			}
			k = pos
		}
		st := open[parent]
		for len(st) > 0 && spans[st[len(st)-1]].End <= f.Start {
			st = st[:len(st)-1]
		}
		f.Parent = parent
		if len(st) > 0 {
			f.Parent = spans[st[len(st)-1]].ID
		}
		open[parent] = append(st, i)
	}
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfByLayer returns each layer's summed self time over the spans of every
// session but skip, and the summed duration of their root spans.
func (t *tracer) selfByLayer(skip uint64) (self map[string]time.Duration, roots time.Duration) {
	self = map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Sess == skip {
			continue
		}
		self[s.Layer] += time.Duration(max(s.self, 0))
		if s.Parent == 0 {
			roots += time.Duration(s.End - s.Start)
		}
	}
	return self, roots
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
