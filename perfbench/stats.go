package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailPercentiles are the candidates for a *_tail metric, highest first.
// They stop at p95: on a shared 2-CPU host the p99 of jit-churn's ~3,000
// first launches swung between 6 and 13 ms across runs of the same code,
// while its p95 held.
var tailPercentiles = []float64{95, 90, 75, 50}

// tail returns the highest of tailPercentiles that leaves at least ten
// samples beyond it, and the nearest-rank value at that percentile. With
// fewer than twenty samples no candidate qualifies and the maximum is
// returned with p = 100.
func tail(xs []float64) (value, p float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9)) // nearest rank, 1-based
		if rank >= 1 && len(s)-rank >= 10 {
			return s[rank-1], p
		}
	}
	return s[len(s)-1], 100
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssSampler samples the process's resident set every rssInterval and
// keeps the peak of each interval between marks, so a run can report the
// median over its operations' peaks: one peak depends on where garbage
// collections happened to fall, the median much less.
type rssSampler struct {
	mu    sync.Mutex
	cur   float64   // MiB, peak since the last mark
	peaks []float64 // MiB, one per closed interval
	stop  chan struct{}
	done  chan struct{}
}

const rssInterval = 10 * time.Millisecond

// startRSSSampler starts sampling; it returns nil where /proc/self/statm
// is unavailable.
func startRSSSampler() *rssSampler {
	if _, ok := residentMiB(); !ok {
		return nil
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	if v, ok := residentMiB(); ok {
		s.mu.Lock()
		s.cur = max(s.cur, v)
		s.mu.Unlock()
	}
}

// mark closes the current interval.
func (s *rssSampler) mark() {
	if s == nil {
		return
	}
	s.sample()
	s.mu.Lock()
	s.peaks = append(s.peaks, s.cur)
	s.cur = 0
	s.mu.Unlock()
}

// reset drops the intervals recorded so far.
func (s *rssSampler) reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.peaks, s.cur = nil, 0
	s.mu.Unlock()
}

// close stops the sampler and waits for its goroutine to exit.
func (s *rssSampler) close() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}

// residentMiB reads the current resident set from /proc/self/statm.
func residentMiB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapAllocs reads the runtime's cumulative heap allocation counters
// (objects, bytes) without stopping the world.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
