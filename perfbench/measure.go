package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/pool"
)

// cpuNow returns the process's CPU time (user + system) so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak of the heap-objects byte count every 25 ms.
// It reads runtime/metrics, which does not stop the world, so sampling a
// large heap does not slow the screen it measures.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: heapObjects}}
		for {
			s.observe(sample)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) observe(sample []metrics.Sample) {
	metrics.Read(sample)
	if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > s.peak.Load() {
		s.peak.Store(v.Uint64())
	}
}

// finish stops the sampler, takes one last sample and returns the peak in MiB.
func (s *heapSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.observe([]metrics.Sample{{Name: heapObjects}})
	return float64(s.peak.Load()) / (1 << 20)
}

// resetHeap empties the shared buffer pool and collects, so a set-up starts
// cold and a peak measures this run, not buffers an earlier phase left idle.
func resetHeap() {
	pool.Default.Drain()
	runtime.GC()
}

// runtimeCounters is a snapshot of the allocation and GC counters.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// cpuTicks reads the aggregate cpu line of /proc/stat: the total ticks and
// the steal ticks. ok is false where /proc/stat is unavailable.
func cpuTicks() (total, steal uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already counted in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter measures the share of host CPU time stolen from this VM.
type stealMeter struct{ total, steal uint64 }

func startSteal() stealMeter {
	t, s, _ := cpuTicks()
	return stealMeter{total: t, steal: s}
}

func (m stealMeter) share() float64 {
	t, s, ok := cpuTicks()
	if !ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// cpuModel returns the first model name in /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
