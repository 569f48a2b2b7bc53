package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// samples collects durations (nanoseconds) from one or more goroutines.
type samples struct {
	mu sync.Mutex
	ns []int64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, int64(d))
	s.mu.Unlock()
}

func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ns)
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantileOf(s.ns, q)
}

func (s *samples) ms(q float64) float64 { return s.quantile(q) / 1e6 }

// quantileOf sorts ns in place and returns its q-quantile by linear
// interpolation between closest ranks.
func quantileOf(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	pos := q * float64(len(ns)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return float64(ns[lo]) + (pos-float64(lo))*float64(ns[hi]-ns[lo])
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// slicedQuantile splits timed samples into equal slices of the window,
// takes the q-quantile of each slice and returns the median of those.
// One stall lands in one slice instead of moving the run's p95, which is
// what lets a short run on shared cores repeat. There are as many slices
// as the window has seconds, fewer when that would leave a slice under
// 200 samples, but at least five. at[i] is sample i's offset into the
// window.
func slicedQuantile(at, ns []int64, window time.Duration, q float64) float64 {
	n := min(int(window/time.Second), len(ns)/200)
	n = max(n, 5)
	buckets := make([][]int64, n)
	for i, t := range at {
		if b := int(int64(n) * t / int64(window)); b >= 0 && b < n {
			buckets[b] = append(buckets[b], ns[i])
		}
	}
	var qs []float64
	for _, b := range buckets {
		if len(b) > 0 {
			qs = append(qs, quantileOf(b, q))
		}
	}
	return medianOf(qs)
}

// procSnapshot is the process's resource use at one instant.
type procSnapshot struct {
	at         time.Time
	cpu        time.Duration // user+sys
	allocBytes uint64
	mallocs    uint64
	gcPause    time.Duration
	gcCPU      float64 // MemStats.GCCPUFraction, since process start
	// The conductor's thread: its CPU time, and the part of it inside
	// emit calls.
	genCPU, genEmit time.Duration
}

// systemCPU is the process's CPU time without the conductor's spinning:
// the emit calls the conductor makes are the system's work and stay in.
func (p procSnapshot) systemCPU() time.Duration { return p.cpu - p.genCPU + p.genEmit }

func (r *run) takeProcSnapshot() procSnapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var genCPU, genEmit time.Duration
	if r.gen != nil {
		genCPU, genEmit = time.Duration(r.gen.cpuNs.Load()), time.Duration(r.gen.emitNs.Load())
	}
	return procSnapshot{
		genCPU:     genCPU,
		genEmit:    genEmit,
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcPause:    time.Duration(ms.PauseTotalNs),
		gcCPU:      ms.GCCPUFraction,
	}
}

// peakRSSMB is the process's high-water resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// loadAvg1 is the 1-minute load average, or -1 where /proc has none.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// goroutineWatch samples the goroutine count until stopped.
type goroutineWatch struct {
	stop chan struct{}
	done chan struct{}
	peak int
}

func watchGoroutines() *goroutineWatch {
	w := &goroutineWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > w.peak {
				w.peak = n
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *goroutineWatch) finish() int {
	close(w.stop)
	<-w.done
	return w.peak
}

// threadCPU is the calling thread's CPU time in nanoseconds, 0 where the
// clock is not available. The caller must be locked to its thread.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}
