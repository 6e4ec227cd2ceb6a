package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// passCost is what one measured pass cost the process.
type passCost struct {
	wall, cpu  time.Duration
	peakHeapMB float64
	allocMB    float64
	gcCycles   uint32
	gcPauseMS  float64
}

// meter measures one pass: wall and process CPU time, the peak live Go
// heap, and the allocation and GC totals.
//
// The peak is the largest live heap a garbage collection found during
// the pass (runtime/metrics /gc/heap/live:bytes, sampled while the pass
// runs). The heap including garbage peaks wherever the collector
// happens to start, up to twice the live heap, so its peak says more
// about GC timing than about what the program keeps.
type meter struct {
	start    time.Time
	cpu      time.Duration
	mem      runtime.MemStats
	stop     chan struct{}
	done     sync.WaitGroup
	peakHeap uint64
}

// heapSampleEvery is how often the sampler reads the live heap.
const heapSampleEvery = 10 * time.Millisecond

// startMeter collects garbage first, so every pass starts from the same
// heap, then starts the heap sampler.
func startMeter() *meter {
	runtime.GC()
	m := &meter{stop: make(chan struct{})}
	runtime.ReadMemStats(&m.mem)
	m.cpu = processCPU()
	m.done.Add(1)
	go m.sample()
	m.start = time.Now()
	return m
}

func (m *meter) sample() {
	defer m.done.Done()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > m.peakHeap {
			m.peakHeap = v
		}
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
	}
}

// finish stops the sampler and returns the pass's cost.
func (m *meter) finish() passCost {
	wall := time.Since(m.start)
	cpu := processCPU() - m.cpu
	close(m.stop)
	m.done.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return passCost{
		wall:       wall,
		cpu:        cpu,
		peakHeapMB: float64(m.peakHeap) / (1 << 20),
		allocMB:    float64(after.TotalAlloc-m.mem.TotalAlloc) / (1 << 20),
		gcCycles:   after.NumGC - m.mem.NumGC,
		gcPauseMS:  float64(after.PauseTotalNs-m.mem.PauseTotalNs) / 1e6,
	}
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
