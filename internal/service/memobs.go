package service

import (
	"runtime"
	"sync"

	"introspect/internal/analysis"
)

// memObserver samples runtime.MemStats at stage boundaries and reports
// each stage's allocation delta — and, for the main pass, the
// bytes-per-constraint-node figure — to the service metrics. One
// instance is composed into each solve's observer chain; within a run
// the pipeline serializes callbacks, but the mutex keeps the sampler
// correct under any future overlap. TotalAlloc is process-wide, so
// concurrent solves inflate each other's deltas; the numbers size
// capacity, they do not attribute allocations exactly.
type memObserver struct {
	analysis.NopObserver
	m *Metrics

	mu      sync.Mutex
	atStart uint64 // TotalAlloc when the current stage began
}

func (o *memObserver) StageStart(string) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.mu.Lock()
	o.atStart = ms.TotalAlloc
	o.mu.Unlock()
}

func (o *memObserver) StageFinish(stage string, st analysis.Stats, err error) {
	if err != nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.mu.Lock()
	delta := ms.TotalAlloc - o.atStart
	o.mu.Unlock()
	nodes := 0
	if stage == analysis.StageMainPass {
		nodes = st.Nodes
	}
	o.m.observeStageAlloc(stage, delta, nodes)
}
