package service

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"introspect/internal/introspect"
)

// histBoundsMS are the latency histogram's upper bounds in
// milliseconds, exponential like Prometheus defaults; observations
// above the last bound land in the implicit +Inf bucket.
var histBoundsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// histogram is a fixed-bucket latency histogram. Cheap enough to
// update under the metrics mutex.
type histogram struct {
	Counts []uint64 // len(histBoundsMS)+1, last is +Inf
	Sum    float64  // milliseconds
	N      uint64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := sort.SearchFloat64s(histBoundsMS, ms)
	if h.Counts == nil {
		h.Counts = make([]uint64, len(histBoundsMS)+1)
	}
	h.Counts[i]++
	h.Sum += ms
	h.N++
}

// Metrics is the service's observability surface: monotonic counters,
// point-in-time gauges, and per-stage latency histograms. The counters
// and gauges live in c, in the very shape GET /metrics serves as JSON
// (expvar-style — no external metrics dependency); snapshot copies it
// out and writePrometheus renders it as text exposition, so each one
// is declared once, as its MetricsSnapshot field.
type Metrics struct {
	mu sync.Mutex

	// c holds every counter and gauge. The fields owned elsewhere —
	// queue workers and capacity, disk entries, the latency histograms
	// and the process stats — stay zero here and are filled in by
	// snapshot.
	c MetricsSnapshot

	stageLatency map[string]*histogram // stage name → wall-time histogram

	start time.Time // process metrics epoch, for the uptime gauge
}

func newMetrics() *Metrics {
	m := &Metrics{stageLatency: make(map[string]*histogram), start: time.Now()}
	m.c.Peers.Forwarded = make(map[string]uint64)
	m.c.Peers.Errors = make(map[string]uint64)
	m.c.Decisions = make(map[string]uint64)
	m.c.Mem.StageAllocBytes = make(map[string]uint64)
	m.c.Mem.LastStageAllocBytes = make(map[string]uint64)
	return m
}

// observeDecisions folds one solve's decision audit into the
// per-metric, per-verdict counters behind ptad_intro_decisions_total.
func (m *Metrics) observeDecisions(ds []introspect.Decision) {
	if len(ds) == 0 {
		return
	}
	m.mu.Lock()
	for _, d := range ds {
		m.c.Decisions[d.Metric+"|"+d.Verdict]++
	}
	m.mu.Unlock()
}

// observeStageAlloc records one stage's allocation delta; nodes, when
// positive (solver stages), refreshes the bytes-per-constraint-node
// gauge.
func (m *Metrics) observeStageAlloc(stage string, bytes uint64, nodes int) {
	m.mu.Lock()
	m.c.Mem.StageAllocBytes[stage] += bytes
	m.c.Mem.LastStageAllocBytes[stage] = bytes
	if nodes > 0 {
		m.c.Mem.BytesPerNode = bytes / uint64(nodes)
	}
	m.mu.Unlock()
}

// addPeer bumps one per-peer counter map under the lock.
func (m *Metrics) addPeer(counts map[string]uint64, peer string) {
	m.mu.Lock()
	counts[peer]++
	m.mu.Unlock()
}

func (m *Metrics) observeStage(stage string, wall time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.stageLatency[stage]
	if h == nil {
		h = &histogram{}
		m.stageLatency[stage] = h
	}
	h.observe(wall)
}

// add is the one-line counter bump used throughout the service.
func (m *Metrics) add(c *uint64) {
	m.mu.Lock()
	*c++
	m.mu.Unlock()
}

// histJSON is a histogram's wire form: cumulative "le" buckets plus
// count and sum, mirroring the Prometheus text shapes in JSON.
type histJSON struct {
	Count   uint64            `json:"count"`
	SumMS   float64           `json:"sum_ms"`
	Buckets map[string]uint64 `json:"buckets"` // "le_<bound_ms>" and "le_inf", cumulative
}

// MetricsSnapshot is the GET /metrics document.
type MetricsSnapshot struct {
	Requests uint64 `json:"requests"`
	Cache    struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Dedup  uint64 `json:"dedup"`
	} `json:"cache"`
	Disk struct {
		Hits    uint64 `json:"hits"`
		Writes  uint64 `json:"writes"`
		Corrupt uint64 `json:"corrupt"`
		Entries int    `json:"entries"`
	} `json:"disk"`
	Solves        uint64 `json:"solves"`
	PrePassShared uint64 `json:"pre_pass_shared"`
	Batches       uint64 `json:"batches"`
	BatchJobs     uint64 `json:"batch_jobs"`
	Streams       uint64 `json:"streams"`
	Peers         struct {
		Forwarded map[string]uint64 `json:"forwarded,omitempty"`
		Errors    map[string]uint64 `json:"errors,omitempty"`
		Fallbacks uint64            `json:"fallbacks"`
	} `json:"peers"`
	Rejected struct {
		Invalid  uint64 `json:"invalid"`
		Overload uint64 `json:"overload"`
	} `json:"rejected"`
	Timeouts     uint64 `json:"timeouts"`
	InternalErrs uint64 `json:"internal_errors"`
	Queue        struct {
		InFlight int `json:"in_flight"`
		Depth    int `json:"depth"`
		Workers  int `json:"workers"`
		Capacity int `json:"capacity"` // workers + queue depth limit
	} `json:"queue"`
	StageLatencyMS map[string]histJSON `json:"stage_latency_ms"`
	// Decisions is the aggregated introspection decision audit:
	// "metric|verdict" → count (metric labels never contain '|';
	// products spell "a*b").
	Decisions map[string]uint64 `json:"decisions,omitempty"`
	Mem       struct {
		// StageAllocBytes is cumulative bytes allocated per pipeline
		// stage, fed by memObserver; Last is the most recent solve's
		// delta per stage. Deltas are process-wide TotalAlloc
		// differences, so concurrent solves bleed into each other's
		// numbers — a capacity-planning signal, not an exact
		// attribution.
		StageAllocBytes     map[string]uint64 `json:"stage_alloc_bytes,omitempty"`
		LastStageAllocBytes map[string]uint64 `json:"last_stage_alloc_bytes,omitempty"`
		// BytesPerNode is the latest solve's main-pass allocation
		// divided by its constraint-node count.
		BytesPerNode uint64 `json:"bytes_per_node,omitempty"`
		// HeapInuseBytes is the live runtime.MemStats.HeapInuse.
		HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	} `json:"mem"`
	UptimeMS   int64 `json:"uptime_ms"`
	Goroutines int   `json:"goroutines"`
}

// snapshot copies the metrics under the lock. workers/capacity, the
// disk entry count and the process stats are owned elsewhere, passed
// in by the Service.
func (m *Metrics) snapshot(workers, capacity, diskEntries int, proc procStats) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.c
	s.Peers.Forwarded = copyCounts(s.Peers.Forwarded)
	s.Peers.Errors = copyCounts(s.Peers.Errors)
	s.Decisions = copyCounts(s.Decisions)
	s.Mem.StageAllocBytes = copyCounts(s.Mem.StageAllocBytes)
	s.Mem.LastStageAllocBytes = copyCounts(s.Mem.LastStageAllocBytes)
	s.Queue.Workers = workers
	s.Queue.Capacity = capacity
	s.Disk.Entries = diskEntries
	s.StageLatencyMS = make(map[string]histJSON, len(m.stageLatency))
	for stage, h := range m.stageLatency {
		hj := histJSON{Count: h.N, SumMS: h.Sum, Buckets: make(map[string]uint64, len(h.Counts))}
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			if i < len(histBoundsMS) {
				hj.Buckets[leLabel(histBoundsMS[i])] = cum
			} else {
				hj.Buckets["le_inf"] = cum
			}
		}
		s.StageLatencyMS[stage] = hj
	}
	s.Mem.HeapInuseBytes = proc.heapInuse
	s.UptimeMS = proc.uptime.Milliseconds()
	s.Goroutines = proc.goroutines
	return s
}

func leLabel(bound float64) string {
	b, _ := json.Marshal(bound)
	return "le_" + string(b)
}

// copyCounts deep-copies a counter map; an empty map copies to nil.
func copyCounts(m map[string]uint64) map[string]uint64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
