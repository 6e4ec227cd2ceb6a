package service

import (
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"introspect/internal/obs"
)

// WritePrometheus renders the service metrics in the Prometheus text
// exposition format — the same registry GET /metrics serves as JSON,
// mapped to stable metric names. cmd/ptad serves this when a scraper
// asks for it (Accept: text/plain / application/openmetrics-text, or
// ?format=prometheus).
//
// The metric names and label sets below are a compatibility surface
// (dashboards and alerts reference them); the exposition golden test
// pins them. Add new metrics freely, rename existing ones never.
func (s *Service) WritePrometheus(w io.Writer) error {
	return s.metrics.writePrometheus(w, s.cfg.Workers, s.cfg.Workers+s.cfg.QueueDepth, s.store.len(), collectProcStats(s.metrics))
}

// procStats are the process-level gauge values. The caller collects
// them once for either rendering, so snapshot and writePrometheus stay
// pure functions of their inputs and the golden tests can pin both
// documents byte-for-byte with fixed values.
type procStats struct {
	goVersion  string
	version    string
	uptime     time.Duration
	goroutines int
	heapInuse  uint64
}

func collectProcStats(m *Metrics) procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return procStats{
		goVersion:  runtime.Version(),
		version:    version,
		uptime:     time.Since(m.start),
		goroutines: runtime.NumGoroutine(),
		heapInuse:  ms.HeapInuse,
	}
}

func (m *Metrics) writePrometheus(w io.Writer, workers, capacity, diskEntries int, proc procStats) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.c
	p := obs.NewPromWriter(w)

	p.Counter("ptad_requests_total", "Analysis requests received.", float64(c.Requests))
	p.Counter("ptad_cache_hits_total", "Requests served from the result cache.", float64(c.Cache.Hits))
	p.Counter("ptad_cache_misses_total", "Requests that required a solve.", float64(c.Cache.Misses))
	p.Counter("ptad_cache_dedup_total", "Requests coalesced onto an identical in-flight solve.", float64(c.Cache.Dedup))
	p.Counter("ptad_solves_total", "Completed solver runs.", float64(c.Solves))
	p.Counter("ptad_pre_pass_shared_total", "Introspective runs that reused a cached insensitive pre-pass.", float64(c.PrePassShared))
	p.Counter("ptad_rejected_invalid_total", "Requests rejected as invalid (HTTP 400).", float64(c.Rejected.Invalid))
	p.Counter("ptad_rejected_overload_total", "Requests shed by admission control (HTTP 429).", float64(c.Rejected.Overload))
	p.Counter("ptad_timeouts_total", "Requests whose deadline expired (HTTP 504).", float64(c.Timeouts))
	p.Counter("ptad_internal_errors_total", "Requests failed by internal errors (HTTP 500).", float64(c.InternalErrs))
	p.Counter("ptad_disk_hits_total", "Cache hits served from the durable result store.", float64(c.Disk.Hits))
	p.Counter("ptad_disk_writes_total", "Results spilled to the durable result store.", float64(c.Disk.Writes))
	p.Counter("ptad_disk_corrupt_total", "Durable store files rejected by verify-on-read.", float64(c.Disk.Corrupt))
	p.Counter("ptad_batches_total", "Batch requests received.", float64(c.Batches))
	p.Counter("ptad_batch_jobs_total", "Jobs submitted through batch requests.", float64(c.BatchJobs))
	p.Counter("ptad_streams_total", "Streaming analyze responses served.", float64(c.Streams))
	p.Counter("ptad_peer_fallbacks_total", "Peer forwards that fell back to a local solve.", float64(c.Peers.Fallbacks))

	fwd := p.CounterFamily("ptad_peer_forwarded_total", "Requests forwarded to each peer.")
	for _, peer := range sortedKeys(c.Peers.Forwarded) {
		fwd.Series(obs.Labels{"peer": peer}, float64(c.Peers.Forwarded[peer]))
	}
	perr := p.CounterFamily("ptad_peer_errors_total", "Failed forward attempts per peer.")
	for _, peer := range sortedKeys(c.Peers.Errors) {
		perr.Series(obs.Labels{"peer": peer}, float64(c.Peers.Errors[peer]))
	}

	p.Gauge("ptad_in_flight", "Solves currently holding a worker slot.", float64(c.Queue.InFlight))
	p.Gauge("ptad_queued", "Admitted requests waiting for a worker slot.", float64(c.Queue.Depth))
	p.Gauge("ptad_workers", "Configured worker-pool size.", float64(workers))
	p.Gauge("ptad_capacity", "Admission capacity (workers + queue depth).", float64(capacity))
	p.Gauge("ptad_disk_entries", "Entries in the durable result store.", float64(diskEntries))

	dec := p.CounterFamily("ptad_intro_decisions_total", "Introspection refine/demote decisions, by metric clause and verdict.")
	for _, k := range sortedKeys(c.Decisions) {
		metric, verdict, _ := strings.Cut(k, "|")
		dec.Series(obs.Labels{"metric": metric, "verdict": verdict}, float64(c.Decisions[k]))
	}

	alloc := p.CounterFamily("ptad_stage_alloc_bytes_total", "Cumulative bytes allocated per pipeline stage (process-wide deltas).")
	for _, st := range sortedKeys(c.Mem.StageAllocBytes) {
		alloc.Series(obs.Labels{"stage": st}, float64(c.Mem.StageAllocBytes[st]))
	}
	lastAlloc := p.GaugeFamily("ptad_stage_alloc_last_bytes", "Most recent solve's allocation delta per pipeline stage.")
	for _, st := range sortedKeys(c.Mem.LastStageAllocBytes) {
		lastAlloc.Series(obs.Labels{"stage": st}, float64(c.Mem.LastStageAllocBytes[st]))
	}
	p.Gauge("ptad_bytes_per_constraint_node", "Latest main-pass allocation divided by its constraint-node count.", float64(c.Mem.BytesPerNode))

	info := p.GaugeFamily("ptad_build_info", "Build metadata; value is always 1.")
	info.Series(obs.Labels{"go_version": proc.goVersion, "version": proc.version}, 1)
	p.Gauge("ptad_uptime_seconds", "Seconds since the service started.", proc.uptime.Seconds())
	p.Gauge("ptad_goroutines", "Live goroutine count.", float64(proc.goroutines))
	p.Gauge("ptad_heap_inuse_bytes", "Bytes in in-use heap spans (runtime.MemStats.HeapInuse).", float64(proc.heapInuse))

	h := p.HistogramFamily("ptad_stage_latency_ms", "Pipeline stage wall time in milliseconds.")
	for _, stage := range sortedKeys(m.stageLatency) {
		hist := m.stageLatency[stage]
		h.Series(obs.Labels{"stage": stage}, histBoundsMS, hist.Counts, hist.Sum, hist.N)
	}
	return p.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
