package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/pta"
)

// span is one timed interval recorded by the harness: an analysis, a
// pipeline stage, a checker run, or a request. Parent is 0 for a root;
// Run groups the spans of one analysis or one request.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Run    int           `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, at exit.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished interval and returns its span id.
func (r *recorder) add(name string, parent, run int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores every span as one JSON document.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap each other (concurrent
// work under one parent); overlapping parts count once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// heapAllocBytes reads the cumulative bytes allocated by the process.
// It does not stop the world, so it is cheap enough to call per stage.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runObserver watches one analysis run. Untraced it only notes when the
// first stage starts and the last one finishes; traced it also keeps a
// span, the allocation and the decision count of every stage.
type runObserver struct {
	traced bool

	start, end time.Time
	stages     []stageRec
	decisions  int

	curStart time.Time
	curAlloc uint64
}

// stageRec is one finished stage as the observer saw it.
type stageRec struct {
	name       string
	start, end time.Time
	alloc      uint64
}

func (o *runObserver) StageStart(stage string) {
	now := time.Now()
	if o.start.IsZero() {
		o.start = now
	}
	o.curStart = now
	if o.traced {
		o.curAlloc = heapAllocBytes()
	}
}

func (o *runObserver) StageFinish(stage string, _ analysis.Stats, _ error) {
	now := time.Now()
	o.end = now
	if o.traced {
		o.stages = append(o.stages, stageRec{name: stage, start: o.curStart, end: now,
			alloc: heapAllocBytes() - o.curAlloc})
	}
}

func (o *runObserver) Progress(string, int64)             {}
func (o *runObserver) SolveSnapshot(string, pta.Snapshot) {}
func (o *runObserver) Decisions(_ string, ds []introspect.Decision) {
	o.decisions += len(ds)
}
