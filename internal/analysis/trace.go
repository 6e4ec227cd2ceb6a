package analysis

import (
	"sync"

	"introspect/internal/introspect"
	"introspect/internal/obs"
	"introspect/internal/pta"
)

// TrackObserver returns an Observer that records the pipeline onto one
// obs trace track: a span per stage (annotated with the stage's solver
// counters) and an instant "solver" event per sampled snapshot. A nil
// track (from a nil tracer) yields an Observer whose callbacks are
// no-ops, so call sites thread a possibly-disabled tracer without
// branching.
//
// Use one TrackObserver (and one track) per pipeline run: tracks are
// lanes in the trace viewer, and interleaving two concurrent runs on
// one lane produces a misleading picture. The observer is nonetheless
// safe for concurrent use — spans are keyed by stage name under a
// mutex — so accidental sharing degrades the rendering, not memory
// safety.
//
// Callers that want the run itself visible as an enclosing span open
// one on the same track around Run:
//
//	track := tracer.NewTrack("jython 2objH-IntroA")
//	span := track.Begin("run", nil)
//	res, err := analysis.Run(ctx, req) // req.Observer = TrackObserver(track)
//	span.End()
func TrackObserver(track *obs.Track) Observer {
	return &trackObserver{track: track}
}

type trackObserver struct {
	track *obs.Track

	mu   sync.Mutex
	open map[string]*obs.Span // stage name → its open span
}

func (t *trackObserver) StageStart(stage string) {
	sp := t.track.Begin(stage, nil)
	if sp == nil {
		return
	}
	t.mu.Lock()
	if t.open == nil {
		t.open = make(map[string]*obs.Span, 4)
	}
	t.open[stage] = sp
	t.mu.Unlock()
}

func (t *trackObserver) StageFinish(stage string, st Stats, err error) {
	t.mu.Lock()
	sp := t.open[stage]
	delete(t.open, stage)
	t.mu.Unlock()
	if sp == nil {
		return
	}
	if st.Analysis != "" {
		sp.Set("analysis", st.Analysis)
	}
	if st.Work != 0 {
		sp.Set("work", st.Work)
		sp.Set("derivations", st.Derivations)
		sp.Set("nodes", st.Nodes)
		sp.Set("contexts", st.Contexts)
	}
	if st.BudgetExceeded {
		sp.Set("budget_exceeded", true)
	}
	if err != nil {
		sp.Set("error", err.Error())
	}
	sp.End()
}

// Decisions summarizes the audit log as one instant event — the full
// log belongs on the response document, not in the span ring.
func (t *trackObserver) Decisions(stage string, ds []introspect.Decision) {
	demoted := 0
	for _, d := range ds {
		if d.Verdict == introspect.VerdictDemote {
			demoted++
		}
	}
	t.track.Instant("decisions", map[string]any{
		"stage":   stage,
		"total":   len(ds),
		"demoted": demoted,
	})
}

func (t *trackObserver) SolveSnapshot(stage string, snap pta.Snapshot) {
	t.track.Instant("solver", map[string]any{
		"stage":           stage,
		"work":            snap.Work,
		"derivations":     snap.Derivations,
		"worklist":        snap.Worklist,
		"pending_methods": snap.PendingMethods,
		"nodes":           snap.Nodes,
		"edges":           snap.Edges,
		"heap_contexts":   snap.HeapContexts,
		"method_contexts": snap.MethodContexts,
		"pt_total":        snap.PTTotal,
		"delta_pending":   snap.DeltaPending,
	})
}
