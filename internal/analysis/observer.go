package analysis

import (
	"introspect/internal/introspect"
	"introspect/internal/pta"
)

// Observer receives pipeline lifecycle callbacks: stage boundaries,
// sampled solver snapshots, and the selection stage's decision audit.
// It is the hook point for tracing, live heartbeats, and metrics
// exporters; the default is the no-op NopObserver. Implementations
// that need only some callbacks embed NopObserver for the rest.
//
// # Concurrency
//
// Within one pipeline run, callbacks are invoked synchronously from
// that run's goroutine (SolveSnapshot from inside the solver's
// worklist loop), so implementations must be fast and must not block
// — a slow Observer slows the solve it is observing.
//
// Across runs there is no such serialization: RunAll executes many
// pipelines on a bounded worker pool, and a single Observer instance
// attached to several Requests receives callbacks from all of their
// goroutines CONCURRENTLY, with no ordering between runs.
// Implementations shared across a fleet must therefore be safe for
// concurrent use. The bundled observers honor this: NopObserver is
// stateless, TrackObserver guards its state with a mutex, Observers
// fans out to components that must each be safe, and ObserverFuncs is
// exactly as safe as the functions installed in it.
type Observer interface {
	// StageStart fires immediately before a stage runs.
	StageStart(stage string)
	// StageFinish fires after a stage completes, with its Stats and
	// its error (nil on success).
	StageFinish(stage string, st Stats, err error)
	// SolveSnapshot fires periodically during a solver pass (every
	// Request.SnapshotEvery work units, default
	// pta.DefaultSnapshotEvery) with a point-in-time picture of the
	// solve: running work count, worklist depth, interned populations,
	// points-to volume. It is the pipeline's one sampled callback; an
	// observer that only wants progress reads snap.Work.
	SolveSnapshot(stage string, snap pta.Snapshot)
	// Decisions fires at most once per run, from the selection stage of
	// an audited pipeline (Request.Audit), with the heuristic's
	// refine/demote log. The slice is shared with
	// Result.Selection.Decisions; observers must not mutate it.
	Decisions(stage string, ds []introspect.Decision)
}

// NopObserver is the default Observer: it ignores every callback.
type NopObserver struct{}

func (NopObserver) StageStart(string)                       {}
func (NopObserver) StageFinish(string, Stats, error)        {}
func (NopObserver) SolveSnapshot(string, pta.Snapshot)      {}
func (NopObserver) Decisions(string, []introspect.Decision) {}

// ObserverFuncs adapts free functions to the Observer interface; nil
// fields are no-ops. When shared across concurrent runs (RunAll), the
// installed functions must themselves be safe for concurrent use.
type ObserverFuncs struct {
	OnStageStart    func(stage string)
	OnStageFinish   func(stage string, st Stats, err error)
	OnSolveSnapshot func(stage string, snap pta.Snapshot)
	OnDecisions     func(stage string, ds []introspect.Decision)
}

func (o ObserverFuncs) StageStart(stage string) {
	if o.OnStageStart != nil {
		o.OnStageStart(stage)
	}
}

func (o ObserverFuncs) StageFinish(stage string, st Stats, err error) {
	if o.OnStageFinish != nil {
		o.OnStageFinish(stage, st, err)
	}
}

func (o ObserverFuncs) SolveSnapshot(stage string, snap pta.Snapshot) {
	if o.OnSolveSnapshot != nil {
		o.OnSolveSnapshot(stage, snap)
	}
}

func (o ObserverFuncs) Decisions(stage string, ds []introspect.Decision) {
	if o.OnDecisions != nil {
		o.OnDecisions(stage, ds)
	}
}

// Observers composes observers: every callback fans out to each
// non-nil component in order. Composing zero observers yields the
// no-op observer; composing one returns it unwrapped.
func Observers(list ...Observer) Observer {
	flat := make([]Observer, 0, len(list))
	for _, o := range list {
		if o != nil {
			flat = append(flat, o)
		}
	}
	switch len(flat) {
	case 0:
		return NopObserver{}
	case 1:
		return flat[0]
	}
	return multiObserver(flat)
}

type multiObserver []Observer

func (m multiObserver) StageStart(stage string) {
	for _, o := range m {
		o.StageStart(stage)
	}
}

func (m multiObserver) StageFinish(stage string, st Stats, err error) {
	for _, o := range m {
		o.StageFinish(stage, st, err)
	}
}

func (m multiObserver) SolveSnapshot(stage string, snap pta.Snapshot) {
	for _, o := range m {
		o.SolveSnapshot(stage, snap)
	}
}

func (m multiObserver) Decisions(stage string, ds []introspect.Decision) {
	for _, o := range m {
		o.Decisions(stage, ds)
	}
}
