package analysis_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/pta"
	"introspect/internal/randprog"
)

// TestSinglePassEquivalence pins that a degenerate (single-pass)
// pipeline is a thin wrapper: it produces exactly the solver's result,
// with the report stage's precision attached.
func TestSinglePassEquivalence(t *testing.T) {
	prog := randprog.Generate(3, randprog.Default())
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH"}, Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pta.Analyze(context.Background(), prog, "2objH", pta.Options{Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Main.Work != direct.Work || res.Main.Derivations != direct.Derivations {
		t.Errorf("pipeline result diverges from direct solve: work %d vs %d, derivations %d vs %d",
			res.Main.Work, direct.Work, res.Main.Derivations, direct.Derivations)
	}
	if res.First != nil || res.Selection != nil || res.Metrics != nil {
		t.Error("single-pass pipeline should not populate introspective artifacts")
	}
	if res.Precision == nil {
		t.Fatal("report stage did not run")
	}
	if res.Precision.ReachableMethods != direct.NumReachableMethods() {
		t.Errorf("precision reachable %d, want %d",
			res.Precision.ReachableMethods, direct.NumReachableMethods())
	}
	if res.Analysis != "2objH" {
		t.Errorf("analysis name %q", res.Analysis)
	}
}

// TestUnknownVariant checks the registry's error path: a spec with an
// unregistered suffix fails with a message listing what IS registered.
func TestUnknownVariant(t *testing.T) {
	prog := randprog.Generate(1, randprog.Default())
	_, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH-IntroZ"},
	})
	if err == nil {
		t.Fatal("expected error for unknown variant")
	}
	for _, want := range []string{"IntroZ", "IntroA", "IntroB", "syntactic"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
}

// TestFrontendStage runs a pipeline from source text: the frontend
// stage compiles the program and later stages analyze it.
func TestFrontendStage(t *testing.T) {
	src := `
class A {
  Object f;
  static void main() {
    A a = new A();
    Object o = new Object();
    a.f = o;
  }
}`
	res, err := analysis.Run(context.Background(), analysis.Request{
		Source: &analysis.Source{Text: src, Name: "frontend-test"},
		Job:    analysis.Job{Spec: "insens"},
		Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Prog == nil || res.Prog.Name != "frontend-test" {
		t.Fatalf("frontend did not populate the program: %+v", res.Prog)
	}
	if res.Stages[0].Stage != analysis.StageFrontend {
		t.Errorf("first stage %q, want frontend", res.Stages[0].Stage)
	}
	if res.Main == nil || !res.Main.Complete {
		t.Error("main pass did not complete")
	}

	// Exactly one of Prog and Source is required.
	if _, err := analysis.Run(context.Background(), analysis.Request{Job: analysis.Job{Spec: "insens"}}); err == nil {
		t.Error("expected error with neither Prog nor Source")
	}
}

// TestPrePassBudgetPropagates is the pipeline half of the paper's
// missing-bars behavior: when the context-insensitive pre-pass itself
// exhausts the budget, the pipeline aborts (its metrics would be
// garbage) but the typed error carries the stage and the Result keeps
// the partial First pass.
func TestPrePassBudgetPropagates(t *testing.T) {
	prog := randprog.Generate(4, randprog.Default())
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH-IntroA"},
		Limits: analysis.Limits{Budget: 3},
	})
	var be *analysis.BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetExceededError, got %v", err)
	}
	if be.Stage != analysis.StagePrePass {
		t.Errorf("stage %q, want pre-pass", be.Stage)
	}
	if !errors.Is(err, pta.ErrBudgetExceeded) {
		t.Error("BudgetExceededError should unwrap to pta.ErrBudgetExceeded")
	}
	if res == nil || res.First == nil {
		t.Fatal("partial pre-pass result should be kept on the Result")
	}
	if res.First.Complete {
		t.Error("budget-exhausted pre-pass cannot be complete")
	}
	if res.Main != nil {
		t.Error("main pass must not run after a failed pre-pass")
	}
}

// TestMainPassBudgetStillReports: a budget-exhausted MAIN pass is a
// reportable outcome — the report stage still runs and the error is
// returned alongside a fully-populated Result.
func TestMainPassBudgetStillReports(t *testing.T) {
	prog := randprog.Generate(4, randprog.Default())
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH"}, Limits: analysis.Limits{Budget: 3},
	})
	var be *analysis.BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetExceededError, got %v", err)
	}
	if be.Stage != analysis.StageMainPass {
		t.Errorf("stage %q, want main-pass", be.Stage)
	}
	if res.Main == nil || res.Main.Complete {
		t.Fatal("expected an incomplete main-pass result")
	}
	if res.Precision == nil {
		t.Fatal("report stage should still run after a main-pass budget error")
	}
	if !res.Precision.TimedOut {
		t.Error("precision row should be flagged timed-out")
	}
	last := res.Stages[len(res.Stages)-1]
	if last.Stage != analysis.StageReport {
		t.Errorf("last stage %q, want report", last.Stage)
	}
}

// TestObserverCallbacks checks the Observer contract: StageStart /
// StageFinish bracket every stage in execution order and the finish
// Stats match what lands on the Result.
func TestObserverCallbacks(t *testing.T) {
	prog := randprog.Generate(5, randprog.Default())
	var starts, finishes []string
	var works []int64
	obs := analysis.ObserverFuncs{
		OnStageStart:    func(stage string) { starts = append(starts, stage) },
		OnStageFinish:   func(stage string, st analysis.Stats, err error) { finishes = append(finishes, stage) },
		OnSolveSnapshot: func(stage string, snap pta.Snapshot) { works = append(works, snap.Work) },
	}
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH-IntroB"},
		Limits: analysis.Limits{Budget: -1}, Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		analysis.StagePrePass, analysis.StageMetrics, analysis.StageSelection,
		analysis.StageMainPass, analysis.StageReport,
	}
	if len(starts) != len(want) || len(finishes) != len(want) {
		t.Fatalf("starts %v finishes %v, want %v", starts, finishes, want)
	}
	for i, w := range want {
		if starts[i] != w || finishes[i] != w {
			t.Errorf("stage %d: start %q finish %q, want %q", i, starts[i], finishes[i], w)
		}
	}
	if len(res.Stages) != len(want) {
		t.Fatalf("Result.Stages has %d entries, want %d", len(res.Stages), len(want))
	}
	for i, st := range res.Stages {
		if st.Stage != want[i] {
			t.Errorf("Result.Stages[%d] = %q, want %q", i, st.Stage, want[i])
		}
	}
	// Tiny programs finish under one snapshot interval; no callbacks is
	// fine, but any that fired must carry increasing work counts.
	for i := 1; i < len(works); i++ {
		if works[i] < works[i-1] {
			t.Errorf("snapshot work counts not monotone: %v", works)
		}
	}
}

// TestStatsJSON pins the JSON encoding of per-stage Stats — the line
// format of cmd/pta -json.
func TestStatsJSON(t *testing.T) {
	prog := randprog.Generate(6, randprog.Default())
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "insens"}, Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Stages)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	mainIdx := -1
	for i, st := range res.Stages {
		if st.Stage == analysis.StageMainPass {
			mainIdx = i
		}
	}
	if mainIdx < 0 {
		t.Fatal("no main-pass stage recorded")
	}
	m := decoded[mainIdx]
	for _, key := range []string{"stage", "analysis", "wall_ns", "work", "derivations", "nodes", "edges"} {
		if _, ok := m[key]; !ok {
			t.Errorf("main-pass stats JSON missing key %q: %v", key, m)
		}
	}
	if m["stage"] != "main-pass" || m["analysis"] != "insens" {
		t.Errorf("stage/analysis keys wrong: %v", m)
	}
}

// TestPipelineStageLists pins which stages each pipeline shape runs.
func TestPipelineStageLists(t *testing.T) {
	prog := randprog.Generate(1, randprog.Default())
	cases := []struct {
		req  analysis.Request
		name string
		want []string
	}{
		{analysis.Request{Prog: prog, Job: analysis.Job{Spec: "insens"}}, "insens",
			[]string{analysis.StageMainPass, analysis.StageReport}},
		{analysis.Request{Prog: prog, Job: analysis.Job{Spec: "2objH-IntroA"}}, "2objH-IntroA",
			[]string{analysis.StagePrePass, analysis.StageMetrics, analysis.StageSelection,
				analysis.StageMainPass, analysis.StageReport}},
		{analysis.Request{Prog: prog, Job: analysis.Job{Spec: "2objH-syntactic"}}, "2objH-syntactic",
			[]string{analysis.StageSelection, analysis.StageMainPass, analysis.StageReport}},
		{analysis.Request{Source: &analysis.Source{Bench: "antlr"}, Job: analysis.Job{Spec: "1call"}}, "1call",
			[]string{analysis.StageFrontend, analysis.StageMainPass, analysis.StageReport}},
	}
	for _, c := range cases {
		p, err := analysis.NewPipeline(&c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.req.Job.Spec, err)
		}
		if p.Name != c.name {
			t.Errorf("%s: pipeline name %q", c.req.Job.Spec, p.Name)
		}
		got := p.Stages()
		if len(got) != len(c.want) {
			t.Fatalf("%s: stages %v, want %v", c.req.Job.Spec, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: stages %v, want %v", c.req.Job.Spec, got, c.want)
			}
		}
	}
}

// TestSpecNamingMatchesLegacy pins that pipeline names are exactly the
// legacy analysis-name strings, so tables and goldens are unchanged.
func TestSpecNamingMatchesLegacy(t *testing.T) {
	prog := randprog.Generate(1, randprog.Default())
	for spec, want := range map[string]string{
		"insens": "insens", "2objH": "2objH", "2typeH": "2typeH",
		"2objH-IntroA": "2objH-IntroA", "2callH-IntroB": "2callH-IntroB",
		"2objH-syntactic": "2objH-syntactic",
	} {
		p, err := analysis.NewPipeline(&analysis.Request{Prog: prog, Job: analysis.Job{Spec: spec}})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if p.Name != want {
			t.Errorf("spec %q resolves to pipeline %q, want %q", spec, p.Name, want)
		}
	}
}
