package introspect_test

import (
	"context"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/pta"
	"introspect/internal/randprog"
)

// referenceA is Heuristic A written out directly from the paper's
// definition — the reference the Combo clause loop is held to.
func referenceA(h introspect.HeuristicA, m *introspect.Metrics) *pta.Refinement {
	ref := &pta.Refinement{}
	for hp := range m.PointedByVars {
		if m.PointedByVars[hp] > h.K {
			ref.Heaps.Add(int32(hp))
		}
	}
	for i := range m.InFlow {
		if m.InFlow[i] > h.L {
			ref.Invos.Add(int32(i))
		}
	}
	for mi := range m.MaxVarFieldPointsTo {
		if m.MaxVarFieldPointsTo[mi] > h.M {
			ref.Methods.Add(int32(mi))
		}
	}
	return ref
}

// referenceB is Heuristic B written out directly from the paper's
// definition.
func referenceB(h introspect.HeuristicB, m *introspect.Metrics) *pta.Refinement {
	ref := &pta.Refinement{}
	for mi := range m.TotalVolume {
		if m.TotalVolume[mi] > h.P {
			ref.Methods.Add(int32(mi))
		}
	}
	for hp := range m.TotalFieldPointsTo {
		if m.TotalFieldPointsTo[hp]*m.PointedByVars[hp] > h.Q {
			ref.Heaps.Add(int32(hp))
		}
	}
	return ref
}

// TestComboEquivalentToNamedHeuristics pins that Heuristics A and B,
// which select through their Combo encodings, choose exactly the
// refinement sets of the paper's definitions written out directly,
// over random programs, with and without a decision recorder.
func TestComboEquivalentToNamedHeuristics(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		prog := randprog.Generate(seed, randprog.Default())
		res := analyze(t, prog, "insens")
		m := introspect.Compute(res)

		// Tiny thresholds so the sets are non-trivial on small programs.
		ha := introspect.HeuristicA{K: 2, L: 2, M: 2}
		hb := introspect.HeuristicB{P: 4, Q: 3}
		pairs := []struct {
			name string
			h    introspect.Heuristic
			want *pta.Refinement
		}{
			{"A", ha, referenceA(ha, m)},
			{"B", hb, referenceB(hb, m)},
		}
		for _, p := range pairs {
			for _, rec := range []func(introspect.Decision){nil, func(introspect.Decision) {}} {
				got := p.h.Select(prog, m, rec)
				if !p.want.Heaps.Equal(&got.Heaps) || !p.want.Invos.Equal(&got.Invos) ||
					!p.want.Methods.Equal(&got.Methods) {
					t.Errorf("seed %d heuristic %s (recorder %v): combo selects different sets",
						seed, p.name, rec != nil)
				}
			}
		}
	}
}

func TestComboAsDriverHeuristic(t *testing.T) {
	prog := randprog.Generate(5, randprog.Default())
	custom := introspect.Combo{Label: "IntroC", Clauses: []introspect.Clause{
		{Metric: introspect.PointedByObjsMetric, Threshold: 1},
	}}
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH"}, Selector: analysis.HeuristicSelector(custom),
		Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Main.Analysis != "2objH-IntroC" {
		t.Errorf("analysis name %q", res.Main.Analysis)
	}
	if res.Selection.Heuristic != "IntroC" {
		t.Errorf("selection heuristic %q", res.Selection.Heuristic)
	}
}

// TestSyntacticPipeline checks the traditional-heuristic baseline end
// to end: the pipeline skips the pre-pass and metrics stages and names
// the analysis <deep>-syntactic.
func TestSyntacticPipeline(t *testing.T) {
	prog := randprog.Generate(1, randprog.Default())
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog,
		Job: analysis.Job{
			Spec:      "2objH",
			Syntactic: &introspect.SyntacticOptions{ExcludeTypeSubstrings: []string{"C1"}},
		},
		Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Main.Analysis != "2objH-syntactic" {
		t.Errorf("analysis name %q", res.Main.Analysis)
	}
	if res.First != nil {
		t.Error("syntactic pipeline should not run a pre-pass")
	}
	for _, st := range res.Stages {
		if st.Stage == analysis.StagePrePass || st.Stage == analysis.StageMetrics {
			t.Errorf("syntactic pipeline ran stage %s", st.Stage)
		}
	}
}
