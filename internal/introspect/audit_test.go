package introspect_test

import (
	"reflect"
	"testing"

	"introspect/internal/introspect"
)

// TestRecorderKeepsRefinement pins that recording the decision log
// leaves the refinement unchanged, for both paper heuristics at paper
// and tightened thresholds.
func TestRecorderKeepsRefinement(t *testing.T) {
	prog, _, _, _ := buildMetricsProgram(t)
	res := analyze(t, prog, "insens")
	m := introspect.Compute(res)

	heuristics := []introspect.Heuristic{
		introspect.DefaultA(),
		introspect.DefaultB(),
		introspect.HeuristicA{K: 1, L: 1, M: 1},
		introspect.HeuristicB{P: 1, Q: 1},
	}
	for _, h := range heuristics {
		want := h.Select(prog, m, nil)
		got := h.Select(prog, m, func(introspect.Decision) {})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: refinement with a recorder differs from without", h.Name())
		}
	}
}

// TestSelectWithDecisions checks the decision log: observed elements
// get records with the right metric names, thresholds and verdicts;
// every demote in the refinement has a matching record; and an
// unaudited selection carries no log.
func TestSelectWithDecisions(t *testing.T) {
	prog, heaps, _, _ := buildMetricsProgram(t)
	res := analyze(t, prog, "insens")
	m := introspect.Compute(res)

	// K=1 demotes heaps with pointed-by-vars > 1; h1 is pointed to by
	// o1, b, and util's formals, so it must be demoted.
	h := introspect.HeuristicA{K: 1, L: 100, M: 200}
	sel := introspect.SelectWith(res, m, h, true)
	if len(sel.Decisions) == 0 {
		t.Fatal("audited selection has no decisions")
	}

	var demoted []string
	for _, d := range sel.Decisions {
		switch d.Verdict {
		case introspect.VerdictRefine, introspect.VerdictDemote:
		default:
			t.Errorf("decision %+v: bad verdict", d)
		}
		if d.Verdict == introspect.VerdictDemote && d.Value <= d.Threshold {
			t.Errorf("decision %+v: demote without exceeding threshold", d)
		}
		if d.Verdict == introspect.VerdictRefine && d.Value > d.Threshold {
			t.Errorf("decision %+v: refine above threshold", d)
		}
		if d.Kind == "heap" && d.Verdict == introspect.VerdictDemote {
			if d.Metric != "pointed-by-vars" || d.Threshold != 1 {
				t.Errorf("heap demote %+v: wrong metric/threshold", d)
			}
			demoted = append(demoted, d.Site)
		}
	}
	wantSite := prog.HeapName(heaps["h1"])
	found := false
	for _, s := range demoted {
		if s == wantSite {
			found = true
		}
	}
	if !found {
		t.Errorf("demoted heaps %v do not include %s", demoted, wantSite)
	}
	for _, d := range sel.Decisions {
		if d.Kind != "heap" || d.Verdict != introspect.VerdictDemote {
			continue
		}
		for _, id := range heaps {
			if prog.HeapName(id) == d.Site && !sel.Refinement.ExcludesHeap(id) {
				t.Errorf("demote record %+v not reflected in refinement", d)
			}
		}
	}

	// The audit must not change the Figure-4 statistics.
	silent := introspect.SelectWith(res, m, h, false)
	if silent.Decisions != nil {
		t.Error("SelectWith(audit=false) populated Decisions")
	}
	if silent.TotalHeaps != sel.TotalHeaps || silent.ExcludedHeaps != sel.ExcludedHeaps ||
		silent.TotalInvos != sel.TotalInvos || silent.ExcludedInvos != sel.ExcludedInvos {
		t.Errorf("audited stats %+v differ from silent %+v", sel, silent)
	}

	// Product clauses label the metric pair.
	selB := introspect.SelectWith(res, m, introspect.HeuristicB{P: 10000, Q: 1}, true)
	foundProduct := false
	for _, d := range selB.Decisions {
		if d.Metric == "total-field-points-to*pointed-by-vars" {
			foundProduct = true
		}
	}
	if !foundProduct {
		t.Error("HeuristicB audit has no product-metric decision")
	}
}
