package analysis_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/bits"
	"introspect/internal/introspect"
	"introspect/internal/pta"
	"introspect/internal/randprog"
	"introspect/internal/suite"
)

var updateSelection = flag.Bool("update-selection", false, "rewrite testdata/selection_digest.golden instead of comparing")

// selectionDigest hashes everything an introspective selection
// reports: the three refinement id sets, the Figure-4 counts and the
// full decision log in order.
func selectionDigest(t *testing.T, sel *introspect.Selection) string {
	t.Helper()
	h := sha256.New()
	for _, set := range []struct {
		name string
		s    *bits.Set
	}{{"heaps", &sel.Refinement.Heaps}, {"invos", &sel.Refinement.Invos}, {"methods", &sel.Refinement.Methods}} {
		fmt.Fprintf(h, "%s:", set.name)
		set.s.ForEach(func(id int32) { fmt.Fprintf(h, " %d", id) })
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "fig4: %d %d %d %d\n", sel.TotalInvos, sel.ExcludedInvos, sel.TotalHeaps, sel.ExcludedHeaps)
	for _, d := range sel.Decisions {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(b, '\n'))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// selectOnly runs req's pipeline through the selection stage and
// cancels it before the main pass: the selection is all this test
// pins, and the deep pass is most of a run's cost.
func selectOnly(t *testing.T, req analysis.Request) *analysis.Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req.Audit = true
	req.Limits = analysis.Limits{Budget: -1}
	req.Observer = analysis.ObserverFuncs{OnStageFinish: func(stage string, _ analysis.Stats, _ error) {
		if stage == analysis.StageSelection {
			cancel()
		}
	}}
	res, err := analysis.Run(ctx, req)
	if !errors.Is(err, context.Canceled) || res == nil || res.Selection == nil {
		t.Fatalf("%s: want a selection and a cancelled main pass, got err %v", req.Job.Spec, err)
	}
	return res
}

// TestSelectionDigestGolden pins the introspective selection — which
// elements each heuristic demotes, the Figure-4 counts and the audit
// log — for every suite benchmark and a few random programs, under
// Heuristics A and B at the paper's constants and at tightened ones.
// A diff here means selection changed, not just how it is reached.
// Refresh with
// `go test ./internal/analysis -run SelectionDigest -args -update-selection`.
func TestSelectionDigestGolden(t *testing.T) {
	tight := &analysis.Thresholds{K: 10, L: 10, M: 20, P: 500, Q: 500}
	jobs := []analysis.Job{
		{Spec: "2objH-IntroA"},
		{Spec: "2objH-IntroB"},
		{Spec: "2objH-IntroA", Thresholds: tight},
		{Spec: "2objH-IntroB", Thresholds: tight},
	}
	type subject struct {
		label string
		req   analysis.Request
	}
	var subjects []subject
	for _, b := range suite.Names() {
		subjects = append(subjects, subject{b, analysis.Request{Source: &analysis.Source{Bench: b}}})
	}
	for seed := int64(1); seed <= 4; seed++ {
		subjects = append(subjects, subject{fmt.Sprintf("seed%d", seed),
			analysis.Request{Prog: randprog.Generate(seed, randprog.Default())}})
	}

	var lines []string
	for _, s := range subjects {
		var first *pta.Result
		for i, job := range jobs {
			req := s.req
			req.Job = job
			if first != nil {
				// One insensitive solve per subject: the pre-pass is a
				// pure function of the program.
				req.Prog, req.Source, req.First = first.Prog, nil, first
			}
			res := selectOnly(t, req)
			first = res.First
			sel := res.Selection
			label := s.label + "/" + job.Spec
			if job.Thresholds != nil {
				label += "-tight"
			}
			if i == 0 && len(sel.Decisions) == 0 {
				t.Errorf("%s: audited selection has no decisions", label)
			}
			lines = append(lines, fmt.Sprintf("%s excl=%d/%d/%d fig4=%d/%d/%d/%d decisions=%d sha256=%s",
				label, sel.Refinement.Heaps.Len(), sel.Refinement.Invos.Len(), sel.Refinement.Methods.Len(),
				sel.TotalInvos, sel.ExcludedInvos, sel.TotalHeaps, sel.ExcludedHeaps,
				len(sel.Decisions), selectionDigest(t, sel)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "selection_digest.golden")
	if *updateSelection {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wl := strings.Split(string(want), "\n")
		for i, l := range strings.Split(got, "\n") {
			if i >= len(wl) || l != wl[i] {
				t.Errorf("selection digest line %d:\n got %s\nwant %s", i+1, l, at(wl, i))
			}
		}
	}
}
