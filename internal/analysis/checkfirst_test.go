package analysis_test

import (
	"context"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/pta"
	"introspect/internal/randprog"
	"introspect/internal/taint"
)

// TestCheckFirst pins the pre-pass reuse rule one clause per row: a
// stored insensitive result stands in for a job's pre-pass only when
// every clause holds, and each failing clause alone rejects it.
func TestCheckFirst(t *testing.T) {
	prog := randprog.Generate(7, randprog.Default())
	solve := func(opts pta.Options) *pta.Result {
		t.Helper()
		r, _ := pta.Analyze(context.Background(), prog, "insens", opts)
		if r == nil {
			t.Fatal("no insensitive result")
		}
		return r
	}
	serial := solve(pta.Options{Budget: -1})
	withProv := solve(pta.Options{Budget: -1, Provenance: true})
	parallel := solve(pta.Options{Budget: -1, Workers: 2})
	partial := solve(pta.Options{Budget: 1})
	if !serial.Complete || !withProv.Complete || !parallel.Complete || partial.Complete {
		t.Fatal("fixture results do not have the completeness the rows assume")
	}
	spec := &taint.Spec{Sources: []string{"C0.m0"}, Sinks: []string{"C1.m0"}}

	for _, tc := range []struct {
		name  string
		req   analysis.Request
		first *pta.Result
		want  string // substring of the rejection; "" = reusable
	}{
		{"reusable", analysis.Request{Job: analysis.Job{Spec: "2objH-IntroA"}}, serial, ""},
		{"unresolvable job", analysis.Request{Job: analysis.Job{Spec: "2objH-IntroZ"}}, serial, "unknown introspective variant"},
		{"no pre-pass stage", analysis.Request{Job: analysis.Job{Spec: "2objH-syntactic"}}, serial, "pre-pass stage"},
		{"taint job", analysis.Request{Job: analysis.Job{Spec: "2objH-IntroA", Taint: spec}}, serial, "Job.Taint"},
		{"incomplete result", analysis.Request{Job: analysis.Job{Spec: "2objH-IntroA"}}, partial, "incomplete"},
		{"provenance missing", analysis.Request{Job: analysis.Job{Spec: "2objH-IntroA"}, Provenance: true}, serial, "no provenance"},
		{"provenance present", analysis.Request{Job: analysis.Job{Spec: "2objH-IntroA"}, Provenance: true}, withProv, ""},
		{"serial into parallel", analysis.Request{Job: analysis.Job{Spec: "2objH-IntroA", Workers: 2}}, serial, "solved with 1 workers"},
		{"parallel into serial", analysis.Request{Job: analysis.Job{Spec: "2objH-IntroA", Workers: 1}}, parallel, "solved with 2 workers"},
		{"parallel into parallel", analysis.Request{Job: analysis.Job{Spec: "2objH-IntroB", Workers: 2}}, parallel, ""},
	} {
		err := tc.req.CheckFirst(tc.first)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: CheckFirst = %v, want reusable", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: CheckFirst = %v, want a rejection mentioning %q", tc.name, err, tc.want)
		}
	}
}
