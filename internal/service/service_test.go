package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/ir"
	"introspect/internal/randprog"
	"introspect/internal/service"
	"introspect/internal/suite"
	"introspect/internal/taint"
)

// wallRE scrubs wall-clock fields so pta/v1 documents byte-compare.
var wallRE = regexp.MustCompile(`"(wall_ns|elapsed_ms)":\d+`)

// canonical renders a response as deterministic bytes: JSON with wall
// times zeroed and the cache label dropped.
func canonical(t *testing.T, resp *analysis.RunJSON) string {
	t.Helper()
	cp := *resp
	cp.Cache = ""
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(wallRE.ReplaceAll(b, []byte(`"$1":0`)))
}

func irText(t *testing.T, prog *ir.Program) string {
	t.Helper()
	var sb strings.Builder
	if err := prog.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func holderMJ(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../examples/ptalint/holder.mj")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCacheHitEqualsColdSolve is the cache-correctness property test:
// over random programs and a spread of specs, the cached response is
// indistinguishable (modulo wall time and the cache label) from the
// cold solve that produced it — and the label sequence is miss, hit.
func TestCacheHitEqualsColdSolve(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 2})
	for seed := int64(1); seed <= 3; seed++ {
		src := irText(t, randprog.Generate(seed, randprog.Default()))
		for _, spec := range []string{"insens", "2objH", "2objH-IntroA"} {
			name := fmt.Sprintf("p%d-%s", seed, spec)
			req := service.Request{Lang: "ir", Name: name, Source: src, Job: analysis.Job{Spec: spec}, Budget: -1}

			cold, serr := svc.Analyze(context.Background(), req)
			if serr != nil {
				t.Fatalf("%s cold: %v", name, serr)
			}
			if cold.Cache != "miss" {
				t.Errorf("%s cold cache label = %q, want miss", name, cold.Cache)
			}
			hit, serr := svc.Analyze(context.Background(), req)
			if serr != nil {
				t.Fatalf("%s hit: %v", name, serr)
			}
			if hit.Cache != "hit" {
				t.Errorf("%s second request cache label = %q, want hit", name, hit.Cache)
			}
			if c, h := canonical(t, cold), canonical(t, hit); c != h {
				t.Errorf("%s cached response diverges from cold solve:\ncold %s\nhit  %s", name, c, h)
			}
			if cold.Schema != "pta/v1" || !cold.Complete {
				t.Errorf("%s cold = schema %q complete %v", name, cold.Schema, cold.Complete)
			}
		}
	}
}

// TestSingleFlightHammer fires many identical concurrent requests and
// checks exactly one solve happened; run under -race this also
// exercises the flight/cache locking.
func TestSingleFlightHammer(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 2, QueueDepth: 64})
	src := irText(t, randprog.Generate(4, randprog.Default()))
	req := service.Request{Lang: "ir", Source: src, Job: analysis.Job{Spec: "2objH-IntroA"}, Budget: -1}

	const n = 32
	var wg sync.WaitGroup
	responses := make([]*analysis.RunJSON, n)
	errs := make([]*service.Error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = svc.Analyze(context.Background(), req)
		}(i)
	}
	wg.Wait()

	want := ""
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		counts[responses[i].Cache]++
		c := canonical(t, responses[i])
		if want == "" {
			want = c
		} else if c != want {
			t.Fatalf("request %d returned a different document", i)
		}
	}
	m := svc.Metrics()
	if m.Solves != 1 {
		t.Errorf("solves = %d, want 1 (single-flight broken); cache labels: %v", m.Solves, counts)
	}
	if counts["miss"] != 1 {
		t.Errorf("miss count = %d, want 1; labels: %v", counts["miss"], counts)
	}
	if counts["hit"]+counts["dedup"] != n-1 {
		t.Errorf("hit+dedup = %d, want %d; labels: %v", counts["hit"]+counts["dedup"], n-1, counts)
	}
}

// TestPrePassSharing checks the cross-variant reuse the cache exists
// for: after an insens request, an introspective request for the same
// source injects the cached insensitive result instead of re-solving
// the pre-pass — and its response is identical to an unshared run's.
func TestPrePassSharing(t *testing.T) {
	src := holderMJ(t)
	insens := service.Request{Source: src, Job: analysis.Job{Spec: "insens"}, Budget: -1}
	intro := service.Request{Source: src, Job: analysis.Job{Spec: "2objH-IntroA"}, Budget: -1}

	// Cold reference: the introspective run with no sharing possible.
	ref, serr := service.MustNew(service.Config{Workers: 1}).Analyze(context.Background(), intro)
	if serr != nil {
		t.Fatal(serr)
	}

	svc := service.MustNew(service.Config{Workers: 1})
	if _, serr := svc.Analyze(context.Background(), insens); serr != nil {
		t.Fatal(serr)
	}
	if m := svc.Metrics(); m.PrePassShared != 0 {
		t.Fatalf("pre_pass_shared = %d before any introspective run", m.PrePassShared)
	}
	shared, serr := svc.Analyze(context.Background(), intro)
	if serr != nil {
		t.Fatal(serr)
	}
	if m := svc.Metrics(); m.PrePassShared != 1 {
		t.Errorf("pre_pass_shared = %d, want 1 (insens result not reused)", m.PrePassShared)
	}
	if r, s := canonical(t, ref), canonical(t, shared); r != s {
		t.Errorf("shared pre-pass changed the response:\nref    %s\nshared %s", r, s)
	}
}

// TestTaintPrePassNotShared: a taint job's pre-pass solves the
// taint-instrumented copy of the program, so it must not be offered to
// later requests for the plain program — injecting it would fail their
// pre-pass stage on the program check.
func TestTaintPrePassNotShared(t *testing.T) {
	src, err := os.ReadFile("../../examples/ptalint/taintdemo.mj")
	if err != nil {
		t.Fatal(err)
	}
	svc := service.MustNew(service.Config{Workers: 1})
	spec := &taint.Spec{Sources: []string{"Net.fetch"}, Sinks: []string{"Net.publish"}, Sanitizers: []string{"Net.scrub"}}
	for _, job := range []analysis.Job{
		{Spec: "insens", Taint: spec},
		{Spec: "2objH-IntroA", Taint: spec},
		{Spec: "2objH-IntroA"},
	} {
		if _, serr := svc.Analyze(context.Background(), service.Request{Source: string(src), Job: job, Budget: -1}); serr != nil {
			t.Fatalf("%s (taint %v): %v", job.Spec, job.Taint != nil, serr)
		}
	}
	if m := svc.Metrics(); m.PrePassShared != 0 {
		t.Errorf("pre_pass_shared = %d, want 0 (only taint runs preceded the plain one)", m.PrePassShared)
	}
}

// TestBudgetExhaustedIsCacheable pins that a deterministic
// out-of-budget outcome is cached like a success: the response has
// complete=false, and a repeat is a hit with identical counters.
func TestBudgetExhaustedIsCacheable(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	src := irText(t, randprog.Generate(6, randprog.Default()))
	req := service.Request{Lang: "ir", Source: src, Job: analysis.Job{Spec: "2objH"}, Budget: 50}

	cold, serr := svc.Analyze(context.Background(), req)
	if serr != nil {
		t.Fatalf("budget-exhausted run should yield a document, got %v", serr)
	}
	if cold.Complete {
		t.Fatal("budget 50 should not complete; raise the test's program size")
	}
	hit, serr := svc.Analyze(context.Background(), req)
	if serr != nil {
		t.Fatal(serr)
	}
	if hit.Cache != "hit" {
		t.Errorf("repeat of exhausted run = %q, want hit", hit.Cache)
	}
	if canonical(t, cold) != canonical(t, hit) {
		t.Error("cached exhausted outcome diverges from the cold one")
	}
}

// TestValidation covers the bad_request surface.
func TestValidation(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1, MaxSourceBytes: 64})
	for _, c := range []struct {
		name string
		req  service.Request
	}{
		{"empty source", service.Request{Job: analysis.Job{Spec: "insens"}}},
		{"bad lang", service.Request{Lang: "java", Source: "x", Job: analysis.Job{Spec: "insens"}}},
		{"empty spec", service.Request{Source: "class Main { void main() {} }"}},
		{"unknown variant", service.Request{Source: "x", Job: analysis.Job{Spec: "2objH-IntroZ"}}},
		{"thresholds on plain spec", service.Request{Source: "x", Job: analysis.Job{Spec: "2objH", Thresholds: &analysis.Thresholds{K: 1}}}},
		{"oversized source", service.Request{Source: strings.Repeat("x", 65), Job: analysis.Job{Spec: "insens"}}},
	} {
		_, serr := svc.Analyze(context.Background(), c.req)
		if serr == nil || serr.Code != service.CodeBadRequest {
			t.Errorf("%s: error = %v, want code bad_request", c.name, serr)
		}
	}
	// A source that does not parse is also the requester's fault.
	_, serr := svc.Analyze(context.Background(), service.Request{Source: "not mini java", Job: analysis.Job{Spec: "insens"}})
	if serr == nil || serr.Code != service.CodeBadRequest {
		t.Errorf("parse failure: error = %v, want code bad_request", serr)
	}
	if m := svc.Metrics(); m.Rejected.Invalid == 0 {
		t.Error("rejected.invalid metric never incremented")
	}
}

// TestAdmissionOverload checks the 429 path: with one worker and no
// queue, concurrent distinct requests beyond the first are rejected
// immediately with code overloaded and do no work. The requests use a
// large benchmark (jython, ~25k instructions) so the admitted one
// reliably still holds the worker while the rest arrive.
func TestAdmissionOverload(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1, QueueDepth: -1})
	src := irText(t, suite.MustLoad("jython"))

	const n = 8
	var wg sync.WaitGroup
	errs := make([]*service.Error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct names → distinct cache keys and flights: no
			// dedup, every request needs its own worker slot.
			_, errs[i] = svc.Analyze(context.Background(), service.Request{
				Lang: "ir", Name: fmt.Sprintf("jy%d", i), Source: src,
				Job: analysis.Job{Spec: "insens"}, Budget: -1,
			})
		}(i)
	}
	wg.Wait()

	var ok, overloaded int
	for i, serr := range errs {
		switch {
		case serr == nil:
			ok++
		case serr.Code == service.CodeOverloaded:
			overloaded++
		default:
			t.Errorf("request %d: unexpected error %v", i, serr)
		}
	}
	if ok == 0 {
		t.Error("no request was admitted")
	}
	if overloaded == 0 {
		t.Error("no request was rejected with code overloaded")
	}
	if m := svc.Metrics(); m.Rejected.Overload != uint64(overloaded) {
		t.Errorf("rejected.overload = %d, want %d", m.Rejected.Overload, overloaded)
	}
}

// TestDeadline checks the 504 path: a deadline far shorter than the
// solve (1ms against a ~25k-instruction benchmark) expires during the
// run and surfaces as code deadline, uncached.
func TestDeadline(t *testing.T) {
	svc := service.MustNew(service.Config{Workers: 1})
	src := irText(t, suite.MustLoad("jython"))
	req := service.Request{
		Lang: "ir", Source: src, Job: analysis.Job{Spec: "2objH"},
		Budget: -1, DeadlineMS: 1,
	}
	_, serr := svc.Analyze(context.Background(), req)
	if serr == nil || serr.Code != service.CodeDeadline {
		t.Fatalf("error = %v, want code deadline", serr)
	}
	if m := svc.Metrics(); m.Timeouts == 0 {
		t.Error("timeouts metric never incremented")
	}

	// Deadline expiry is wall-clock nondeterminism: it must NOT be
	// cached. A retry of the byte-identical job (the deadline is not
	// part of the cache key — only deterministic inputs are) with a
	// workable deadline therefore solves instead of hitting.
	req.DeadlineMS = 60_000
	resp, serr := svc.Analyze(context.Background(), req)
	if serr != nil {
		t.Fatalf("retry after deadline: %v", serr)
	}
	if resp.Cache != "miss" {
		t.Errorf("retry cache label = %q, want miss (timeouts must not populate the cache)", resp.Cache)
	}
}
