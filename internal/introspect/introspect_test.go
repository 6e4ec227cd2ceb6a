package introspect_test

import (
	"context"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/introspect"
	"introspect/internal/ir"
	"introspect/internal/pta"
)

// analyze runs one analysis through the pipeline layer, unbudgeted.
func analyze(t *testing.T, prog *ir.Program, spec string) *pta.Result {
	t.Helper()
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: spec}, Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Main
}

// buildMetricsProgram constructs a program with hand-computable
// metrics:
//
//	class A { Object f; }
//	static void util(x, y) { t = x; }
//	main() {
//	  a = new A;        // hA
//	  o1 = new Object;  // h1
//	  o2 = new Object;  // h2
//	  a.f = o1; a.f = o2;
//	  b = o1;
//	  util(o1, o2);
//	}
func buildMetricsProgram(t *testing.T) (*ir.Program, map[string]ir.HeapID, ir.InvoID, map[string]ir.MethodID) {
	t.Helper()
	b := ir.NewBuilder("metrics")
	clsA := b.AddClass("A", ir.None, nil)
	f := b.AddField(clsA, "f")

	util := b.AddStaticMethod(clsA, "util", 2, true)
	tv := util.NewVar("t", ir.None)
	util.Move(tv, util.Formal(0))

	mainCls := b.AddClass("Main", ir.None, nil)
	main := b.AddStaticMethod(mainCls, "main", 0, true)
	a := main.NewVar("a", clsA)
	o1 := main.NewVar("o1", ir.None)
	o2 := main.NewVar("o2", ir.None)
	bv := main.NewVar("b", ir.None)
	hA := main.Alloc(a, clsA, "hA")
	h1 := main.Alloc(o1, b.TypeByName("Object"), "h1")
	h2 := main.Alloc(o2, b.TypeByName("Object"), "h2")
	main.Store(a, f, o1)
	main.Store(a, f, o2)
	main.Move(bv, o1)
	invo := main.Call(ir.None, util.ID(), ir.None, o1, o2)
	b.AddEntry(main.ID())

	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	heaps := map[string]ir.HeapID{"hA": hA, "h1": h1, "h2": h2}
	meths := map[string]ir.MethodID{"util": util.ID(), "main": main.ID()}
	return prog, heaps, invo, meths
}

func TestComputeMetrics(t *testing.T) {
	prog, heaps, invo, meths := buildMetricsProgram(t)
	res := analyze(t, prog, "insens")
	m := introspect.Compute(res)

	// Metric 1: in-flow of the util call = |pt(o1)| + |pt(o2)| = 2.
	if got := m.InFlow[invo]; got != 2 {
		t.Errorf("InFlow = %d, want 2", got)
	}
	// Metric 2: main's volume: a(1) + o1(1) + o2(1) + b(1) = 4.
	if got := m.TotalVolume[meths["main"]]; got != 4 {
		t.Errorf("TotalVolume(main) = %d, want 4", got)
	}
	if got := m.MaxVarPointsTo[meths["main"]]; got != 1 {
		t.Errorf("MaxVarPointsTo(main) = %d, want 1", got)
	}
	// util: x(1) + y(1) + t(1) = 3.
	if got := m.TotalVolume[meths["util"]]; got != 3 {
		t.Errorf("TotalVolume(util) = %d, want 3", got)
	}
	// Metric 3: hA.f = {h1, h2}.
	if got := m.MaxFieldPointsTo[heaps["hA"]]; got != 2 {
		t.Errorf("MaxFieldPointsTo(hA) = %d, want 2", got)
	}
	if got := m.TotalFieldPointsTo[heaps["hA"]]; got != 2 {
		t.Errorf("TotalFieldPointsTo(hA) = %d, want 2", got)
	}
	// Metric 4: main's vars reach hA whose max field PT is 2.
	if got := m.MaxVarFieldPointsTo[meths["main"]]; got != 2 {
		t.Errorf("MaxVarFieldPointsTo(main) = %d, want 2", got)
	}
	// Metric 5: h1 pointed by o1, b, x (util formal), t = 4.
	if got := m.PointedByVars[heaps["h1"]]; got != 4 {
		t.Errorf("PointedByVars(h1) = %d, want 4", got)
	}
	if got := m.PointedByVars[heaps["hA"]]; got != 1 {
		t.Errorf("PointedByVars(hA) = %d, want 1", got)
	}
	// Metric 6: h1 pointed by (hA, f) only.
	if got := m.PointedByObjs[heaps["h1"]]; got != 1 {
		t.Errorf("PointedByObjs(h1) = %d, want 1", got)
	}
	if got := m.PointedByObjs[heaps["hA"]]; got != 0 {
		t.Errorf("PointedByObjs(hA) = %d, want 0", got)
	}
}

func TestHeuristicASelection(t *testing.T) {
	prog, heaps, invo, meths := buildMetricsProgram(t)
	res := analyze(t, prog, "insens")
	m := introspect.Compute(res)

	// K=3: h1 (pointed by 4 vars) is excluded; hA, h2 are not.
	ref := introspect.HeuristicA{K: 3, L: 1, M: 1}.Select(prog, m, nil)
	if !ref.ExcludesHeap(heaps["h1"]) {
		t.Error("h1 should be excluded (pointed-by-vars 4 > 3)")
	}
	if ref.ExcludesHeap(heaps["hA"]) || ref.ExcludesHeap(heaps["h2"]) {
		t.Error("hA/h2 should not be excluded")
	}
	// L=1: the util invo (in-flow 2) is excluded.
	if !ref.Invos.Has(int32(invo)) {
		t.Error("util invo should be excluded (in-flow 2 > 1)")
	}
	// M=1: main (max var-field 2) is excluded; util (0) is not.
	if !ref.Methods.Has(int32(meths["main"])) {
		t.Error("main should be excluded (max var-field 2 > 1)")
	}
	if ref.Methods.Has(int32(meths["util"])) {
		t.Error("util should not be excluded")
	}
	// With the paper's constants nothing is excluded in this tiny
	// program.
	refDefault := introspect.DefaultA().Select(prog, m, nil)
	if !refDefault.Heaps.Empty() || !refDefault.Invos.Empty() || !refDefault.Methods.Empty() {
		t.Error("paper-constant Heuristic A should exclude nothing here")
	}
}

func TestHeuristicBSelection(t *testing.T) {
	prog, heaps, _, meths := buildMetricsProgram(t)
	res := analyze(t, prog, "insens")
	m := introspect.Compute(res)

	// P=2: util (volume 3) and main (volume 4) excluded.
	ref := introspect.HeuristicB{P: 2, Q: 1}.Select(prog, m, nil)
	if !ref.Methods.Has(int32(meths["util"])) || !ref.Methods.Has(int32(meths["main"])) {
		t.Error("both methods should be excluded with P=2")
	}
	// Q=1: h1 has total-field-PT 0 (no fields written on h1), product
	// 0; hA has product 2*1=2 > 1 → excluded.
	if !ref.ExcludesHeap(heaps["hA"]) {
		t.Error("hA should be excluded (2 * 1 > 1)")
	}
	if ref.ExcludesHeap(heaps["h1"]) {
		t.Error("h1 should not be excluded (product 0)")
	}
	if introspect.DefaultB().Name() != "IntroB" || introspect.DefaultA().Name() != "IntroA" {
		t.Error("heuristic names wrong")
	}
}

func TestSelectionStats(t *testing.T) {
	prog, _, _, _ := buildMetricsProgram(t)
	res := analyze(t, prog, "insens")
	sel := introspect.SelectWith(res, introspect.Compute(res), introspect.HeuristicA{K: 3, L: 1, M: 1}, false)
	// 3 allocation sites, 1 reachable invo.
	if sel.TotalHeaps != 3 || sel.TotalInvos != 1 {
		t.Errorf("totals: heaps %d invos %d, want 3 and 1", sel.TotalHeaps, sel.TotalInvos)
	}
	if sel.ExcludedHeaps != 1 {
		t.Errorf("ExcludedHeaps = %d, want 1 (h1)", sel.ExcludedHeaps)
	}
	if sel.ExcludedInvos != 1 {
		t.Errorf("ExcludedInvos = %d, want 1", sel.ExcludedInvos)
	}
	if sel.PctObjects() < 33 || sel.PctObjects() > 34 {
		t.Errorf("PctObjects = %f, want ~33.3", sel.PctObjects())
	}
	if sel.PctCallSites() != 100 {
		t.Errorf("PctCallSites = %f, want 100", sel.PctCallSites())
	}
	if !strings.Contains(sel.String(), "IntroA") {
		t.Errorf("Selection.String = %q", sel.String())
	}
}

func TestRunPipeline(t *testing.T) {
	prog, _, _, _ := buildMetricsProgram(t)
	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH-IntroA"},
		Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.First.Analysis != "insens" {
		t.Errorf("first pass = %s", res.First.Analysis)
	}
	if res.Main.Analysis != "2objH-IntroA" {
		t.Errorf("main pass = %s", res.Main.Analysis)
	}
	if !res.Main.Complete {
		t.Error("tiny program should not time out")
	}

	// Deep must be context-sensitive.
	if _, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "insens"}, Selector: analysis.HeuristicSelector(introspect.DefaultA()),
	}); err == nil {
		t.Error("introspective pipeline with insens deep analysis should fail")
	}
	if _, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "bogus"}, Selector: analysis.HeuristicSelector(introspect.DefaultA()),
	}); err == nil {
		t.Error("pipeline with bogus analysis should fail")
	}
}

// allCheap is a heuristic that excludes every heap and every call site
// from refinement — the degenerate "everything analyzed cheaply" dial
// position.
type allCheap struct{}

func (allCheap) Name() string { return "allcheap" }

func (allCheap) Select(prog *ir.Program, m *introspect.Metrics, _ func(introspect.Decision)) *pta.Refinement {
	ref := &pta.Refinement{}
	for h := 0; h < prog.NumHeaps(); h++ {
		ref.Heaps.Add(int32(h))
	}
	for i := 0; i < prog.NumInvos(); i++ {
		ref.Invos.Add(int32(i))
	}
	return ref
}

// TestIntrospectiveNeverWorseThanInsens: with everything excluded, the
// introspective run degenerates to (at least) the insensitive result —
// points-to sets projected context-insensitively must coincide.
func TestFullExclusionEqualsInsens(t *testing.T) {
	prog, _, _, _ := buildMetricsProgram(t)
	ins := analyze(t, prog, "insens")

	res, err := analysis.Run(context.Background(), analysis.Request{
		Prog: prog, Job: analysis.Job{Spec: "2objH"}, Selector: analysis.HeuristicSelector(allCheap{}),
		Limits: analysis.Limits{Budget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	second := res.Main

	if second.NumMethodContexts() != ins.NumMethodContexts() {
		t.Errorf("full exclusion should collapse to insens contexts: %d vs %d",
			second.NumMethodContexts(), ins.NumMethodContexts())
	}
	for v := 0; v < prog.NumVars(); v++ {
		if !ins.VarHeaps(ir.VarID(v)).Equal(second.VarHeaps(ir.VarID(v))) {
			t.Errorf("var %s differs under full exclusion", prog.VarName(ir.VarID(v)))
		}
	}
}
