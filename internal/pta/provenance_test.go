package pta

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"introspect/internal/bits"
	"introspect/internal/ir"
	"introspect/internal/randprog"
)

// solveProv runs one analysis with the provenance recorder on.
func solveProv(t testing.TB, prog *ir.Program, analysis string) *Result {
	t.Helper()
	res, err := Analyze(context.Background(), prog, analysis, Options{Budget: -1, Provenance: true})
	if err != nil {
		t.Fatalf("%s with provenance: %v", analysis, err)
	}
	return res
}

// TestProvenanceDoesNotChangeResults asserts that recording is
// observationally inert: the recorder only watches the words the
// propagation kernel changes, so a recorded solve reaches the same
// facts, reachability and call graph, charges the same work (the
// schedule is untouched), and keeps exactly one record per derived
// fact.
func TestProvenanceDoesNotChangeResults(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		prog := randprog.Generate(seed, randprog.Default())
		for _, analysis := range []string{"insens", "2objH", "1call"} {
			plain, err := Analyze(context.Background(), prog, analysis, Options{Budget: -1})
			if err != nil {
				t.Fatal(err)
			}
			prov := solveProv(t, prog, analysis)
			label := fmt.Sprintf("seed %d %s", seed, analysis)
			if a, b := plain.VarPTSize(), prov.VarPTSize(); a != b {
				t.Errorf("%s: VarPTSize %d (plain) != %d (provenance)", label, a, b)
			}
			if a, b := plain.FieldPTSize(), prov.FieldPTSize(); a != b {
				t.Errorf("%s: FieldPTSize %d != %d", label, a, b)
			}
			if a, b := plain.Work, prov.Work; a != b {
				t.Errorf("%s: Work %d != %d", label, a, b)
			}
			if a, b := plain.Derivations, prov.Derivations; a != b {
				t.Errorf("%s: Derivations %d != %d", label, a, b)
			}
			if a, b := plain.NumReachableMethods(), prov.NumReachableMethods(); a != b {
				t.Errorf("%s: reachable %d != %d", label, a, b)
			}
			if a, b := plain.NumCallGraphEdges(), prov.NumCallGraphEdges(); a != b {
				t.Errorf("%s: cg edges %d != %d", label, a, b)
			}
			if got, want := prov.NumProvenanceFacts(), int(prov.Derivations); got != want {
				t.Errorf("%s: %d provenance records, want one per derivation (%d)", label, got, want)
			}
			if plain.ProvenanceEnabled() {
				t.Errorf("%s: plain run claims provenance", label)
			}
		}
	}
}

// checkWitnesses replays every recorded var-node witness of res against
// the solver's own constraint graph: each chain node must hold the
// fact, consecutive nodes must be joined by an installed edge whose
// filter the object passes, and the chain must start at an introduction
// point (the allocation's target variable, or a this bound by
// dispatch). It returns the number of facts checked.
func checkWitnesses(t testing.TB, label string, prog *ir.Program, res *Result) int {
	t.Helper()
	s := res.s

	// (var, heap) pairs introduced by Alloc instructions.
	allocs := map[[2]int32]bool{}
	thisVars := map[ir.VarID]bool{}
	for mi := range prog.Methods {
		m := &prog.Methods[mi]
		for _, a := range m.Allocs {
			allocs[[2]int32{int32(a.Var), int32(a.Heap)}] = true
		}
		if m.This != ir.None {
			thisVars[m.This] = true
		}
	}

	connected := func(a, b, hc int32) bool {
		for _, e := range s.succs[a] {
			if e.dst == b && (e.filter == ir.None || prog.SubtypeOf(prog.HeapType(s.hcHeap[hc]), e.filter)) {
				return true
			}
		}
		return false
	}

	checked := 0
	for n := range s.kind {
		if s.kind[n] != varNode {
			continue
		}
		n := int32(n)
		s.pt[n].ForEach(func(hc int32) {
			checked++
			chain, ok := res.explainChain(n, hc)
			if !ok {
				t.Fatalf("%s: fact (%s, %s) has no witness", label, s.debugNode(n), prog.HeapName(s.hcHeap[hc]))
			}
			if chain[len(chain)-1] != n {
				t.Fatalf("%s: witness for %s does not end at the queried node", label, s.debugNode(n))
			}
			for i, cn := range chain {
				if !s.pt[cn].Has(hc) {
					t.Fatalf("%s: witness node %s does not hold the fact", label, s.debugNode(cn))
				}
				if i > 0 && !connected(chain[i-1], cn, hc) {
					t.Fatalf("%s: witness steps %s -> %s not joined by a passing edge",
						label, s.debugNode(chain[i-1]), s.debugNode(cn))
				}
			}
			intro := chain[0]
			if s.kind[intro] != varNode {
				t.Fatalf("%s: witness starts at non-var node %s", label, s.debugNode(intro))
			}
			iv := ir.VarID(s.nodeA[intro])
			if !allocs[[2]int32{s.nodeA[intro], int32(s.hcHeap[hc])}] && !thisVars[iv] {
				t.Fatalf("%s: witness intro %s is neither the alloc target of %s nor a this-binding",
					label, s.debugNode(intro), prog.HeapName(s.hcHeap[hc]))
			}
		})
	}
	return checked
}

// TestProvenanceWitnessesReplay is the witness-validity property over
// random programs: every recorded derivation path replays step by step
// under the insensitive solver (and a context-sensitive one).
func TestProvenanceWitnessesReplay(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 20; seed++ {
		prog := randprog.Generate(seed, randprog.Default())
		for _, analysis := range []string{"insens", "2objH"} {
			res := solveProv(t, prog, analysis)
			total += checkWitnesses(t, fmt.Sprintf("seed %d %s", seed, analysis), prog, res)
		}
	}
	if total == 0 {
		t.Fatal("no facts checked; generator produced empty programs")
	}
}

// TestExplainAPI exercises the exported witness reconstruction on a
// hand-built flow: alloc -> move -> store -> load.
func TestExplainAPI(t *testing.T) {
	b := ir.NewBuilder("explain")
	cls := b.AddClass("C", ir.None, nil)
	f := b.AddField(cls, "f")
	mb := b.AddStaticMethod(cls, "main", 0, true)
	box := mb.NewVar("box", cls)
	val := mb.NewVar("val", cls)
	cp := mb.NewVar("cp", cls)
	out := mb.NewVar("out", cls)
	hBox := mb.Alloc(box, cls, "new C#box")
	hVal := mb.Alloc(val, cls, "new C#val")
	mb.Move(cp, val)
	mb.Store(box, f, cp)
	mb.Load(out, box, f)
	b.AddEntry(mb.ID())
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}

	res := solveProv(t, prog, "insens")
	if !res.ProvenanceEnabled() {
		t.Fatal("provenance not enabled")
	}
	w, ok := res.ExplainHeap(out, hVal)
	if !ok {
		t.Fatal("ExplainHeap found no witness for out -> new C#val")
	}
	if w.Heap != hVal {
		t.Errorf("witness heap = %v, want %v", w.Heap, hVal)
	}
	got := w.Format(prog)
	want := "alloc new C#val -> C.main.val -> C.main.cp -> new C#box.f -> C.main.out"
	if got != want {
		t.Errorf("witness path:\n got %q\nwant %q", got, want)
	}
	if w.Steps[0].Kind != WitnessAlloc {
		t.Error("witness does not start with an alloc step")
	}

	// The box object flows directly: alloc -> box.
	w2, ok := res.Explain(box, EmptyCtx, findHC(res, hBox))
	if !ok || len(w2.Steps) != 2 {
		t.Fatalf("Explain(box) = %v, %v; want 2-step witness", w2, ok)
	}

	// Absent facts and disabled recorders return ok=false.
	if _, ok := res.ExplainHeap(val, hBox); ok {
		t.Error("ExplainHeap invented a witness for a fact that does not hold")
	}
	plain, err := Analyze(context.Background(), prog, "insens", Options{Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.ExplainHeap(out, hVal); ok {
		t.Error("ExplainHeap succeeded without provenance recording")
	}
	if strings.Contains(plain.Analysis, "prov") {
		t.Error("provenance must not rename the analysis")
	}
}

// TestExplainConcurrent explains every var-node fact of one shared
// Result from several goroutines at once — the recorder fills its
// per-node lookup cache lazily — and checks each witness against a
// serial explanation of an identical solve.
func TestExplainConcurrent(t *testing.T) {
	prog := randprog.Generate(5, randprog.Default())
	explainAll := func(res *Result) []string {
		var out []string
		res.ForEachVarCtx(func(v ir.VarID, ctx Ctx, pt *bits.Set) {
			pt.ForEach(func(hc int32) {
				w, ok := res.Explain(v, ctx, hc)
				if !ok {
					out = append(out, "<none>")
					return
				}
				out = append(out, w.Format(prog))
			})
		})
		return out
	}
	want := explainAll(solveProv(t, prog, "2objH"))
	shared := solveProv(t, prog, "2objH")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := explainAll(shared)
			if len(got) != len(want) {
				t.Errorf("explained %d facts, want %d", len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("fact %d: witness %q, want %q", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// findHC returns the hc id of heap h's (sole) context-qualified object.
func findHC(res *Result, h ir.HeapID) int32 {
	for hc := range res.s.hcHeap {
		if res.s.hcHeap[hc] == h {
			return int32(hc)
		}
	}
	return -1
}

// FuzzProvenanceReplay fuzzes the witness-validity property through the
// randprog generator: any seed must yield a program whose recorded
// witnesses all replay. Seeds beyond the corpus explore new shapes.
func FuzzProvenanceReplay(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(7))
	f.Add(int64(42))
	f.Add(int64(-3))
	f.Fuzz(func(t *testing.T, seed int64) {
		prog := randprog.Generate(seed, randprog.Default())
		res, err := Analyze(context.Background(), prog, "insens", Options{Budget: 5_000_000, Provenance: true})
		if err != nil {
			t.Skip("budget exhausted; witness DAG incomplete by design")
		}
		checkWitnesses(t, fmt.Sprintf("seed %d", seed), prog, res)
	})
}
