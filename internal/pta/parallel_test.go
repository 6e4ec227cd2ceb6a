package pta

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"introspect/internal/bits"
	"introspect/internal/ir"
	"introspect/internal/randprog"
	"introspect/internal/suite"
)

// --- canonical cross-run comparison ---
//
// Heap-context ids, context ids, and constraint-node ids are interned
// in discovery order, which is schedule-dependent: a parallel run
// discovers the same facts as a serial run but in a different order.
// Pointwise equality therefore compares results through their stable
// coordinates — program-level var/heap/field/invo/method ids plus the
// structural value of each context (Table.Elems, whose elements are
// themselves program-level ids) — by building an id bijection between
// the two runs and translating one run's sets through it.

func ctxSig(r *Result, c Ctx) string {
	return fmt.Sprint(r.s.tab.Elems(c))
}

func hcSig(r *Result, hc int32) string {
	return fmt.Sprintf("%d|%v", r.s.hcHeap[hc], r.s.tab.Elems(Ctx(r.s.hcCtx[hc])))
}

// comparePointwise asserts that a and b describe the same analysis
// outcome: equal completion status, equal schedule-independent work
// counters (Derivations, Propagations), and pointwise-equal
// VarPointsTo, FieldPointsTo, Reachable, and CallGraph relations.
func comparePointwise(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Complete != b.Complete {
		t.Fatalf("%s: Complete %v vs %v", label, a.Complete, b.Complete)
	}
	if a.Derivations != b.Derivations || a.Propagations != b.Propagations {
		t.Fatalf("%s: derivations %d vs %d, propagations %d vs %d",
			label, a.Derivations, b.Derivations, a.Propagations, b.Propagations)
	}

	// Heap-context bijection a → b.
	if a.NumHeapContexts() != b.NumHeapContexts() {
		t.Fatalf("%s: heap contexts %d vs %d", label, a.NumHeapContexts(), b.NumHeapContexts())
	}
	bHC := make(map[string]int32, b.NumHeapContexts())
	for hc := 0; hc < b.NumHeapContexts(); hc++ {
		bHC[hcSig(b, int32(hc))] = int32(hc)
	}
	remapHC := make([]int32, a.NumHeapContexts())
	for hc := range remapHC {
		id, ok := bHC[hcSig(a, int32(hc))]
		if !ok {
			t.Fatalf("%s: heap context %s missing from second run", label, hcSig(a, int32(hc)))
		}
		remapHC[hc] = id
	}

	// Calling-context bijection a → b.
	if a.s.tab.Len() != b.s.tab.Len() {
		t.Fatalf("%s: contexts %d vs %d", label, a.s.tab.Len(), b.s.tab.Len())
	}
	bCtx := make(map[string]Ctx, b.s.tab.Len())
	for c := 0; c < b.s.tab.Len(); c++ {
		bCtx[ctxSig(b, Ctx(c))] = Ctx(c)
	}
	remapCtx := make([]Ctx, a.s.tab.Len())
	for c := range remapCtx {
		id, ok := bCtx[ctxSig(a, Ctx(c))]
		if !ok {
			t.Fatalf("%s: context %s missing from second run", label, ctxSig(a, Ctx(c)))
		}
		remapCtx[c] = id
	}

	pack := func(x, y int32) uint64 { return uint64(uint32(x))<<32 | uint64(uint32(y)) }

	// VarPointsTo, per (var, ctx) tuple.
	bVar := map[uint64]*bits.Set{}
	b.ForEachVarCtx(func(v ir.VarID, c Ctx, pt *bits.Set) { bVar[pack(int32(v), int32(c))] = pt })
	aVars := 0
	a.ForEachVarCtx(func(v ir.VarID, c Ctx, pt *bits.Set) {
		aVars++
		bpt := bVar[pack(int32(v), int32(remapCtx[c]))]
		if bpt == nil {
			t.Fatalf("%s: var %d ctx %s empty in second run", label, v, ctxSig(a, c))
		}
		var tr bits.Set
		pt.ForEach(func(hc int32) { tr.Add(remapHC[hc]) })
		if !tr.Equal(bpt) {
			t.Fatalf("%s: var %d ctx %s points-to differs (%d vs %d elements)",
				label, v, ctxSig(a, c), tr.Len(), bpt.Len())
		}
	})
	if aVars != len(bVar) {
		t.Fatalf("%s: %d non-empty var tuples vs %d", label, aVars, len(bVar))
	}

	// FieldPointsTo, per (base hc, field) cell.
	bFld := map[uint64]*bits.Set{}
	b.ForEachFieldCell(func(base int32, f ir.FieldID, pt *bits.Set) { bFld[pack(base, int32(f))] = pt })
	aFlds := 0
	a.ForEachFieldCell(func(base int32, f ir.FieldID, pt *bits.Set) {
		aFlds++
		bpt := bFld[pack(remapHC[base], int32(f))]
		if bpt == nil {
			t.Fatalf("%s: field cell (%s, %d) empty in second run", label, hcSig(a, base), f)
		}
		var tr bits.Set
		pt.ForEach(func(hc int32) { tr.Add(remapHC[hc]) })
		if !tr.Equal(bpt) {
			t.Fatalf("%s: field cell (%s, %d) differs", label, hcSig(a, base), f)
		}
	})
	if aFlds != len(bFld) {
		t.Fatalf("%s: %d non-empty field cells vs %d", label, aFlds, len(bFld))
	}

	// Reachability and the context-qualified call graph.
	am, bm := a.ReachableMethods(), b.ReachableMethods()
	if len(am) != len(bm) {
		t.Fatalf("%s: reachable methods %d vs %d", label, len(am), len(bm))
	}
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("%s: reachable method sets differ at %d: %v vs %v", label, i, am[i], bm[i])
		}
	}
	if a.NumCallGraphEdges() != b.NumCallGraphEdges() {
		t.Fatalf("%s: call-graph edges %d vs %d", label, a.NumCallGraphEdges(), b.NumCallGraphEdges())
	}
	bCG := map[[2]uint64]bool{}
	b.ForEachCallGraphEdge(func(i ir.InvoID, cc Ctx, m ir.MethodID, ec Ctx) {
		k1, k2 := cgPack(i, cc, m, ec)
		bCG[[2]uint64{k1, k2}] = true
	})
	a.ForEachCallGraphEdge(func(i ir.InvoID, cc Ctx, m ir.MethodID, ec Ctx) {
		k1, k2 := cgPack(i, remapCtx[cc], m, remapCtx[ec])
		if !bCG[[2]uint64{k1, k2}] {
			t.Fatalf("%s: call-graph edge (%d, %s, %d, %s) missing from second run",
				label, i, ctxSig(a, cc), m, ctxSig(a, ec))
		}
	})
}

// TestParallelMatchesSerialRandprog is the tentpole property test: the
// parallel solver computes exactly the serial solver's points-to
// results — pointwise over contexts, not just projected — along with
// equal Derivations/Propagations, across random programs, analyses,
// and shard counts.
func TestParallelMatchesSerialRandprog(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		prog := randprog.Generate(seed, randprog.Default())
		for _, analysis := range []string{"insens", "1call", "2objH"} {
			serial, err := Analyze(context.Background(), prog, analysis, Options{Budget: -1})
			if err != nil {
				t.Fatal(err)
			}
			workers := []int{2 + int(seed)%7}
			if seed == 1 {
				workers = []int{2, 3, 4, 8, MaxWorkers}
			}
			for _, w := range workers {
				par, err := Analyze(context.Background(), prog, analysis, Options{Budget: -1, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if par.Workers != w {
					t.Fatalf("Result.Workers = %d, want %d", par.Workers, w)
				}
				comparePointwise(t, fmt.Sprintf("seed %d %s w=%d", seed, analysis, w), par, serial)
			}
		}
	}
}

// TestParallelMatchesSerialSuite runs the nine-benchmark suite:
// insensitive everywhere plus 2objH where it completes within the
// figures' budget (budget-capped runs stop at schedule-dependent
// points and are compared only for determinism, not cross-mode).
func TestParallelMatchesSerialSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep in -short mode")
	}
	const figBudget = 30_000_000
	for _, name := range suite.Names() {
		prog := suite.MustLoad(name)
		for _, analysis := range []string{"insens", "2objH"} {
			serial, err := Analyze(context.Background(), prog, analysis, Options{Budget: figBudget})
			if err != nil && !errors.Is(err, ErrBudgetExceeded) {
				t.Fatal(err)
			}
			if !serial.Complete {
				continue
			}
			par, err := Analyze(context.Background(), prog, analysis, Options{Budget: figBudget, Workers: 4})
			if err != nil {
				t.Fatalf("%s %s: %v", name, analysis, err)
			}
			comparePointwise(t, name+" "+analysis, par, serial)
		}
	}
}

// TestParallelWorkers1Lockstep pins the satellite contract: Workers=1
// IS the serial solver — same code path, so every counter (including
// the schedule-dependent Work) and every relation matches Workers=0
// exactly.
func TestParallelWorkers1Lockstep(t *testing.T) {
	progs := []*ir.Program{suite.MustLoad("jython")}
	for seed := int64(1); seed <= 5; seed++ {
		progs = append(progs, randprog.Generate(seed, randprog.Default()))
	}
	for i, prog := range progs {
		for _, analysis := range []string{"insens", "2objH"} {
			s0, err := Analyze(context.Background(), prog, analysis, Options{Budget: -1})
			if err != nil {
				t.Fatal(err)
			}
			s1, err := Analyze(context.Background(), prog, analysis, Options{Budget: -1, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if s1.Workers != 1 || s0.Workers != 1 {
				t.Fatalf("effective Workers: %d and %d, want 1", s0.Workers, s1.Workers)
			}
			if s0.Work != s1.Work {
				t.Fatalf("prog %d %s: Workers=1 work %d differs from serial %d", i, analysis, s1.Work, s0.Work)
			}
			comparePointwise(t, fmt.Sprintf("prog %d %s lockstep", i, analysis), s1, s0)
		}
	}
}

// TestParallelDeterministic: a parallel solve is a pure function of
// (program, spec, workers, budget) — independent of scheduling and of
// GOMAXPROCS, including the schedule-dependent operational counters
// and budget-capped stopping points.
func TestParallelDeterministic(t *testing.T) {
	check := func(t *testing.T, prog *ir.Program, analysis string, budget int64, w int) {
		var first *Result
		for run := 0; run < 2; run++ {
			for _, procs := range []int{1, 4} {
				old := runtime.GOMAXPROCS(procs)
				r, err := Analyze(context.Background(), prog, analysis, Options{Budget: budget, Workers: w})
				runtime.GOMAXPROCS(old)
				if err != nil && !errors.Is(err, ErrBudgetExceeded) {
					t.Fatal(err)
				}
				if first == nil {
					first = r
					continue
				}
				if r.Work != first.Work || r.Complete != first.Complete {
					t.Fatalf("run %d procs %d: work %d (complete %v) vs %d (%v)",
						run, procs, r.Work, r.Complete, first.Work, first.Complete)
				}
				comparePointwise(t, fmt.Sprintf("run %d procs %d", run, procs), r, first)
			}
		}
	}
	t.Run("complete", func(t *testing.T) {
		check(t, randprog.Generate(99, randprog.Default()), "2objH", -1, 4)
	})
	t.Run("budget-capped", func(t *testing.T) {
		// Stopping point of an interrupted parallel solve must be as
		// reproducible as a completed one.
		check(t, suite.MustLoad("jython"), "2objH", 300_000, 3)
	})
}

// TestParallelBudgetOvershootBounded: the per-shard round cap divides
// the remaining budget, so a budget-capped parallel run stops within
// a small factor of the limit instead of Workers times it.
func TestParallelBudgetOvershootBounded(t *testing.T) {
	const budget = 200_000
	r, err := Analyze(context.Background(), suite.MustLoad("jython"), "2objH",
		Options{Budget: budget, Workers: 8})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected budget exhaustion, got %v", err)
	}
	if r.Complete {
		t.Fatal("budget-capped run reported Complete")
	}
	if r.Work > 3*budget {
		t.Fatalf("work %d overshot budget %d by more than 3x", r.Work, budget)
	}
}

// TestParallelObserverContract: the Snapshot hook of a parallel solve
// fires only between phases — never concurrently with itself or with
// shard goroutines — and parallel snapshots carry consistent
// shard-aware state.
func TestParallelObserverContract(t *testing.T) {
	var inHook atomic.Int32
	enter := func() {
		if inHook.Add(1) != 1 {
			t.Error("observer hooks overlapped")
		}
	}
	exit := func() { inHook.Add(-1) }
	var snaps []Snapshot
	_, err := Analyze(context.Background(), suite.MustLoad("jython"), "2objH", Options{
		Budget:  2_000_000,
		Workers: 4,
		Snapshot: func(sn Snapshot) {
			enter()
			defer exit()
			snaps = append(snaps, sn)
		},
		SnapshotEvery: 50_000,
	})
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots emitted")
	}
	var lastRound int64 = -1
	for _, sn := range snaps {
		if sn.Work <= 0 {
			t.Fatalf("snapshot with non-positive work %d", sn.Work)
		}
		if sn.Shards != 4 {
			t.Fatalf("snapshot Shards = %d, want 4", sn.Shards)
		}
		if sn.PTTotal != sn.Derivations {
			t.Fatalf("snapshot invariant broken: pt_total %d != derivations %d", sn.PTTotal, sn.Derivations)
		}
		if sn.Round < lastRound {
			t.Fatalf("rounds went backwards: %d after %d", sn.Round, lastRound)
		}
		lastRound = sn.Round
	}
}

// TestParallelCancellation: a cancelled context stops a parallel solve
// (shards poll it on their own pop cadence) with an error wrapping the
// context's error and an incomplete result.
func TestParallelCancellation(t *testing.T) {
	prog := suite.MustLoad("jython")
	// Pre-cancelled: deterministic immediate stop.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Analyze(ctx, prog, "2objH", Options{Budget: -1, Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled solve: err = %v, want context.Canceled", err)
	}
	if r == nil || r.Complete {
		t.Fatal("pre-cancelled solve returned nil or complete result")
	}
	// Mid-solve: cancel from another goroutine while shards run.
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	r, err = Analyze(ctx, prog, "2objH", Options{Budget: -1, Workers: 4})
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("mid-solve cancel: unexpected error %v", err)
	}
	if r == nil {
		t.Fatal("mid-solve cancel returned nil result")
	}
}

// TestParallelRaceHammer is the -race satellite (wired into `make
// race` via the internal/pta package): concurrent shards, a live
// Snapshot observer sampling densely, and cancellation
// landing mid-solve, repeated enough for the race detector to explore
// interleavings.
func TestParallelRaceHammer(t *testing.T) {
	prog := suite.MustLoad("jython")
	for i := 0; i < 6; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 1 {
			go func(d time.Duration) {
				time.Sleep(d)
				cancel()
			}(time.Duration(i) * time.Millisecond)
		}
		var count atomic.Int64
		_, err := Analyze(ctx, prog, "2objH", Options{
			Budget:        1_000_000,
			Workers:       8,
			Snapshot:      func(Snapshot) { count.Add(1) },
			SnapshotEvery: 10_000,
		})
		cancel()
		if err != nil && !errors.Is(err, ErrBudgetExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
	}
}

// TestParallelOptionsValidation: malformed Workers configurations are
// rejected before the solve starts, with a nil Result.
func TestParallelOptionsValidation(t *testing.T) {
	prog := randprog.Generate(1, randprog.Default())
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{Workers: -1}, "out of range"},
		{Options{Workers: MaxWorkers + 1}, "out of range"},
		{Options{Workers: 2, Provenance: true}, "provenance"},
	} {
		r, err := Analyze(context.Background(), prog, "insens", tc.opts)
		if r != nil || err == nil {
			t.Fatalf("Workers=%d: expected nil result + error, got %v, %v", tc.opts.Workers, r, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Workers=%d: error %q does not mention %q", tc.opts.Workers, err, tc.want)
		}
	}
	// Provenance stays available at Workers 0 and 1.
	for _, w := range []int{0, 1} {
		if _, err := Analyze(context.Background(), prog, "insens", Options{Workers: w, Provenance: true}); err != nil {
			t.Fatalf("Workers=%d with provenance: %v", w, err)
		}
	}
}

// TestPartitionProperties: shard assignment is a pure function of the
// program — stable across instances, in range, and constant within an
// SCC of the copy/flow graph (Move/Cast cycles stay shard-local).
func TestPartitionProperties(t *testing.T) {
	prog := suite.MustLoad("jython")
	const w = 5
	p1 := newPartition(prog, w)
	p2 := newPartition(prog, w)
	for v := 0; v < prog.NumVars(); v++ {
		if p1.sccOf[v] != p2.sccOf[v] {
			t.Fatalf("var %d: SCC differs across instances", v)
		}
		for ctx := int32(0); ctx < 3; ctx++ {
			sh := p1.shard(varNode, int32(v), ctx)
			if sh != p2.shard(varNode, int32(v), ctx) {
				t.Fatalf("var %d ctx %d: shard not deterministic", v, ctx)
			}
			if int(sh) >= w {
				t.Fatalf("var %d ctx %d: shard %d out of range", v, ctx, sh)
			}
		}
	}
	// Mutually copying variables (a 2-cycle in the Move graph) must
	// share an SCC and therefore a shard in every context.
	for mi := range prog.Methods {
		m := &prog.Methods[mi]
		for _, mv := range m.Moves {
			for _, back := range m.Moves {
				if back.From == mv.To && back.To == mv.From && mv.From != mv.To {
					if p1.sccOf[mv.From] != p1.sccOf[mv.To] {
						t.Fatalf("vars %d and %d form a copy cycle but land in SCCs %d and %d",
							mv.From, mv.To, p1.sccOf[mv.From], p1.sccOf[mv.To])
					}
				}
			}
		}
	}
	// The big benchmark should actually spread: every shard owns some
	// variable (deterministic given the fixed hash — a failure here
	// means the hash or modulus changed, not flakiness).
	var seen [w]bool
	for v := 0; v < prog.NumVars(); v++ {
		seen[p1.shard(varNode, int32(v), 0)] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("shard %d owns no variables", i)
		}
	}
}
