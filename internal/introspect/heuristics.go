package introspect

import (
	"fmt"

	"introspect/internal/ir"
	"introspect/internal/pta"
)

// Heuristic selects the program elements to EXCLUDE from refinement
// (i.e. analyze context-insensitively in the second pass), from the
// metrics of the first pass. Implementations are the paper's Heuristic
// A and Heuristic B; both are threshold-tunable, providing the paper's
// scalability "dial". Both select through Combo.Select, the one
// clause loop that turns metrics into a refinement.
type Heuristic interface {
	// Name identifies the heuristic for display ("IntroA", "IntroB").
	Name() string
	// Select computes the refinement-exclusion sets. A non-nil rec
	// receives the decision log as it is made (see Combo.Select);
	// recording never changes the refinement.
	Select(prog *ir.Program, m *Metrics, rec func(Decision)) *pta.Refinement
}

// HeuristicA is the paper's scalability-first heuristic:
//
//	Refine all allocation sites except those with pointed-by-vars
//	(metric 5) > K. Refine all method call sites except those with
//	in-flow (metric 1) > L or whose invoked method has max var-field
//	points-to (metric 4) > M.
//
// Paper constants: K=100, L=100, M=200.
type HeuristicA struct {
	K, L, M int
}

// DefaultA returns Heuristic A with the paper's constants.
func DefaultA() HeuristicA { return HeuristicA{K: 100, L: 100, M: 200} }

// Name implements Heuristic.
func (h HeuristicA) Name() string { return "IntroA" }

// Select implements Heuristic through the Combo form of Heuristic A.
func (h HeuristicA) Select(prog *ir.Program, m *Metrics, rec func(Decision)) *pta.Refinement {
	return AsComboA(h).Select(prog, m, rec)
}

// HeuristicB is the paper's precision-first heuristic:
//
//	Refine all method call sites except those that invoke methods with
//	a total points-to volume (metric 2) > P. Refine all object
//	allocations except those for which total field points-to ×
//	pointed-by-vars (metrics 3 × 5) > Q.
//
// Paper constants: P = Q = 10000.
type HeuristicB struct {
	P, Q int
}

// DefaultB returns Heuristic B with the paper's constants.
func DefaultB() HeuristicB { return HeuristicB{P: 10000, Q: 10000} }

// Name implements Heuristic.
func (h HeuristicB) Name() string { return "IntroB" }

// Select implements Heuristic through the Combo form of Heuristic B.
func (h HeuristicB) Select(prog *ir.Program, m *Metrics, rec func(Decision)) *pta.Refinement {
	return AsComboB(h).Select(prog, m, rec)
}

// Selection reports what a heuristic chose, including the Figure-4
// statistics of the paper (percentage of call sites and objects *not*
// refined).
type Selection struct {
	Refinement *pta.Refinement
	Heuristic  string

	// TotalInvos / TotalHeaps are the reachable site counts the
	// percentages are relative to.
	TotalInvos, TotalHeaps int
	// ExcludedInvos counts call sites excluded from refinement (either
	// directly or because every resolved target method is excluded).
	ExcludedInvos int
	// ExcludedHeaps counts allocation sites excluded from refinement.
	ExcludedHeaps int

	// Decisions is the per-element refine/demote audit log the
	// heuristic recorded, in the order it was made; nil unless
	// SelectWith was asked to audit.
	Decisions []Decision
}

// PctCallSites returns the percentage of (reachable) call sites not
// refined — the "Call Sites" column of Figure 4.
func (s *Selection) PctCallSites() float64 {
	if s.TotalInvos == 0 {
		return 0
	}
	return 100 * float64(s.ExcludedInvos) / float64(s.TotalInvos)
}

// PctObjects returns the percentage of objects not refined — the
// "Objects" column of Figure 4.
func (s *Selection) PctObjects() float64 {
	if s.TotalHeaps == 0 {
		return 0
	}
	return 100 * float64(s.ExcludedHeaps) / float64(s.TotalHeaps)
}

func (s *Selection) String() string {
	return fmt.Sprintf("%s: call sites not refined %.1f%% (%d/%d), objects not refined %.1f%% (%d/%d)",
		s.Heuristic, s.PctCallSites(), s.ExcludedInvos, s.TotalInvos,
		s.PctObjects(), s.ExcludedHeaps, s.TotalHeaps)
}

// SelectWith runs a heuristic over a first-pass result and its
// metrics, and packages the outcome with its Figure-4 statistics. With
// audit set, the Selection also carries the heuristic's decision log.
// Only program elements observed by the first pass (reachable call
// sites with a call-graph edge, allocation sites in reachable methods)
// enter the denominators.
func SelectWith(res *pta.Result, m *Metrics, h Heuristic, audit bool) *Selection {
	var decisions []Decision
	var rec func(Decision)
	if audit {
		rec = func(d Decision) { decisions = append(decisions, d) }
	}
	prog := res.Prog
	ref := h.Select(prog, m, rec)
	sel := &Selection{Refinement: ref, Heuristic: h.Name(), Decisions: decisions}

	for mi := range prog.Methods {
		mm := &prog.Methods[mi]
		reach := res.MethodReachable(ir.MethodID(mi))
		if reach {
			for _, a := range mm.Allocs {
				sel.TotalHeaps++
				if ref.ExcludesHeap(a.Heap) {
					sel.ExcludedHeaps++
				}
			}
		}
		for ci := range mm.Calls {
			c := &mm.Calls[ci]
			targets := res.InvoTargets(c.Invo)
			if len(targets) == 0 {
				continue
			}
			sel.TotalInvos++
			excluded := true
			for _, t := range targets {
				if !ref.ExcludesCall(c.Invo, t) {
					excluded = false
					break
				}
			}
			if excluded {
				sel.ExcludedInvos++
			}
		}
	}
	return sel
}
