package introspect

import (
	"fmt"
	"strings"

	"introspect/internal/ir"
	"introspect/internal/pta"
)

// Metric names one of the paper's six cost metrics (Section 3), for
// building custom heuristics. The paper emphasizes that the metrics
// are simple and composable: "one can create parameterizable analyses:
// a knob for adjusting the precision/scalability tradeoff".
type Metric uint8

const (
	// InFlowMetric (1) applies to invocation sites.
	InFlowMetric Metric = iota
	// TotalVolumeMetric (2) applies to methods.
	TotalVolumeMetric
	// MaxVarPointsToMetric (2, variant) applies to methods.
	MaxVarPointsToMetric
	// MaxFieldPointsToMetric (3) applies to allocation sites.
	MaxFieldPointsToMetric
	// TotalFieldPointsToMetric (3, variant) applies to allocation sites.
	TotalFieldPointsToMetric
	// MaxVarFieldPointsToMetric (4) applies to methods.
	MaxVarFieldPointsToMetric
	// PointedByVarsMetric (5) applies to allocation sites.
	PointedByVarsMetric
	// PointedByObjsMetric (6) applies to allocation sites.
	PointedByObjsMetric
)

var metricNames = map[Metric]string{
	InFlowMetric: "in-flow", TotalVolumeMetric: "total-volume",
	MaxVarPointsToMetric: "max-var-points-to", MaxFieldPointsToMetric: "max-field-points-to",
	TotalFieldPointsToMetric: "total-field-points-to", MaxVarFieldPointsToMetric: "max-var-field-points-to",
	PointedByVarsMetric: "pointed-by-vars", PointedByObjsMetric: "pointed-by-objs",
}

func (m Metric) String() string { return metricNames[m] }

// domain classifies what program element a metric scores.
type domain uint8

const (
	invoDomain domain = iota
	methodDomain
	heapDomain
)

func (m Metric) domain() domain {
	switch m {
	case InFlowMetric:
		return invoDomain
	case TotalVolumeMetric, MaxVarPointsToMetric, MaxVarFieldPointsToMetric:
		return methodDomain
	default:
		return heapDomain
	}
}

// value reads the metric's score for element id.
func (m Metric) value(ms *Metrics, id int) int {
	switch m {
	case InFlowMetric:
		return ms.InFlow[id]
	case TotalVolumeMetric:
		return ms.TotalVolume[id]
	case MaxVarPointsToMetric:
		return ms.MaxVarPointsTo[id]
	case MaxFieldPointsToMetric:
		return ms.MaxFieldPointsTo[id]
	case TotalFieldPointsToMetric:
		return ms.TotalFieldPointsTo[id]
	case MaxVarFieldPointsToMetric:
		return ms.MaxVarFieldPointsTo[id]
	case PointedByVarsMetric:
		return ms.PointedByVars[id]
	case PointedByObjsMetric:
		return ms.PointedByObjs[id]
	}
	return 0
}

// Clause excludes program elements whose metric (or product of two
// metrics over the same element kind) exceeds a threshold. A zero
// Metric2 means a single-metric clause; with Metric2 set, the clause
// scores Metric × Metric2, like Heuristic B's "total potential for
// weighing down the analysis".
type Clause struct {
	Metric    Metric
	Metric2   Metric // optional product term
	HasSecond bool
	Threshold int
}

func (c Clause) String() string {
	if c.HasSecond {
		return fmt.Sprintf("%s × %s > %d", c.Metric, c.Metric2, c.Threshold)
	}
	return fmt.Sprintf("%s > %d", c.Metric, c.Threshold)
}

// Combo is a custom introspection heuristic: a disjunction of
// exclusion clauses. Any element that exceeds any matching-domain
// clause is excluded from refinement. The paper's Heuristic A is
// Combo{pointed-by-vars>K; in-flow>L; max-var-field>M}; Heuristic B is
// Combo{total-volume>P; total-field×pointed-by-vars>Q}.
type Combo struct {
	Label   string
	Clauses []Clause
}

// Name implements Heuristic.
func (c Combo) Name() string {
	if c.Label != "" {
		return c.Label
	}
	var parts []string
	for _, cl := range c.Clauses {
		parts = append(parts, cl.String())
	}
	return "Combo(" + strings.Join(parts, "; ") + ")"
}

// Select implements Heuristic; it is the one loop that turns metrics
// into a refinement. Every clause scans its whole domain in element-ID
// order and demotes the elements whose score exceeds its threshold.
// A non-nil rec additionally receives one Decision per scored element
// whose metric value was observed (non-zero) or whose verdict is
// demote — zero-valued refines are vacuous (the first pass never saw
// the element) and would bloat the log without informing anyone. The
// log is therefore deterministic for a given first pass, and recording
// it cannot change the refinement.
func (c Combo) Select(prog *ir.Program, m *Metrics, rec func(Decision)) *pta.Refinement {
	ref := &pta.Refinement{}
	for _, cl := range c.Clauses {
		dom := cl.Metric.domain()
		var n int
		switch dom {
		case invoDomain:
			n = prog.NumInvos()
		case methodDomain:
			n = prog.NumMethods()
		default:
			n = prog.NumHeaps()
		}
		for i := 0; i < n; i++ {
			v := cl.score(m, i)
			demote := v > cl.Threshold
			if demote {
				switch dom {
				case invoDomain:
					ref.Invos.Add(int32(i))
				case methodDomain:
					ref.Methods.Add(int32(i))
				default:
					ref.Heaps.Add(int32(i))
				}
			}
			if rec == nil || (v == 0 && !demote) {
				continue
			}
			verdict := VerdictRefine
			if demote {
				verdict = VerdictDemote
			}
			rec(Decision{
				Kind:      kindName(dom),
				Site:      siteName(prog, dom, i),
				Metric:    cl.label(),
				Value:     v,
				Threshold: cl.Threshold,
				Verdict:   verdict,
			})
		}
	}
	return ref
}

// AsComboA expresses Heuristic A as a Combo: the form HeuristicA.Select
// runs.
func AsComboA(h HeuristicA) Combo {
	return Combo{Label: "IntroA", Clauses: []Clause{
		{Metric: PointedByVarsMetric, Threshold: h.K},
		{Metric: InFlowMetric, Threshold: h.L},
		{Metric: MaxVarFieldPointsToMetric, Threshold: h.M},
	}}
}

// AsComboB expresses Heuristic B as a Combo: the form HeuristicB.Select
// runs.
func AsComboB(h HeuristicB) Combo {
	return Combo{Label: "IntroB", Clauses: []Clause{
		{Metric: TotalVolumeMetric, Threshold: h.P},
		{Metric: TotalFieldPointsToMetric, Metric2: PointedByVarsMetric, HasSecond: true, Threshold: h.Q},
	}}
}
