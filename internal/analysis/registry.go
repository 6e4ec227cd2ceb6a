package analysis

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"introspect/internal/introspect"
	"introspect/internal/ir"
	"introspect/internal/pta"
)

// A Selector is an introspective pipeline's selection strategy: it
// produces the refinement-exclusion sets the main pass consumes.
type Selector interface {
	// Name is the variant suffix of the resolved analysis name
	// ("IntroA" in "2objH-IntroA").
	Name() string
	// NeedsPrePass reports whether the selector consumes the metrics
	// of a context-insensitive pre-pass. Syntactic selectors do not —
	// that is exactly the paper's point about them.
	NeedsPrePass() bool
	// Select computes the selection. first and m are nil when
	// NeedsPrePass is false. With audit set, selectors that decide per
	// element from metrics fill in Selection.Decisions; the refinement
	// is the same either way.
	Select(prog *ir.Program, first *pta.Result, m *introspect.Metrics, audit bool) (*introspect.Selection, error)
}

// HeuristicSelector adapts an introspective heuristic (the paper's
// Heuristic A/B, or any Combo) to the Selector interface.
func HeuristicSelector(h introspect.Heuristic) Selector { return heuristicSelector{h} }

type heuristicSelector struct{ h introspect.Heuristic }

func (s heuristicSelector) Name() string       { return s.h.Name() }
func (s heuristicSelector) NeedsPrePass() bool { return true }
func (s heuristicSelector) Select(prog *ir.Program, first *pta.Result, m *introspect.Metrics, audit bool) (*introspect.Selection, error) {
	return introspect.SelectWith(first, m, s.h, audit), nil
}

// SyntacticSelector adapts the traditional hard-coded exclusions
// (strings/exceptions context-insensitive) to the Selector interface.
// It needs no pre-pass; its Selection carries no Figure-4 statistics
// and no decision log.
func SyntacticSelector(opts introspect.SyntacticOptions) Selector { return syntacticSelector{opts} }

type syntacticSelector struct{ opts introspect.SyntacticOptions }

func (s syntacticSelector) Name() string       { return "syntactic" }
func (s syntacticSelector) NeedsPrePass() bool { return false }
func (s syntacticSelector) Select(prog *ir.Program, _ *pta.Result, _ *introspect.Metrics, _ bool) (*introspect.Selection, error) {
	return &introspect.Selection{
		Refinement: introspect.SyntacticExclusions(prog, s.opts),
		Heuristic:  "syntactic",
	}, nil
}

// variants maps the introspective-variant suffix of a spec string
// ("IntroA" in "2objH-IntroA") to a Selector factory. The factory
// receives the Job's Thresholds (possibly nil); factories for variants
// without tunable constants ignore it. The table is fixed: a custom
// in-process heuristic goes through Request.Selector instead.
var variants = map[string]func(*Thresholds) Selector{
	"IntroA":    func(t *Thresholds) Selector { return HeuristicSelector(t.heuristicA()) },
	"IntroB":    func(t *Thresholds) Selector { return HeuristicSelector(t.heuristicB()) },
	"syntactic": func(*Thresholds) Selector { return SyntacticSelector(introspect.DefaultSyntactic()) },
}

// Variants returns the introspective-variant names, sorted.
func Variants() []string {
	out := make([]string, 0, len(variants))
	for n := range variants {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// baseSpecs is the curated set of base analysis configurations the
// project exposes by name: the paper's configurations plus the
// cut-shortcut family. ParseSpec accepts more (any depth up to its
// maximum), but these are the names services list, CLIs advertise, and
// the experiments use.
var baseSpecs = []string{
	"insens", "1call", "2callH", "1obj", "2objH", "2typeH", "2hybH", "cs",
}

// RegisteredSpecs returns the canonical spec names, sorted — the
// single source of truth behind `GET /v1/specs`, the CLI help texts,
// and registry diagnostics. Every name round-trips through
// pta.ParseSpec and resolves through NewPipeline.
func RegisteredSpecs() []string {
	out := append([]string(nil), baseSpecs...)
	sort.Strings(out)
	return out
}

// resolveJob interprets a Job (plus an optional caller-supplied
// Selector overriding the variant registry) into the parsed deep spec
// and the Selector to stage, nil for a single-pass analysis. This is
// the single place spec strings are interpreted — CLIs, the examples,
// and cmd/ptad never switch on them.
func resolveJob(job Job, override Selector) (pta.Spec, Selector, error) {
	if job.Workers < 0 || job.Workers > pta.MaxWorkers {
		return pta.Spec{}, nil, &InvalidWorkersError{Workers: job.Workers}
	}
	if job.Taint != nil {
		if err := job.Taint.Validate(); err != nil {
			return pta.Spec{}, nil, &InvalidTaintError{Err: err}
		}
	}
	spec := job.Spec
	var sel Selector
	switch {
	case override != nil:
		if job.Thresholds != nil || job.Syntactic != nil {
			return pta.Spec{}, nil, errors.New("analysis: Request.Selector is mutually exclusive with Job.Thresholds and Job.Syntactic")
		}
		sel = override
	case job.Syntactic != nil:
		if job.Thresholds != nil {
			return pta.Spec{}, nil, errors.New("analysis: Job.Thresholds and Job.Syntactic are mutually exclusive")
		}
		sel = SyntacticSelector(*job.Syntactic)
	default:
		if base, suffix, ok := strings.Cut(spec, "-"); ok {
			f, known := variants[suffix]
			if !known {
				return pta.Spec{}, nil, fmt.Errorf("analysis: unknown introspective variant %q in spec %q (registered: %s)",
					suffix, spec, strings.Join(Variants(), ", "))
			}
			sel = f(job.Thresholds)
			spec = base
		} else if job.Thresholds != nil {
			return pta.Spec{}, nil, fmt.Errorf("analysis: Job.Thresholds requires an introspective spec, got %q", spec)
		}
	}

	ps, err := pta.ParseSpec(spec)
	if err != nil {
		return pta.Spec{}, nil, fmt.Errorf("%w (registered specs: %s)", err, strings.Join(RegisteredSpecs(), ", "))
	}
	if sel != nil && (ps.Flavor == pta.Insensitive || ps.Flavor == pta.CutShortcut) {
		// Introspection refines the contexts of a deep analysis;
		// insensitive and cut-shortcut analyses have no contexts to
		// refine.
		return pta.Spec{}, nil, fmt.Errorf("analysis: introspective deep analysis must be context-sensitive, got %q", spec)
	}
	return ps, sel, nil
}

// NewPipeline resolves a Request to a staged Pipeline: it parses the
// Job's spec, resolves any introspective variant through the registry
// (or the Request's Selector), and assembles the stage list.
func NewPipeline(req *Request) (*Pipeline, error) {
	if (req.Prog == nil) == (req.Source == nil) {
		return nil, errors.New("analysis: exactly one of Request.Prog and Request.Source is required")
	}
	ps, sel, err := resolveJob(req.Job, req.Selector)
	if err != nil {
		return nil, err
	}
	if req.First != nil {
		if err := req.CheckFirst(req.First); err != nil {
			return nil, err
		}
	}

	p := &Pipeline{req: req}
	if req.Source != nil {
		p.stages = append(p.stages, frontendStage(req.Source))
	}
	if req.Job.Taint != nil {
		p.stages = append(p.stages, taintStage(req.Job.Taint))
	}
	if sel == nil {
		p.Name = ps.String()
		p.stages = append(p.stages, mainPassPlain(ps))
	} else {
		p.Name = ps.String() + "-" + sel.Name()
		if sel.NeedsPrePass() {
			if req.First != nil {
				p.stages = append(p.stages, injectPrePassStage(req.First))
			} else {
				p.stages = append(p.stages, prePassStage())
			}
			p.stages = append(p.stages, metricsStage())
		}
		p.stages = append(p.stages, selectionStage(sel), mainPassIntrospective(ps))
	}
	p.stages = append(p.stages, reportStage())
	return p, nil
}

// CheckFirst reports whether first, a stored context-insensitive
// result, may stand in for the pre-pass of req's pipeline (as
// Request.First): nil if it may, else an error naming the condition
// that fails. It is the one rule for pre-pass reuse; NewPipeline
// enforces it, and a service that shares pre-passes across requests
// asks it before injecting one. The conditions:
//
//   - the pipeline has a pre-pass stage;
//   - the job carries no taint spec: the taint stage swaps in an
//     instrumented program, which a stored pre-pass was not solved over;
//   - first is complete;
//   - first records provenance if req does, so witnesses stay
//     reconstructible;
//   - first was solved in req's solve mode (Job.Workers): its Work and
//     Workers feed this run's Stats, so a serial pre-pass must not
//     report for a parallel job, or the reverse.
//
// That first was solved over the very program the run resolves to is
// checked when the pre-pass stage runs, where that program is known.
func (req *Request) CheckFirst(first *pta.Result) error {
	_, sel, err := resolveJob(req.Job, req.Selector)
	workers := effectiveWorkers(req.Job.Workers)
	switch {
	case err != nil:
		return err
	case sel == nil || !sel.NeedsPrePass():
		return fmt.Errorf("analysis: Request.First requires a pipeline with a pre-pass stage, got %q", req.Job.Spec)
	case req.Job.Taint != nil:
		return errors.New("analysis: Request.First is incompatible with Job.Taint (the pre-pass must solve the taint-instrumented program)")
	case !first.Complete:
		return errors.New("analysis: Request.First is an incomplete result")
	case req.Provenance && !first.ProvenanceEnabled():
		return errors.New("analysis: Request.First records no provenance, which this request needs")
	case first.Workers != workers:
		return fmt.Errorf("analysis: Request.First was solved with %d workers, this job uses %d", first.Workers, workers)
	}
	return nil
}
