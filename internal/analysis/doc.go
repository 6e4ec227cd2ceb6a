// Package analysis is the instrumented pipeline layer every consumer
// of the points-to engine goes through: one API boundary between
// "what to analyze" (a Request) and "how it runs" (a staged,
// cancellable, observable Pipeline).
//
// # Stage model
//
// A Pipeline executes named stages over a shared Result:
//
//	frontend    resolve a Source (suite benchmark, .mj/.ir file, or
//	            inline Mini-Java) to an ir.Program; skipped when the
//	            Request supplies the program directly
//	pre-pass    the context-insensitive solver pass whose results feed
//	            the introspection metrics
//	metrics     the paper's six cost metrics over the pre-pass
//	selection   a Selector (Heuristic A/B, a custom heuristic, or the
//	            traditional syntactic exclusions) chooses the
//	            refinement-exclusion sets
//	main-pass   the solver pass that produces the reported result —
//	            introspective (deep context everywhere except the
//	            selection) or plain
//	report      precision measurement (report.Measure)
//
// A single-pass analysis ("insens", "2objH", ...) is the degenerate
// pipeline frontend? -> main-pass -> report. An introspective analysis
// ("2objH-IntroA") runs all stages; the syntactic baseline
// ("2objH-syntactic") skips pre-pass and metrics, which is exactly the
// paper's point about syntactic heuristics. Spec strings resolve
// through one table of variants (Variants), so CLIs do not switch on
// analysis names.
//
// # Jobs
//
// What to run is a Job: a spec string plus optional serializable
// overrides (threshold constants for Heuristic A/B, or explicit
// syntactic-exclusion options). A Job round-trips through JSON, which
// is what makes the analysis service (cmd/ptad) possible — the Job's
// canonical encoding is part of the content-addressed result-cache
// key, so two requests resolve to the same cached result exactly when
// they would run the same analysis. In-process callers that need a
// custom introspect.Heuristic implementation (which cannot serialize)
// set Request.Selector instead; such requests bypass Job resolution
// and are not expressible over the wire.
//
// # Cancellation and budgets
//
// Execute threads its context into every solver pass; the worklist
// loop polls it every few hundred iterations, so cancellation and
// context deadlines stop a run promptly, returning an error wrapping
// ctx.Err(). The deterministic work budget (Limits.Budget) surfaces as
// a *BudgetExceededError naming the exhausted stage; the Result
// returned alongside it still carries the partial artifacts (a
// budget-exhausted pre-pass populates Result.First, an exhausted main
// pass still gets its report stage — the paper's "did not terminate"
// rows render from exactly that).
//
// # Observability
//
// Every stage produces a Stats record (wall time, derivations,
// propagations, constraint-graph size, call-graph edges, contexts
// created, peak points-to set size, ...) collected on the Result; an
// optional Observer receives stage start/finish callbacks and periodic
// solver progress. Stats marshals to stable JSON (cmd/pta -json).
//
// # Migration from the deleted direct entry points
//
//	old                                           new
//	----------------------------------------------------------------------
//	pta.Analyze(prog, "2objH", opts)              Run(ctx, Request{Prog: prog,
//	                                                  Job: Job{Spec: "2objH"},
//	                                                  Limits: Limits{Budget: opts.Budget}})
//	pta.Solve(prog, pol, tab, opts)               still available to the engine layer itself,
//	                                              now pta.Solve(ctx, prog, pol, tab, opts)
//	introspect.Run(prog, "2objH", h, opts)        Run(ctx, Request{Prog: prog,
//	                                                  Job: Job{Spec: "2objH-IntroA"}, ...})
//	                                              or, for a custom Heuristic h,
//	                                                  Request{..., Job: Job{Spec: "2objH"},
//	                                                  Selector: HeuristicSelector(h)}
//	  .First / .Selection / .Second               Result.First / Result.Selection / Result.Main
//	introspect.RunSyntactic(prog, deep, so, o)    Run(ctx, Request{Prog: prog,
//	                                                  Job: Job{Spec: deep, Syntactic: &so}, ...})
//	pta.Options{Budget: b, Deadline: d}           Limits{Budget: b} + context.WithTimeout(ctx, d)
//	res.TimedOut                                  errors.As(err, &*BudgetExceededError) /
//	                                              !res.Main.Complete
//
// The old "insensitive pass exhausted its budget" string error became
// the typed *BudgetExceededError with Result.First still populated.
package analysis
