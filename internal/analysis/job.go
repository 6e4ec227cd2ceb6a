package analysis

import (
	"encoding/json"
	"fmt"

	"introspect/internal/introspect"
	"introspect/internal/taint"
)

// Job is the serializable half of a Request: it describes WHAT
// analysis to run, with every knob expressible as plain data. A Job
// round-trips through JSON unchanged, which makes it the wire type of
// cmd/ptad's POST /v1/analyze and the input half of internal/service's
// content-addressed cache key — two Jobs with equal canonical
// encodings request the same computation.
//
// Job replaces the old Request.Spec / Request.Heuristic /
// Request.Syntactic triple, whose interface-valued fields could not
// cross a process boundary. Custom in-process heuristics (arbitrary
// introspect.Heuristic implementations) go through Request.Selector
// instead.
type Job struct {
	// Spec names the analysis: "insens", "2objH", "1call", ... for a
	// single pass, or "<deep>-<variant>" ("2objH-IntroA",
	// "2callH-IntroB", "2objH-syntactic") for an introspective
	// pipeline. Variants resolve through a fixed table (see
	// Variants).
	Spec string `json:"spec"`

	// Thresholds, if non-nil, overrides the heuristic constants of the
	// introspective variant named in Spec: IntroA reads K/L/M, IntroB
	// reads P/Q, zero fields keep the paper's defaults. Requires a
	// variant suffix in Spec.
	Thresholds *Thresholds `json:"thresholds,omitempty"`

	// Syntactic, if non-nil, requests the traditional
	// syntactic-exclusions baseline (no pre-pass) with these options;
	// Spec must then name the deep analysis with no variant suffix.
	// (The suffix spelling "2objH-syntactic" keeps selecting the
	// default options.)
	Syntactic *introspect.SyntacticOptions `json:"syntactic,omitempty"`

	// Workers selects intra-solve parallelism for every solver pass of
	// the pipeline: 0 or 1 run the serial solver, 2..pta.MaxWorkers
	// run the sharded parallel solver with that many shard goroutines
	// per solve (pta.Options.Workers). Points-to results and the
	// schedule-independent Derivations/Propagations counters are
	// identical at any setting; the operational Work counter follows
	// the setting's schedule, which is one reason Workers is part of
	// the canonical encoding (the other: a service must not serve a
	// serial-keyed cache entry's Work numbers for a parallel request).
	// Values outside [0, pta.MaxWorkers] are rejected by Validate with
	// an *InvalidWorkersError. Parallel workers are incompatible with
	// provenance recording: cross-shard merges combine facts from many
	// source nodes, so they cannot record a fact's first derivation.
	Workers int `json:"workers,omitempty"`

	// Taint, if non-nil, runs the job as a unified taint analysis
	// (internal/taint): the pipeline gains a taint-inject stage that
	// derives a taint-instrumented copy of the program per this spec,
	// and the solve — under whatever context policy Spec names — then
	// propagates taint objects like any other heap objects. The spec is
	// plain data and part of the canonical encoding: two jobs differing
	// only in taint configuration are different cache entries, because
	// they analyze different (derived) programs. Malformed specs are
	// rejected by Validate with an *InvalidTaintError. Incompatible
	// with Request.First: an injected pre-pass was solved over the
	// uninstrumented program.
	Taint *taint.Spec `json:"taint,omitempty"`
}

// Canonical returns the Job's canonical JSON encoding, the form
// internal/service hashes into its cache key. Go's encoding/json
// serializes struct fields in declaration order, so equal Jobs yield
// equal bytes.
func (j Job) Canonical() ([]byte, error) { return json.Marshal(j) }

// Thresholds carries the introspective heuristics' threshold
// constants in serializable form — the paper's precision/scalability
// "dial" as plain data. Zero values mean "paper default", so the empty
// struct is equivalent to a nil *Thresholds.
type Thresholds struct {
	// K, L, M are Heuristic A's constants: exclude allocation sites
	// with pointed-by-vars > K, call sites with in-flow > L, methods
	// with max var-field points-to > M. Defaults: 100, 100, 200.
	K int `json:"k,omitempty"`
	L int `json:"l,omitempty"`
	M int `json:"m,omitempty"`
	// P, Q are Heuristic B's constants: exclude methods with total
	// points-to volume > P, allocation sites with total field
	// points-to × pointed-by-vars > Q. Defaults: 10000, 10000.
	P int `json:"p,omitempty"`
	Q int `json:"q,omitempty"`
}

// heuristicA materializes Heuristic A from t, nil or zero fields
// defaulting to the paper's constants.
func (t *Thresholds) heuristicA() introspect.HeuristicA {
	h := introspect.DefaultA()
	if t == nil {
		return h
	}
	if t.K > 0 {
		h.K = t.K
	}
	if t.L > 0 {
		h.L = t.L
	}
	if t.M > 0 {
		h.M = t.M
	}
	return h
}

// heuristicB materializes Heuristic B from t, nil or zero fields
// defaulting to the paper's constants.
func (t *Thresholds) heuristicB() introspect.HeuristicB {
	h := introspect.DefaultB()
	if t == nil {
		return h
	}
	if t.P > 0 {
		h.P = t.P
	}
	if t.Q > 0 {
		h.Q = t.Q
	}
	return h
}

// NeedsPrePass reports whether the job's pipeline includes a
// context-insensitive pre-pass stage — i.e. whether Request.First
// injection applies to it. False for single-pass jobs, syntactic
// baselines, and jobs that do not resolve at all.
func (j Job) NeedsPrePass() bool {
	_, sel, err := resolveJob(j, nil)
	return err == nil && sel != nil && sel.NeedsPrePass()
}

// Validate reports whether the Job resolves to a pipeline, without
// needing a program. It is the request-validation entry point for
// servers that want to reject malformed jobs before admitting them to
// a worker.
func (j Job) Validate() error {
	if j.Spec == "" {
		return fmt.Errorf("analysis: Job.Spec is required")
	}
	_, _, err := resolveJob(j, nil)
	return err
}

// effectiveWorkers normalizes a Job.Workers value to the solver's
// effective parallelism (what pta.Result.Workers reports): 1 for any
// serial setting, the value itself above that.
func effectiveWorkers(w int) int {
	if w < 1 {
		return 1
	}
	return w
}
