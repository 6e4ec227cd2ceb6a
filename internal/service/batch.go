package service

import (
	"context"
	"sync"

	"introspect/internal/analysis"
	ptav1 "introspect/pta/v1"
)

// MaxBatchJobs caps one batch request. Large sweeps split into
// multiple batches; the program cache makes the split free (the
// frontend still runs once).
const MaxBatchJobs = 256

// BatchRequest and BatchResponse are the public wire shapes, aliased
// like Request.
type (
	BatchRequest  = ptav1.BatchRequest
	BatchResponse = ptav1.BatchResponse
)

// Batch runs many jobs over one program: POST /v1/batch's engine. The
// point is amortization — the frontend parses the source once (the
// program cache shares the pointer), and the insensitive pre-pass that
// introspective jobs need is solved once and injected into the rest —
// so a nine-job batch over a big program pays for one parse and one
// pre-pass, not nine of each.
//
// Per-job failures are per-item: an invalid spec or an exhausted
// deadline marks its own Results slot with a typed code and leaves the
// others alone. Batch itself fails only when the batch cannot be
// interpreted at all (no jobs, too many jobs, no source).
//
// Concurrency: jobs fan out through Analyze on a semaphore of
// Config.Workers, below the admission ceiling, so a batch never trips
// the service's own 429 — batches queue politely inside their request
// instead of shedding their own jobs.
func (s *Service) Batch(ctx context.Context, req BatchRequest) (*BatchResponse, *Error) {
	if len(req.Jobs) == 0 {
		s.metrics.add(&s.metrics.c.Rejected.Invalid)
		return nil, errf(CodeBadRequest, "batch has no jobs")
	}
	if len(req.Jobs) > MaxBatchJobs {
		s.metrics.add(&s.metrics.c.Rejected.Invalid)
		return nil, errf(CodeBadRequest, "batch has %d jobs, limit %d", len(req.Jobs), MaxBatchJobs)
	}
	if req.Source == "" {
		s.metrics.add(&s.metrics.c.Rejected.Invalid)
		return nil, errf(CodeBadRequest, "source is required")
	}
	s.metrics.mu.Lock()
	s.metrics.c.Batches++
	s.metrics.c.BatchJobs += uint64(len(req.Jobs))
	s.metrics.mu.Unlock()

	jobReq := func(job analysis.Job) Request {
		return Request{
			Lang: req.Lang, Name: req.Name, Source: req.Source,
			Job: job, Budget: req.Budget, DeadlineMS: req.DeadlineMS,
			Provenance: req.Provenance,
		}
	}
	results := make([]ptav1.BatchItem, len(req.Jobs))
	runOne := func(i int) {
		doc, serr := s.Analyze(ctx, jobReq(req.Jobs[i]))
		item := ptav1.BatchItem{Spec: req.Jobs[i].Spec}
		if serr != nil {
			item.Code, item.Error = serr.Code, serr.Message
		} else {
			item.Result = doc
		}
		results[i] = item
	}

	// Warm phase: run one pre-pass-producing job to completion before
	// the fan-out, so every later job finds the shared insensitive
	// result already cached instead of racing to solve its own. An
	// explicit "insens" job is the cheapest producer; failing that, the
	// first introspective job doubles as the warmer (its pre-pass is
	// the shared one). Taint jobs never share (they solve an
	// instrumented program), so they cannot warm.
	warm := -1
	for i, job := range req.Jobs {
		if job.Taint != nil {
			continue
		}
		if job.Spec == "insens" {
			warm = i
			break
		}
		if warm < 0 && job.NeedsPrePass() {
			warm = i
		}
	}
	if warm >= 0 {
		runOne(warm)
	}

	sem := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	for i := range req.Jobs {
		if i == warm {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			runOne(i)
		}(i)
	}
	wg.Wait()

	name := req.Name
	if name == "" {
		name = "program"
	}
	return &BatchResponse{
		Schema:  ptav1.Schema,
		Program: name,
		Jobs:    len(req.Jobs),
		Results: results,
	}, nil
}
