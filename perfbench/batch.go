package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/checkers"
	"introspect/internal/figures"
	"introspect/internal/report"
	"introspect/internal/suite"
)

// minPasses is the fewest measured passes a batch run makes, so that
// run_s is always a median.
const minPasses = 3

// batchPassSeconds is the nominal length of one batch pass. A run makes
// --seconds/batchPassSeconds passes (at least minPasses): a fixed count,
// so the sample count and the percentile a tail reports never depend on
// how fast the machine was.
const batchPassSeconds = 11

// batchPart is one part of a batch pass: an analysis list run one way.
type batchPart struct {
	name string
	// slots is the fleet's parallelism; 0 runs the analyses one at a
	// time through analysis.Run (the cmd/ptalint path).
	slots int
	// workers is every job's intra-solve parallelism (Job.Workers).
	workers int
	// specs are run on every Figure 5 subject; the insens runs go first
	// and, in a fleet, serve as the introspective runs' pre-pass.
	specs []string
	// lint turns on provenance and runs every checker after each
	// analysis.
	lint bool
	// check compares the part's rows with the references.
	check func(refs *batchRefs, rows []report.Row) []string
}

// batchRefs holds the references a batch pass is checked against.
type batchRefs struct {
	fig5Text string
	fig5     map[string]goldenRow
	bench    benchRecord
}

// batchParts are the parts of every batch pass, in the order a pass
// runs them:
//
//   - fleet: Figure 5 through the bounded fleet (analysis.RunAll) at
//     parallelism nproc, serial solver;
//   - sharded: the same 24 analyses one at a time, each solve sharded
//     over nproc workers, the only part on the sharded solver;
//   - lint: cmd/ptalint's path (provenance on, then every checker) over
//     the six subjects × {insens, 2objH-IntroA}, the only part on the
//     element-wise provenance path and the checkers.
func batchParts(nproc int) []batchPart {
	return []batchPart{{
		name: "fleet", slots: nproc, specs: figures.Variants("2objH"),
		check: func(refs *batchRefs, rows []report.Row) []string {
			var out []string
			if d := diffLines(refs.fig5Text, renderFig5(rows)); d != "" {
				out = append(out, fmt.Sprintf("Figure 5 differs from %s: %s", fig5Golden, d))
			}
			work, cderivs, timeouts := rowTotals(rows)
			if work != refs.bench.work {
				out = append(out, fmt.Sprintf("Fig5 work %d, %s records %d", work, refs.bench.file, refs.bench.work))
			}
			if cderivs != refs.bench.cderivs || timeouts != refs.bench.timeouts {
				out = append(out, fmt.Sprintf("Fig5 cderivs/timeouts %d/%d, %s records %d/%d",
					cderivs, timeouts, refs.bench.file, refs.bench.cderivs, refs.bench.timeouts))
			}
			return out
		},
	}, {
		name: "sharded", slots: 1, workers: max(2, nproc), specs: figures.Variants("2objH"),
		check: func(refs *batchRefs, rows []report.Row) []string {
			// The sharded solver charges work in its own schedule, so
			// work(K) is the one column it may change.
			out := compareRows(refs.fig5, rows, colPoly, colReach, colCast)
			_, cderivs, timeouts := rowTotals(rows)
			if cderivs != refs.bench.cderivs || timeouts != refs.bench.timeouts {
				out = append(out, fmt.Sprintf("sharded cderivs/timeouts %d/%d, serial (%s) %d/%d",
					cderivs, timeouts, refs.bench.file, refs.bench.cderivs, refs.bench.timeouts))
			}
			return out
		},
	}, {
		name: "lint", specs: []string{"insens", "2objH-IntroA"}, lint: true,
		check: func(refs *batchRefs, rows []report.Row) []string {
			// Provenance must not change the solve.
			return compareRows(refs.fig5, rows, colWork, colPoly, colReach, colCast)
		},
	}}
}

func compareRows(ref map[string]goldenRow, rows []report.Row, cols ...column) []string {
	var out []string
	for _, r := range rows {
		want, ok := ref[r.Benchmark+" "+r.Analysis]
		if !ok {
			out = append(out, fmt.Sprintf("%s %s: no reference row", r.Benchmark, r.Analysis))
			continue
		}
		out = append(out, compareRow(want, rowOf(r), cols...)...)
	}
	return out
}

// rowTotals sums main-pass work over all rows, derivations over the
// completed rows, and counts the timed-out rows: the figures bench.sh
// records for Fig5.
func rowTotals(rows []report.Row) (work, cderivs int64, timeouts int) {
	for _, r := range rows {
		work += r.Work
		if r.TimedOut {
			timeouts++
		} else {
			cderivs += r.Derivations
		}
	}
	return
}

// batchJob is one analysis of a pass.
type batchJob struct {
	bench, spec string
	injected    bool // pre-pass result shared from the insens run
	obs         *runObserver
	res         *analysis.Result // dropped by settle
	sum         summary
	err         error
	start, end  time.Time // the analysis span
	checkStart  time.Time // lint only: when the checkers started
	diags       int
}

func (j *batchJob) wall() time.Duration { return j.end.Sub(j.start) }

// summary is what a pass keeps of a finished analysis. The result
// itself is dropped, so that passes do not accumulate solver state.
type summary struct {
	row                    report.Row
	stages                 []analysis.Stats
	complete               bool
	refinedNum, refinedDen int
	provFacts              int
}

func (j *batchJob) settle() {
	if j.err == nil {
		r := j.res
		j.sum = summary{row: report.Row{Benchmark: j.bench, Precision: *r.Precision}, stages: r.Stages,
			complete: r.Main.Complete}
		if s := r.Selection; s != nil {
			j.sum.refinedNum = s.TotalInvos - s.ExcludedInvos + s.TotalHeaps - s.ExcludedHeaps
			j.sum.refinedDen = s.TotalInvos + s.TotalHeaps
		}
		if r.Main.ProvenanceEnabled() {
			j.sum.provFacts = r.Main.NumProvenanceFacts()
		}
	}
	j.res = nil
}

// partRun is one part of one pass.
type partRun struct {
	part *batchPart
	wall time.Duration
	jobs []*batchJob
	rows []report.Row
}

// batchPass is one pass over every part's analysis list.
type batchPass struct {
	traced bool
	cost   passCost
	parts  []*partRun
}

// jobs returns every analysis of the pass, part by part.
func (p *batchPass) jobs() []*batchJob {
	var out []*batchJob
	for _, pr := range p.parts {
		out = append(out, pr.jobs...)
	}
	return out
}

// runBatch runs set-up, then the passes (traced runs alternate
// untraced and traced passes), checks every pass and turns the passes
// into metrics.
func runBatch(e env) (*result, error) {
	refs, err := loadBatchRefs(e.root)
	if err != nil {
		return nil, err
	}
	res := newResult()
	parts := batchParts(e.nproc)

	// Set-up is repeated before every pass, so that its median spans the
	// whole run rather than its first second.
	setups := []float64{batchSetup(true)}
	rec := newRecorder()
	var passes []*batchPass
	n := max(minPasses, int(e.seconds/batchPassSeconds))
	for k := 0; k < n; k++ {
		setups = append(setups, batchSetup(false))
		traced := e.trace && k%2 == 1
		p := runBatchPass(parts, e.seed+int64(k), traced)
		passes = append(passes, p)
		if traced {
			recordSpans(rec, p, k)
		}
	}
	res.e2e["setup_s"] = value{v: median(setups), n: len(setups), note: "median of program generation rounds, one before each pass"}
	if e.trace {
		if err := rec.write(e.scratchFile("batch", "spans") + ".json"); err != nil {
			return nil, err
		}
	}

	for k, p := range passes {
		for _, pr := range p.parts {
			res.attempted += len(pr.jobs)
			bad := map[string]bool{}
			for _, j := range pr.jobs {
				if j.err != nil {
					bad[j.bench+" "+j.spec] = true
					res.problem("pass %d %s: %s %s: %v", k, pr.part.name, j.bench, j.spec, j.err)
				}
			}
			for _, msg := range pr.part.check(refs, pr.rows) {
				res.problem("pass %d %s: %s", k, pr.part.name, msg)
				// A row message starts with "<bench> <analysis>:"; any other
				// message is about the whole figure and fails every analysis
				// of the part.
				key, _, _ := strings.Cut(msg, ":")
				if _, isRow := refs.fig5[key]; isRow {
					bad[key] = true
				} else {
					for _, j := range pr.jobs {
						bad[j.bench+" "+j.spec] = true
					}
				}
			}
			res.failed += len(bad)
		}
	}
	for i, part := range parts {
		var walls []string
		for _, p := range passes {
			walls = append(walls, fmt.Sprintf("%.3f", p.parts[i].wall.Seconds()))
		}
		res.note("%s part walls (s): %s", part.name, strings.Join(walls, " "))
	}
	var walls []string
	for _, p := range passes {
		walls = append(walls, fmt.Sprintf("%.3f", p.cost.wall.Seconds()))
	}
	res.note("pass walls (s): %s", strings.Join(walls, " "))
	checkDeterminism(res, passes, e.seed)
	batchEndToEnd(res, passes)
	if e.trace {
		batchPerLayer(res, refs, passes, rec.all())
	}
	return res, nil
}

func loadBatchRefs(root string) (*batchRefs, error) {
	text, err := readRef(root, fig5Golden)
	if err != nil {
		return nil, err
	}
	rec, err := loadBenchRecord(root)
	if err != nil {
		return nil, err
	}
	return &batchRefs{fig5Text: text, fig5: parseTable(text), bench: rec}, nil
}

// batchSetup generates the Figure 5 subjects and returns how long it
// took in seconds. The first round goes through suite.Load, which keeps
// the programs the passes analyse; later rounds build them anew.
func batchSetup(first bool) float64 {
	t0 := time.Now()
	for _, b := range suite.ExperimentalSubjects() {
		if first {
			suite.MustLoad(b)
		} else {
			suite.Profiles()[b].Build()
		}
	}
	return time.Since(t0).Seconds()
}

// runBatchPass runs every part once, in order. orderSeed shuffles the
// order in which each part submits its analyses; results must not
// depend on it.
func runBatchPass(parts []batchPart, orderSeed int64, traced bool) *batchPass {
	p := &batchPass{traced: traced}
	m := startMeter()
	for i := range parts {
		t0 := time.Now()
		pr := runBatchPart(&parts[i], orderSeed, traced)
		pr.wall = time.Since(t0)
		p.parts = append(p.parts, pr)
	}
	p.cost = m.finish()
	return p
}

// runBatchPart runs one part's analysis list and keeps its rows.
func runBatchPart(w *batchPart, orderSeed int64, traced bool) *partRun {
	rng := rand.New(rand.NewSource(orderSeed))
	lim := analysis.Limits{Budget: figures.DefaultBudget}
	subjects := suite.ExperimentalSubjects()
	newJob := func(bench, spec string) *batchJob {
		return &batchJob{bench: bench, spec: spec, obs: &runObserver{traced: traced}}
	}
	request := func(j *batchJob) analysis.Request {
		return analysis.Request{
			Source:     &analysis.Source{Bench: j.bench},
			Job:        analysis.Job{Spec: j.spec, Workers: w.workers},
			Limits:     lim,
			Provenance: w.lint,
			Observer:   j.obs,
			Audit:      traced,
		}
	}
	p := &partRun{part: w}
	if w.slots == 0 {
		for _, b := range subjects {
			for _, s := range w.specs {
				p.jobs = append(p.jobs, newJob(b, s))
			}
		}
		rng.Shuffle(len(p.jobs), func(a, b int) { p.jobs[a], p.jobs[b] = p.jobs[b], p.jobs[a] })
		for _, j := range p.jobs {
			j.start = time.Now()
			j.res, j.err = analysis.Run(context.Background(), request(j))
			j.err = reportable(j.res, j.err)
			if w.lint && j.err == nil {
				j.checkStart = time.Now()
				t := &checkers.Target{Prog: j.res.Prog, Res: j.res.Main, Baseline: j.res.First, Taint: j.res.TaintInfo}
				j.diags = len(checkers.Run(t, checkers.All()))
			}
			j.end = time.Now()
			j.settle()
		}
	} else {
		// Figure 5's fleet shape: the insens runs first, then the
		// introspective runs on their shared pre-pass and the full
		// deep runs.
		first := make([]*batchJob, len(subjects))
		for i, b := range subjects {
			first[i] = newJob(b, "insens")
		}
		rng.Shuffle(len(first), func(a, b int) { first[a], first[b] = first[b], first[a] })
		runFleet(first, request, w.slots)
		var rest []*batchJob
		var reqs []analysis.Request
		for _, f := range first {
			for _, s := range w.specs[1:] {
				j := newJob(f.bench, s)
				rq := request(j)
				if rq.Job.NeedsPrePass() && f.err == nil && f.res.Main.Complete {
					rq.First = f.res.Main
					j.injected = true
				}
				rest = append(rest, j)
				reqs = append(reqs, rq)
			}
		}
		perm := rng.Perm(len(rest))
		shuffledJobs := make([]*batchJob, len(rest))
		shuffledReqs := make([]analysis.Request, len(rest))
		for i, k := range perm {
			shuffledJobs[i], shuffledReqs[i] = rest[k], reqs[k]
		}
		runFleetReqs(shuffledJobs, shuffledReqs, w.slots)
		p.jobs = append(first, shuffledJobs...)
	}
	for _, j := range p.jobs {
		if j.res != nil {
			j.settle()
		}
		if j.err == nil {
			p.rows = append(p.rows, j.sum.row)
		}
	}
	return p
}

func runFleet(jobs []*batchJob, request func(*batchJob) analysis.Request, slots int) {
	reqs := make([]analysis.Request, len(jobs))
	for i, j := range jobs {
		reqs[i] = request(j)
	}
	runFleetReqs(jobs, reqs, slots)
}

// runFleetReqs submits the requests to the bounded fleet. An analysis
// span runs from its first stage start to its last stage finish, as the
// job's observer saw them.
func runFleetReqs(jobs []*batchJob, reqs []analysis.Request, slots int) {
	for i, rr := range analysis.RunAll(context.Background(), reqs, slots) {
		j := jobs[i]
		j.res, j.err = rr.Result, reportable(rr.Result, rr.Err)
		j.start, j.end = j.obs.start, j.obs.end
	}
}

// reportable applies the figures' error policy: a budget-exhausted
// main pass with a measured result is a TIMEOUT row, not a failure.
func reportable(res *analysis.Result, err error) error {
	if err == nil {
		return nil
	}
	var be *analysis.BudgetExceededError
	if errors.As(err, &be) && res != nil && res.Precision != nil {
		return nil
	}
	return err
}

// passCounts sums the deterministic counters of a pass: solver counters
// over every pass that actually solved (an injected pre-pass did not),
// decided analyses, and the lint counts.
func passCounts(p *batchPass) map[string]float64 {
	c := map[string]float64{}
	refinedNum, refinedDen := 0.0, 0.0
	for _, j := range p.jobs() {
		if j.err != nil {
			continue
		}
		for _, st := range j.sum.stages {
			if st.Stage == analysis.StageMainPass || (st.Stage == analysis.StagePrePass && !j.injected) {
				addSolverStats(c, st)
			}
		}
		if j.sum.complete {
			c["decided"]++
		}
		refinedNum += float64(j.sum.refinedNum)
		refinedDen += float64(j.sum.refinedDen)
		c["pta.provenance_facts"] += float64(j.sum.provFacts)
		c["checkers.diagnostics"] += float64(j.diags)
		if p.traced {
			c["introspect.decisions"] += float64(j.obs.decisions)
		}
	}
	if refinedDen > 0 {
		c["introspect.refined_frac"] = refinedNum / refinedDen
	}
	return c
}

// addSolverStats adds one solver pass's deterministic counters to c.
func addSolverStats(c map[string]float64, st analysis.Stats) {
	c["pta.work"] += float64(st.Work)
	c["pta.derivations"] += float64(st.Derivations)
	c["pta.propagations"] += float64(st.Propagations)
	c["pta.nodes"] += float64(st.Nodes)
	c["pta.edges"] += float64(st.Edges)
	c["pta.contexts"] += float64(st.Contexts)
	c["pta.method_contexts"] += float64(st.MethodContexts)
	c["pta.heap_contexts"] += float64(st.HeapContexts)
	if st.BudgetExceeded {
		c["pta.budget_exhausted"]++
	}
}

// checkDeterminism compares the deterministic counters of every pass.
// Each pass submits in the order of its own seed (the run's seed plus
// the pass index), so pass 1 replays the order of the next seed: equal
// counts show the results do not depend on the order.
func checkDeterminism(res *result, passes []*batchPass, seed int64) {
	base := passCounts(passes[0])
	var baseTraced map[string]float64
	for k, p := range passes {
		c := passCounts(p)
		if p.traced && baseTraced == nil {
			baseTraced = c
		}
		for name, v := range base {
			if c[name] != v {
				res.problem("pass %d (order seed %d): %s %g, pass 0 (order seed %d) %g", k, seed+int64(k), name, c[name], seed, v)
			}
		}
		if p.traced {
			if d := c["introspect.decisions"]; d != baseTraced["introspect.decisions"] {
				res.problem("pass %d: introspect.decisions %g, first traced pass %g", k, d, baseTraced["introspect.decisions"])
			}
		}
	}
	res.note("determinism: %d passes in order seeds %d..%d, traced and untraced, give identical counts (pta.work %.0f, pta.derivations %.0f, decided %.0f)",
		len(passes), seed, seed+int64(len(passes)-1), base["pta.work"], base["pta.derivations"], base["decided"])
}

// batchEndToEnd fills the end-to-end metrics from the untraced passes.
func batchEndToEnd(res *result, passes []*batchPass) {
	var walls, cpus, heaps, goodput []float64
	perAnalysis := map[string][]float64{} // part, subject and spec → walls in ms
	decided, attempted := 0, 0
	for _, p := range passes {
		if p.traced {
			continue
		}
		walls = append(walls, p.cost.wall.Seconds())
		cpus = append(cpus, p.cost.cpu.Seconds())
		heaps = append(heaps, p.cost.peakHeapMB)
		d := 0
		for _, pr := range p.parts {
			for _, j := range pr.jobs {
				attempted++
				key := pr.part.name + " " + j.bench + " " + j.spec
				perAnalysis[key] = append(perAnalysis[key], float64(j.wall())/1e6)
				if j.err == nil && j.sum.complete {
					d++
				}
			}
		}
		decided += d
		goodput = append(goodput, float64(d)/p.cost.wall.Seconds())
	}
	n := len(walls)
	res.e2e["run_s"] = value{v: median(walls), n: n, note: "median pass wall"}
	res.e2e["cpu_s"] = value{v: median(cpus), n: n, note: "median pass CPU, user+sys"}
	res.e2e["peak_heap_mb"] = value{v: median(heaps), n: n, note: "median of per-pass peak"}
	res.e2e["decided_frac"] = value{v: float64(decided) / float64(attempted), n: attempted, note: "analyses within budget"}
	// An analysis's wall in the fleet depends on which analysis the
	// pass's order ran beside it, and the analyses' costs form clusters
	// with wide gaps, so percentiles of the pooled walls jump between
	// clusters from run to run. Each analysis's median wall over the
	// passes keeps its rank; the percentiles are taken over those.
	var typical []float64
	for _, xs := range perAnalysis {
		typical = append(typical, median(xs))
	}
	note := fmt.Sprintf("over the %d analyses' median walls across %d passes", len(typical), n)
	res.e2e["p50_ms"] = value{v: median(typical), n: attempted, note: "median " + note}
	label, t := tail(typical)
	res.e2e["tail_ms"] = value{v: t, n: attempted, note: label + " " + note}
	res.e2e["goodput_rps"] = value{v: median(goodput), n: n, note: "decided analyses per second of pass"}
}

// recordSpans stores a traced pass's spans: one root per analysis, a
// child per stage and, for lint, one for the checkers.
func recordSpans(rec *recorder, p *batchPass, pass int) {
	for i, j := range p.jobs() {
		run := pass*1000 + i + 1
		root := rec.add("analysis "+j.bench+" "+j.spec, 0, run, j.start, j.end)
		for _, s := range j.obs.stages {
			rec.add(s.name, root, run, s.start, s.end)
		}
		if !j.checkStart.IsZero() {
			rec.add("checkers", root, run, j.checkStart, j.end)
		}
	}
}

// batchPerLayer fills the per-layer metrics from the traced passes
// (medians over them for timings) and their spans, and the overhead of
// tracing.
func batchPerLayer(res *result, refs *batchRefs, passes []*batchPass, spans []span) {
	series := map[string][]float64{}
	var untracedWalls, tracedWalls []float64
	var counts map[string]float64
	for _, p := range passes {
		if !p.traced {
			untracedWalls = append(untracedWalls, p.cost.wall.Seconds())
			continue
		}
		tracedWalls = append(tracedWalls, p.cost.wall.Seconds())
		if counts == nil {
			counts = passCounts(p)
		}
		stageMS, stageMB := map[string]float64{}, map[string]float64{}
		var solveMS float64
		var checkMS float64
		for _, j := range p.jobs() {
			for _, s := range j.obs.stages {
				ms := float64(s.end.Sub(s.start)) / 1e6
				stageMS[s.name] += ms
				stageMB[s.name] += float64(s.alloc) / (1 << 20)
				if s.name == analysis.StageMainPass || (s.name == analysis.StagePrePass && !j.injected) {
					solveMS += ms
				}
			}
			if !j.checkStart.IsZero() {
				checkMS += float64(j.end.Sub(j.checkStart)) / 1e6
			}
		}
		for _, s := range pipelineStages {
			series["stage."+s+".ms"] = append(series["stage."+s+".ms"], stageMS[s])
			series["stage."+s+".alloc_mb"] = append(series["stage."+s+".alloc_mb"], stageMB[s])
		}
		series["pta.work_per_ms"] = append(series["pta.work_per_ms"], passCounts(p)["pta.work"]/solveMS)
		series["checkers.ms"] = append(series["checkers.ms"], checkMS)
		series["go.alloc_mb"] = append(series["go.alloc_mb"], p.cost.allocMB)
		series["go.gc_cycles"] = append(series["go.gc_cycles"], float64(p.cost.gcCycles))
		series["go.gc_pause_ms"] = append(series["go.gc_pause_ms"], p.cost.gcPauseMS)
		for _, pr := range p.parts {
			series[pr.part.name+".pass_s"] = append(series[pr.part.name+".pass_s"], pr.wall.Seconds())
			if pr.part.slots > 1 {
				var busy float64
				for _, j := range pr.jobs {
					busy += j.wall().Seconds()
				}
				series["fleet.idle_frac"] = append(series["fleet.idle_frac"], 1-busy/(float64(pr.part.slots)*pr.wall.Seconds()))
			}
		}
	}
	for name, xs := range series {
		res.layer[name] = value{v: median(xs), n: len(xs), note: "median over traced passes"}
	}
	for _, name := range []string{"pta.work", "pta.derivations", "pta.propagations", "pta.nodes", "pta.edges",
		"pta.contexts", "pta.method_contexts", "pta.heap_contexts", "pta.budget_exhausted",
		"introspect.decisions", "introspect.refined_frac", "pta.provenance_facts", "checkers.diagnostics"} {
		res.layer[name] = value{v: counts[name], n: 1, note: "per pass, deterministic"}
	}
	for _, pr := range passes[0].parts {
		if pr.part.workers <= 1 {
			continue
		}
		var sharded, serial float64
		for _, r := range pr.rows {
			if g, ok := refs.fig5[r.Benchmark+" "+r.Analysis]; ok && !g.timedOut() && !r.TimedOut {
				var k float64
				fmt.Sscan(g.workK, &k)
				serial += k
				sharded += float64(r.Work / 1000)
			}
		}
		res.layer["pta.sharded.work_ratio"] = value{v: sharded / serial, n: 1, note: "sharded part's completed rows, work(K) over fig5.golden"}
	}
	// An analysis span's self time is what its stage (and checker)
	// spans leave uncovered.
	self := selfTimes(spans)
	coverage := 1.0
	for _, s := range spans {
		if s.Parent == 0 && s.dur() > 0 {
			coverage = min(coverage, 1-float64(self[s.ID])/float64(s.dur()))
		}
	}
	overhead := median(tracedWalls)/median(untracedWalls) - 1
	res.layer["trace.overhead_frac"] = value{v: overhead, n: len(tracedWalls) + len(untracedWalls),
		note: fmt.Sprintf("traced x%.3f untraced run_s; bench.sh limit x1.25", 1+overhead)}
	res.layer["trace.stage_coverage"] = value{v: coverage, n: len(spans), note: "lowest share of an analysis span its stage spans cover"}
	if coverage < 0.9 {
		res.problem("stage spans cover only %.1f%% of an analysis span (want >= 90%%)", 100*coverage)
	}
}
