// Command perfbench is the repository's benchmark. It drives each layer
// of the analysis stack through its public functions, on two
// workloads, and reports end-to-end metrics (untraced runs) or
// per-layer metrics (traced runs), checking every output against the
// repository's goldens.
//
//	bash perfbench/run.sh --workload batch --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh --workload all --seed 7 --seconds 45 --trace 1
//
// Run from the repository root. Every metric is printed by name with
// its unit and sample count; the last line of standard output is one
// JSON object {"correct","attempted","failed","metrics"}. The command
// exits non-zero when any output differs from its reference.
//
// The workloads and why each exists:
//
//   - batch: passes of three parts, each of which is the only one on
//     some layer. fleet is the paper's Figure 5 through the bounded
//     fleet (analysis.RunAll) at parallelism nproc, serial solver:
//     word-kernel propagation, the pre-pass, the metrics stage and three
//     budget-capped runs. sharded is the same 24 analyses one at a
//     time, each solve sharded over nproc workers: the sharded solver.
//     lint is cmd/ptalint's path (analysis.Run with provenance, then
//     every checker) over the six subjects × {insens, 2objH-IntroA}: the
//     element-wise provenance path and the checkers. The per-layer
//     <part>.pass_s metrics tell the parts apart.
//   - ptad-open: open-loop HTTP traffic against an in-process service
//     on loopback. Repeats of warmed keys (Poisson arrivals) exercise
//     decode, hashing and the memory and disk caches; one fresh program
//     in ten exercises parsing and the solver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metricDef declares one reported metric. The lists below must match
// BENCHMARK.json; a self-test checks that they do.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, from untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"decided_frac", "frac", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"goodput_rps", "1/s", "higher"},
}

// pipelineStages are the analysis stages the per-stage metrics cover.
var pipelineStages = []string{"frontend", "pre-pass", "metrics", "selection", "main-pass", "report"}

// perLayer are the metrics of single layers, from traced runs. Every
// workload reports all of them; a layer a workload does not exercise
// reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, s := range pipelineStages {
		out = append(out, metricDef{"stage." + s + ".ms", "ms", "lower"})
	}
	for _, s := range pipelineStages {
		out = append(out, metricDef{"stage." + s + ".alloc_mb", "MB", "lower"})
	}
	return append(out,
		metricDef{"pta.work_per_ms", "work/ms", "higher"},
		metricDef{"introspect.decisions", "count", "lower"},
		metricDef{"introspect.refined_frac", "frac", "lower"},
		metricDef{"go.alloc_mb", "MB", "lower"},
		metricDef{"go.gc_cycles", "count", "lower"},
		metricDef{"go.gc_pause_ms", "ms", "lower"},
		metricDef{"pta.work", "count", "lower"},
		metricDef{"pta.derivations", "count", "lower"},
		metricDef{"pta.propagations", "count", "lower"},
		metricDef{"pta.nodes", "count", "lower"},
		metricDef{"pta.edges", "count", "lower"},
		metricDef{"pta.contexts", "count", "lower"},
		metricDef{"pta.method_contexts", "count", "lower"},
		metricDef{"pta.heap_contexts", "count", "lower"},
		metricDef{"pta.budget_exhausted", "count", "lower"},
		metricDef{"fleet.pass_s", "s", "lower"},
		metricDef{"fleet.idle_frac", "frac", "lower"},
		metricDef{"sharded.pass_s", "s", "lower"},
		metricDef{"pta.sharded.work_ratio", "ratio", "lower"},
		metricDef{"lint.pass_s", "s", "lower"},
		metricDef{"pta.provenance_facts", "count", "lower"},
		metricDef{"checkers.ms", "ms", "lower"},
		metricDef{"checkers.diagnostics", "count", "lower"},
		metricDef{"service.hit_ratio", "frac", "higher"},
		metricDef{"service.disk_hit_ratio", "frac", "lower"},
		metricDef{"service.dedup", "count", "higher"},
		metricDef{"service.solves", "count", "lower"},
		metricDef{"service.rejected", "count", "lower"},
		metricDef{"service.deadline", "count", "lower"},
		metricDef{"service.hit_ms", "ms", "lower"},
		metricDef{"wire.decode_ms", "ms", "lower"},
		metricDef{"wire.req_kb", "kB", "lower"},
		metricDef{"wire.resp_kb", "kB", "lower"},
		metricDef{"stream.first_event_ms", "ms", "lower"},
		metricDef{"service.miss_ms", "ms", "lower"},
		metricDef{"service.queue_ms", "ms", "lower"},
		metricDef{"service.inflight_peak", "count", "lower"},
		metricDef{"service.max_rps", "1/s", "higher"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
		metricDef{"trace.stage_coverage", "frac", "higher"},
		metricDef{"loadgen.lag_ms", "ms", "lower"},
		metricDef{"loadgen.backlog_max", "count", "lower"},
	)
}()

// env is what every workload receives.
type env struct {
	root    string // repository root: references are read here
	scratch string // where scratch files and the span dump go
	seed    int64
	seconds float64
	trace   bool
	nproc   int
}

// value is one measured metric: its value, the number of samples it
// rests on, and an optional note such as which percentile a tail is.
type value struct {
	v    float64
	n    int
	note string
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]value
	info              []string // extra report lines
}

func newResult() *result {
	return &result{e2e: map[string]value{}, layer: map[string]value{}}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// workloads in the order "all" runs them.
var workloads = []struct {
	name string
	run  func(env) (*result, error)
}{
	{"batch", runBatch},
	{"ptad-open", runPtadOpen},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: drives arrival times, key draws, fresh programs and submission order")
	seconds := fs.Float64("seconds", 45, "measurement time per workload")
	trace := fs.Int("trace", 0, "1 runs traced passes and reports per-layer metrics, 0 reports end-to-end metrics")
	root := fs.String("root", ".", "repository root")
	scratch := fs.String("scratch", ".bench_build", "directory for scratch files and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := env{root: *root, scratch: *scratch, seed: *seed, seconds: *seconds, trace: *trace == 1,
		nproc: runtime.NumCPU()}

	final := map[string]any{}
	correct, attempted, failed := true, 0, 0
	for _, w := range workloads {
		if !contains(names, w.name) {
			continue
		}
		fmt.Fprintf(stdout, "workload %s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
			w.name, e.seed, e.seconds, *trace, e.nproc, runtime.GOMAXPROCS(0), runtime.Version())
		res, err := w.run(e)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		metrics := printReport(stdout, w.name, res, e.trace)
		for k, v := range metrics {
			if len(names) > 1 {
				k = w.name + "/" + k
			}
			final[k] = v
		}
		correct = correct && len(res.problems) == 0
		attempted += res.attempted
		failed += res.failed
	}
	line, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": final})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// printReport prints a workload's metrics and checks, and returns the
// metrics for the final JSON line: end-to-end untraced, per-layer
// traced.
func printReport(w io.Writer, workload string, res *result, traced bool) map[string]any {
	print := func(defs []metricDef, vals map[string]value) {
		for _, d := range defs {
			v := vals[d.name]
			extra := ""
			if v.note != "" {
				extra = " (" + v.note + ")"
			}
			fmt.Fprintf(w, "metric %-26s %14.6g %-8s n=%d%s\n", d.name, v.v, d.unit, v.n, extra)
		}
	}
	if len(res.e2e) > 0 {
		print(endToEnd, res.e2e)
	}
	if traced {
		print(perLayer, res.layer)
	}
	for _, l := range res.info {
		fmt.Fprintln(w, l)
	}
	failedFrac := 0.0
	if res.attempted > 0 {
		failedFrac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "failed_frac %g (%d of %d operations)\n", failedFrac, res.failed, res.attempted)
	sort.Strings(res.problems)
	for _, p := range res.problems {
		fmt.Fprintf(w, "MISMATCH %s: %s\n", workload, p)
	}
	if len(res.problems) == 0 {
		fmt.Fprintf(w, "check %s: every output matches its reference\n", workload)
	}

	out := map[string]any{}
	defs, vals := endToEnd, res.e2e
	if traced {
		defs, vals = perLayer, res.layer
	}
	for _, d := range defs {
		out[d.name] = map[string]any{"value": vals[d.name].v, "unit": d.unit}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// scratchFile names a file under the scratch directory for this run.
func (e env) scratchFile(workload, kind string) string {
	return filepath.Join(e.scratch, fmt.Sprintf("%s-%s-seed%d", kind, workload, e.seed))
}
