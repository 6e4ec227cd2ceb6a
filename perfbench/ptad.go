package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/figures"
	"introspect/internal/ir"
	"introspect/internal/obs"
	"introspect/internal/report"
	"introspect/internal/service"
	"introspect/internal/suite"
	ptav1 "introspect/pta/v1"
)

// The ptad-open traffic. A block is ptadBlock requests: every one of
// the 45 (program, spec) keys repeated keyRepeats times, in a seeded
// order at seeded Poisson arrival times, plus one fresh program per key
// on a fixed skeleton (see schedule). The composition of a block never
// depends on the seed, so decided_frac and the solver counts of the
// misses do not either. A pass holds the whole number of blocks that
// comes nearest to ptadRate over --seconds: one in 45 s. The rate is
// low enough that a miss seldom overlaps another and the hits' median
// stays a cache-path figure when the machine's speed drifts; the
// traced run's rate ladder goes higher.
const (
	ptadRate      = 10.0 // nominal offered rate, requests per second
	ptadBlock     = 450
	keyRepeats    = 9 // 45*9 repeats + 45 fresh = 450
	ptadSetups    = 5
	memEntries    = 16 // memory LRU, smaller than the 45 warm keys
	latencyLimit  = 2 * time.Second
	ladderStepDur = 3 * time.Second
)

// ladderFactors are the rates, as multiples of ptadRate, the traced run
// steps through to find service.max_rps.
var ladderFactors = []float64{1.5, 2, 3, 4, 6, 8}

// ptadKey is one cache key of the warm set: a suite program under a
// spec.
type ptadKey struct{ bench, spec string }

func (k ptadKey) String() string { return k.bench + " " + k.spec }

// ptadKeys lists the warm keys, program-major in figure order.
func ptadKeys() []ptadKey {
	var out []ptadKey
	for _, b := range suite.Names() {
		for _, s := range figures.CSVariants() {
			out = append(out, ptadKey{b, s})
		}
	}
	return out
}

// item is one scheduled request.
type item struct {
	key    ptadKey
	fresh  bool
	stream bool
	due    time.Duration // since the pass started
	body   []byte
}

// sample is what the load generator observed for one request.
type sample struct {
	key                 ptadKey
	id                  string // the service's request ID
	fresh, stream       bool
	due, sent, first    time.Duration
	done                time.Duration
	errMsg              string
	cache               string
	complete            bool
	prec                *report.Precision
	stages              []analysis.Stats
	decisions           int
	reqSpanMS           float64 // the service's own "request" span, traced requests only
	srvSpans            []obs.ChromeEvent
	reqBytes, respBytes int
}

func (s sample) latency() time.Duration { return s.done - s.due }

// ptadBench is the state of one ptad-open run.
type ptadBench struct {
	e       env
	refs    map[string]goldenRow
	keys    []ptadKey
	sources map[string]string // program → IR text
	bodies  map[ptadKey][]byte
	dir     string
	log     *syncBuffer // the access log, traced runs only

	svc    *service.Service
	srv    *http.Server
	served chan struct{}
	base   string
	client *http.Client
	res    *result
}

// syncBuffer is an io.Writer safe for the service's logger.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func runPtadOpen(e env) (*result, error) {
	text, err := readRef(e.root, figCSGolden)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.scratch, "ptad-store-")
	if err != nil {
		return nil, err
	}
	pb := &ptadBench{e: e, refs: parseTable(text), keys: ptadKeys(), dir: dir, res: newResult()}
	if e.trace {
		pb.log = &syncBuffer{}
	}
	defer os.RemoveAll(dir)
	defer pb.stop()

	// Set up ptadSetups times on one store directory: the first set-up
	// solves every warm key into it, the later ones restart the service
	// on it and warm up from disk.
	var setups []float64
	var fresh [][]byte
	for i := 0; i < ptadSetups; i++ {
		t, f, err := pb.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, t.Seconds())
		fresh = f
	}
	pb.res.e2e["setup_s"] = value{v: median(setups), n: len(setups),
		note: fmt.Sprintf("median of %d set-ups; the cold one took %.3g s", len(setups), setups[0])}

	nominal := pb.schedule(e.seed, fresh)
	m := startMeter()
	samples, backlog, _ := pb.drive(nominal, false)
	cost := m.finish()
	pb.check(samples)
	pb.endToEnd(samples, cost, backlog)

	if e.trace {
		if err := pb.perLayer(samples, backlog); err != nil {
			return nil, err
		}
	}
	return pb.res, nil
}

// setup generates and serialises the suite, pre-encodes every request
// body, (re)starts the service on the store directory and warms the
// cache with every key. It returns its duration and the fresh-program
// bodies of the first pass.
func (pb *ptadBench) setup() (time.Duration, [][]byte, error) {
	pb.stop()
	t0 := time.Now()
	pb.sources = map[string]string{}
	for _, b := range suite.Names() {
		var sb strings.Builder
		if err := suite.Profiles()[b].Build().WriteText(&sb); err != nil {
			return 0, nil, err
		}
		pb.sources[b] = sb.String()
	}
	pb.bodies = map[ptadKey][]byte{}
	for _, k := range pb.keys {
		pb.bodies[k] = encodeBody(k, pb.sources[k.bench])
	}
	fresh := pb.freshBodies(pb.e.seed)

	cfg := service.Config{Workers: 1, CacheEntries: memEntries, CacheDir: pb.dir}
	if pb.log != nil {
		cfg.Logger = obs.NewLogger(pb.log)
	}
	svc, err := service.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, nil, err
	}
	pb.svc = svc
	pb.srv = &http.Server{Handler: svc.Handler()}
	pb.served = make(chan struct{})
	go func() {
		defer close(pb.served)
		_ = pb.srv.Serve(ln) // http.ErrServerClosed once stop shuts it down

	}()
	pb.base = "http://" + ln.Addr().String()
	pb.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 64,
		DisableCompression:  true,
	}}

	// Warm-up: nproc clients, each taking whole programs, insens first
	// so the program's introspective runs share its pre-pass.
	progs := make(chan string, len(suite.Names()))
	for _, b := range suite.Names() {
		progs <- b
	}
	close(progs)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < pb.e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range progs {
				for _, s := range figures.CSVariants() {
					k := ptadKey{b, s}
					smp := pb.send(item{key: k, body: pb.bodies[k]}, time.Now(), false)
					mu.Lock()
					pb.checkOne(smp, "warm-up")
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(t0), fresh, nil
}

// stop shuts the server down and waits for it.
func (pb *ptadBench) stop() {
	if pb.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = pb.srv.Shutdown(ctx) // a timeout only leaves connections to the garbage collector
	<-pb.served
	pb.client.CloseIdleConnections()
	pb.srv = nil
}

func encodeBody(k ptadKey, source string) []byte {
	b, err := json.Marshal(ptav1.AnalyzeRequest{Lang: "ir", Name: k.bench, Source: source,
		Job: analysis.Job{Spec: k.spec}, Budget: figures.DefaultBudget})
	if err != nil {
		panic(err) // plain strings always encode
	}
	return b
}

// freshSource appends an unreachable class, named from the seed, to a
// program: a new content hash, the same analysis results.
func freshSource(source string, tag uint64) string {
	c := fmt.Sprintf("Fresh%016x", tag)
	return source + fmt.Sprintf("\nclass %s extends Object\n\nstatic method %s.make/0 sig make_%s/0 returns {\n  var o\n  o = new %s @ \"new %s\"\n  ret = o\n}\n",
		c, c, c, c, c)
}

// freshBodies encodes one fresh program per warm key, tagged from seed.
func (pb *ptadBench) freshBodies(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([][]byte, len(pb.keys))
	for i, k := range pb.keys {
		out[i] = encodeBody(k, freshSource(pb.sources[k.bench], rng.Uint64()))
	}
	return out
}

// schedule builds the open-loop schedule of one pass: the whole number
// of blocks that comes nearest to ptadRate over the pass, spread over
// the pass. Repeats arrive as a Poisson process conditioned on their
// count (sorted uniform points), in a seeded order. A block's fresh
// programs, the misses, arrive in one fixed order: every fifth of the
// block holds one fresh program of each suite program, in suite order,
// and program p takes spec (p+s) mod 5 in fifth s. Each miss opens a
// gap of the block proportional to its expected cost (missCost), so
// every miss has the same multiple of its expected solve time (about
// five at the nominal rate) before the next one arrives: a slower
// machine lengthens the tail, the solver's latency, in proportion,
// instead of making misses queue behind each other. The misses thus form the same
// skeleton in every seed's pass; the seed moves the hits around them
// and names the fresh classes. One request in ten streams.
func (pb *ptadBench) schedule(seed int64, fresh [][]byte) []item {
	rng := rand.New(rand.NewSource(seed))
	blocks := max(1, int(math.Round(ptadRate*pb.e.seconds/ptadBlock)))
	specs := figures.CSVariants()
	blockLen := pb.e.seconds / float64(blocks)
	var order []int // the fresh keys' indices in arrival order
	for s := range specs {
		for p := range suite.Names() {
			order = append(order, p*len(specs)+(p+s)%len(specs))
		}
	}
	var total float64
	for _, i := range order {
		total += pb.missCost(pb.keys[i])
	}
	shares := make([]float64, len(order)) // gap of each miss, as a share of the block
	for j, i := range order {
		shares[j] = pb.missCost(pb.keys[i]) / total
	}
	var items []item
	for b := 0; b < blocks; b++ {
		for _, k := range pb.keys {
			for r := 0; r < keyRepeats; r++ {
				due := time.Duration(rng.Float64() * pb.e.seconds * float64(time.Second))
				items = append(items, item{key: k, body: pb.bodies[k], due: due})
			}
		}
		at := float64(b)
		for j, i := range order {
			k := pb.keys[i]
			f := fresh[i]
			if b > 0 {
				f = encodeBody(k, freshSource(pb.sources[k.bench], rng.Uint64()))
			}
			items = append(items, item{key: k, fresh: true, body: f, due: time.Duration(at * blockLen * float64(time.Second))})
			at += shares[j]
		}
	}
	for _, i := range rng.Perm(len(items))[:len(items)/10] {
		items[i].stream = true
	}
	sort.Slice(items, func(a, b int) bool { return items[a].due < items[b].due })
	return items
}

// missCost is the expected solve cost of a fresh program under a key,
// in thousands of work units: the key's figcs.golden work (the budget
// when it timed out), plus the insens pre-pass an introspective spec
// runs first.
func (pb *ptadBench) missCost(k ptadKey) float64 {
	work := func(spec string) float64 {
		r := pb.refs[k.bench+" "+spec]
		if r.timedOut() {
			return float64(figures.DefaultBudget) / 1000
		}
		w, _ := strconv.ParseFloat(r.workK, 64) // a missing row costs 0; verify reports it
		return w
	}
	c := work(k.spec)
	if strings.Contains(k.spec, "Intro") {
		c += work("insens")
	}
	return c
}

// drive sends the schedule open-loop: each request leaves at its due
// time whatever earlier ones are doing, on a connection of its own if
// every open one is busy. It returns the samples, the backlog (requests
// due but unfinished) seen at each due time, and the time the pass
// started, which sample times count from.
func (pb *ptadBench) drive(items []item, traced bool) ([]sample, []int, time.Time) {
	samples := make([]sample, len(items))
	backlog := make([]int, len(items))
	var finished atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, it := range items {
		if d := time.Until(start.Add(it.due)); d > 0 {
			time.Sleep(d)
		}
		backlog[i] = i - int(finished.Load())
		wg.Add(1)
		go func(i int, it item) {
			defer wg.Done()
			samples[i] = pb.send(it, start, traced)
			finished.Add(1)
		}(i, it)
	}
	wg.Wait()
	return samples, backlog, start
}

// send issues one request and reads the whole response. Times are
// relative to start.
func (pb *ptadBench) send(it item, start time.Time, traced bool) sample {
	s := sample{key: it.key, fresh: it.fresh, stream: it.stream, due: it.due, sent: time.Since(start),
		reqBytes: len(it.body)}
	fail := func(format string, args ...any) sample {
		s.done = time.Since(start)
		s.errMsg = fmt.Sprintf(format, args...)
		return s
	}
	var q []string
	if it.stream {
		q = append(q, "stream=1")
	}
	if traced {
		q = append(q, "trace=1")
		if it.fresh {
			// Only misses: a hit would carry its whole cached audit log.
			q = append(q, "decisions=1")
		}
	}
	url := pb.base + "/v1/analyze"
	if len(q) > 0 {
		url += "?" + strings.Join(q, "&")
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(it.body))
	if err != nil {
		return fail("%v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := pb.client.Do(req)
	if err != nil {
		return fail("%v", err)
	}
	defer resp.Body.Close()
	s.id = resp.Header.Get(service.RequestIDHeader)
	var doc *analysis.RunJSON
	if it.stream && resp.StatusCode == http.StatusOK {
		r := bufio.NewReader(resp.Body)
		var last []byte
		for {
			line, err := r.ReadBytes('\n')
			if len(line) > 0 {
				if s.first == 0 {
					s.first = time.Since(start)
				}
				s.respBytes += len(line)
				last = line
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return fail("reading stream: %v", err)
			}
		}
		var ev ptav1.StreamEvent
		if err := json.Unmarshal(last, &ev); err != nil {
			return fail("decoding last stream event: %v", err)
		}
		if ev.Event != ptav1.EventResult || ev.Result == nil {
			return fail("stream ended with %s event: %s %s", ev.Event, ev.Code, ev.Error)
		}
		doc = ev.Result
	} else {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return fail("reading response: %v", err)
		}
		s.respBytes = len(b)
		if resp.StatusCode != http.StatusOK {
			return fail("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		}
		doc = &analysis.RunJSON{}
		if err := json.Unmarshal(b, doc); err != nil {
			return fail("decoding response: %v", err)
		}
	}
	s.done = time.Since(start)
	s.cache, s.complete, s.prec, s.stages, s.decisions = doc.Cache, doc.Complete, doc.Precision, doc.Stages, len(doc.Decisions)
	if doc.Trace != nil {
		for _, ev := range doc.Trace.TraceEvents {
			if ev.Phase != obs.PhaseSpan {
				continue
			}
			s.srvSpans = append(s.srvSpans, obs.ChromeEvent{Name: ev.Name, TS: ev.TS, Dur: ev.Dur})
			if ev.Name == "request" {
				s.reqSpanMS = ev.Dur / 1000
			}
		}
	}
	return s
}

// verify compares a response with its figcs.golden row and returns
// what differs, or "" when it matches.
func (pb *ptadBench) verify(s sample) string {
	if s.prec == nil {
		return "response has no precision"
	}
	want, ok := pb.refs[s.key.String()]
	if !ok {
		return "no reference row"
	}
	row := report.Row{Benchmark: s.key.bench, Precision: *s.prec}
	if diffs := compareRow(want, rowOf(row), colWork, colPoly, colReach, colCast); len(diffs) > 0 {
		return strings.Join(diffs, "; ")
	}
	if s.complete == want.timedOut() {
		return fmt.Sprintf("complete=%v, reference timed out=%v", s.complete, want.timedOut())
	}
	return ""
}

// checkOne counts one operation: it fails if the request failed or
// its response differs from the reference.
func (pb *ptadBench) checkOne(s sample, phase string) {
	pb.res.attempted++
	msg := s.errMsg
	if msg == "" {
		msg = pb.verify(s)
	}
	if msg != "" {
		pb.res.failed++
		pb.res.problem("%s %s (fresh=%v stream=%v): %s", phase, s.key, s.fresh, s.stream, msg)
	}
}

func (pb *ptadBench) check(samples []sample) {
	for _, s := range samples {
		pb.checkOne(s, "request")
	}
}

// latencies returns every request's latency in ms, counting a failed
// request as missing the latency limit.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.latency()) / 1e6
		if s.errMsg != "" {
			out[i] = max(out[i], float64(latencyLimit)/1e6+1)
		}
	}
	return out
}

// passWall is the time from the pass start to the last response.
func passWall(samples []sample) time.Duration {
	var end time.Duration
	for _, s := range samples {
		end = max(end, s.done)
	}
	return end
}

func (pb *ptadBench) endToEnd(samples []sample, cost passCost, backlog []int) {
	r := pb.res
	lat := latencies(samples)
	wall := passWall(samples)
	decided, good := 0, 0
	for i, s := range samples {
		if s.errMsg == "" && s.complete {
			decided++
		}
		if s.errMsg == "" && lat[i] <= float64(latencyLimit)/1e6 {
			good++
		}
	}
	n := len(samples)
	// The pass's wall is fixed by the schedule (its last due time is
	// about --seconds), so run_s is the time the service kept requests
	// waiting: latency from the due time, summed over the pass.
	r.e2e["run_s"] = value{v: sum(lat) / 1e3, n: n, note: fmt.Sprintf("summed latency of %d requests offered at %.3g/s", n, float64(n)/pb.e.seconds)}
	r.e2e["cpu_s"] = value{v: cost.cpu.Seconds(), n: 1, note: "process CPU over the pass, server and load generator"}
	r.e2e["peak_heap_mb"] = value{v: cost.peakHeapMB, n: 1, note: "peak over the pass"}
	r.e2e["decided_frac"] = value{v: float64(decided) / float64(n), n: n, note: "responses whose analysis finished within budget"}
	r.e2e["p50_ms"] = value{v: median(lat), n: n, note: "latency from the due time"}
	label, t := tail(lat)
	r.e2e["tail_ms"] = value{v: t, n: n, note: label + " latency from the due time"}
	r.e2e["goodput_rps"] = value{v: float64(good) / wall.Seconds(), n: n,
		note: fmt.Sprintf("OK within %v per second of pass; the offered rate unless requests fail or exceed the limit", latencyLimit)}
	lag := make([]float64, n)
	for i, s := range samples {
		lag[i] = float64(s.sent-s.due) / 1e6
	}
	maxBacklog := 0
	for _, b := range backlog {
		maxBacklog = max(maxBacklog, b)
	}
	exchange := make([]float64, n)
	for i, s := range samples {
		exchange[i] = float64(s.done-s.sent) / 1e6
	}
	r.note("load generator: median lag %.3f ms, max lag %.2f ms, median send-to-response %.3f ms, max backlog %d, backlog grows %v",
		median(lag), percentile(lag, 100), median(exchange), maxBacklog, backlogGrows(backlog, pb.e.nproc))
}

// backlogGrows reports whether a backlog series (requests due but
// unfinished, sampled at each due time) rises through a step: the mean
// of its last third exceeds the mean of its first third by more than a
// tenth of the step's requests, or by nproc if that is more. One slow
// miss late in a step raises the backlog briefly; a rate the system
// cannot serve raises it by a share of everything sent.
func backlogGrows(series []int, nproc int) bool {
	n := len(series) / 3
	if n == 0 {
		return false
	}
	slack := max(nproc, len(series)/10)
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	return mean(series[len(series)-n:]) > mean(series[:n])+float64(slack)
}

// perLayer runs the traced pass (a second seed, a second set of fresh
// programs), the rate ladder, and reads the service's own numbers.
func (pb *ptadBench) perLayer(untraced []sample, backlog []int) error {
	r := pb.res
	e := pb.e

	// Harness-timed layer calls: decoding every request body as the
	// service does, and parsing every fresh program.
	fresh := pb.freshBodies(e.seed + 1)
	var decodeMS []float64
	bodies := append([][]byte(nil), fresh...)
	for _, k := range pb.keys {
		bodies = append(bodies, pb.bodies[k])
	}
	for _, body := range bodies {
		req, _ := http.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)) // a constant URL always parses
		req.Header.Set("Content-Type", "application/json")
		t0 := time.Now()
		ar, serr := ptav1.DecodeAnalyze(req, 64<<20)
		decodeMS = append(decodeMS, float64(time.Since(t0))/1e6)
		if serr != nil {
			return fmt.Errorf("decoding a request body: %v", serr)
		}
		if ar.Source == "" {
			return fmt.Errorf("decoded request has no source")
		}
	}
	parseMS := 0.0
	for i := range pb.keys {
		var ar ptav1.AnalyzeRequest
		if err := json.Unmarshal(fresh[i], &ar); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := ir.ParseText(strings.NewReader(ar.Source)); err != nil {
			return fmt.Errorf("parsing a fresh program: %w", err)
		}
		parseMS += float64(time.Since(t0)) / 1e6
	}

	before := pb.svc.Metrics()
	logStart := len(pb.log.String())
	sched := pb.schedule(e.seed+1, fresh)
	var peak int // written by the sampler, read once it has stopped
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			q := pb.svc.Metrics().Queue
			peak = max(peak, q.InFlight+q.Depth)
			select {
			case <-stopSampling:
				return
			case <-t.C:
			}
		}
	}()
	m := startMeter()
	traced, _, start := pb.drive(sched, true)
	cost := m.finish()
	close(stopSampling)
	<-sampled
	after := pb.svc.Metrics()
	queues := missQueues(pb.log.String()[logStart:])
	pb.check(traced)
	if err := recordRequestSpans(start, traced).write(e.scratchFile("ptad-open", "spans") + ".json"); err != nil {
		return err
	}

	// Solver counts of the misses must not depend on the seed or on
	// tracing.
	cu, ct := missCounts(untraced), missCounts(traced)
	for name, v := range cu {
		if ct[name] != v {
			r.problem("miss counter %s: %g with seed %d untraced, %g with seed %d traced", name, v, e.seed, ct[name], e.seed+1)
		}
	}
	r.note("determinism: seeds %d (untraced) and %d (traced) give identical miss counts (pta.work %.0f, pta.derivations %.0f) and decided_frac",
		e.seed, e.seed+1, cu["pta.work"], cu["pta.derivations"])

	for name, v := range ct {
		r.layer[name] = value{v: v, n: 1, note: "over the pass's misses, deterministic"}
	}
	stageMS := map[string]float64{}
	var solveMS float64
	var hitMS, missMS, firstMS []float64
	var reqKB, respKB float64
	decisions := 0
	for _, s := range traced {
		if s.cache == "miss" {
			for _, st := range s.stages {
				ms := float64(st.Wall) / 1e6
				stageMS[st.Stage] += ms
				if st.Stage == analysis.StagePrePass || st.Stage == analysis.StageMainPass {
					solveMS += ms
				}
			}
			decisions += s.decisions
		}
		if !s.stream && s.reqSpanMS > 0 {
			if s.cache == "hit" {
				hitMS = append(hitMS, s.reqSpanMS)
			} else if s.cache == "miss" {
				missMS = append(missMS, s.reqSpanMS)
			}
		}
	}
	for _, s := range untraced {
		reqKB += float64(s.reqBytes) / 1024
		respKB += float64(s.respBytes) / 1024
		if s.stream && s.first > 0 {
			firstMS = append(firstMS, float64(s.first-s.sent)/1e6)
		}
	}
	for _, st := range pipelineStages {
		r.layer["stage."+st+".ms"] = value{v: stageMS[st], n: 1, note: "summed over the misses"}
		b := after.Mem.StageAllocBytes[st] - before.Mem.StageAllocBytes[st]
		r.layer["stage."+st+".alloc_mb"] = value{v: float64(b) / (1 << 20), n: 1, note: "service-reported, process-wide"}
	}
	r.layer["stage.frontend.ms"] = value{v: parseMS, n: len(pb.keys), note: "ir.ParseText over the fresh programs"}
	r.layer["pta.work_per_ms"] = value{v: ct["pta.work"] / solveMS, n: 1}
	r.layer["introspect.decisions"] = value{v: float64(decisions), n: 1, note: "audited decisions of the misses"}
	r.layer["go.alloc_mb"] = value{v: cost.allocMB, n: 1}
	r.layer["go.gc_cycles"] = value{v: float64(cost.gcCycles), n: 1}
	r.layer["go.gc_pause_ms"] = value{v: cost.gcPauseMS, n: 1}

	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	dedup := after.Cache.Dedup - before.Cache.Dedup
	disk := after.Disk.Hits - before.Disk.Hits
	r.layer["service.hit_ratio"] = value{v: ratio(hits, hits+misses+dedup), n: int(hits + misses + dedup)}
	r.layer["service.disk_hit_ratio"] = value{v: ratio(disk, hits), n: int(hits), note: "hits served from the durable store"}
	r.layer["service.dedup"] = value{v: float64(dedup), n: 1}
	r.layer["service.solves"] = value{v: float64(after.Solves - before.Solves), n: 1}
	r.layer["service.rejected"] = value{v: float64(after.Rejected.Invalid + after.Rejected.Overload -
		before.Rejected.Invalid - before.Rejected.Overload), n: 1}
	r.layer["service.deadline"] = value{v: float64(after.Timeouts - before.Timeouts), n: 1}
	r.layer["service.hit_ms"] = value{v: median(hitMS), n: len(hitMS), note: "median of the service's request span"}
	r.layer["service.miss_ms"] = value{v: median(missMS), n: len(missMS), note: "median of the service's request span"}
	var queueSum float64
	for _, q := range queues {
		queueSum += q
	}
	r.layer["service.queue_ms"] = value{v: queueSum / max(1, float64(len(queues))), n: len(queues), note: "mean access-log queue_ms of the pass's misses"}
	r.layer["service.inflight_peak"] = value{v: float64(peak), n: 1, note: "sampled every 50 ms"}
	r.layer["wire.decode_ms"] = value{v: median(decodeMS), n: len(decodeMS), note: "ptav1.DecodeAnalyze per body"}
	r.layer["wire.req_kb"] = value{v: reqKB / float64(len(untraced)), n: len(untraced), note: "mean"}
	r.layer["wire.resp_kb"] = value{v: respKB / float64(len(untraced)), n: len(untraced), note: "mean, untraced pass"}
	r.layer["stream.first_event_ms"] = value{v: median(firstMS), n: len(firstMS), note: "send to first NDJSON line"}

	lu, lt := latencies(untraced), latencies(traced)
	over := median(lt)/median(lu) - 1
	r.layer["trace.overhead_frac"] = value{v: over, n: len(lt) + len(lu), note: fmt.Sprintf("traced x%.3f untraced p50; bench.sh limit x1.25", 1+over)}
	coverage, covered := stageCoverage(traced, queues)
	r.layer["trace.stage_coverage"] = value{v: coverage, n: covered,
		note: "lowest share of a miss's request span, less its queue wait, that its stage walls cover"}
	lag := make([]float64, len(untraced))
	for i, s := range untraced {
		lag[i] = float64(s.sent-s.due) / 1e6
	}
	r.layer["loadgen.lag_ms"] = value{v: percentile(lag, 100), n: len(lag), note: "max, untraced pass"}
	maxB := 0
	for _, b := range backlog {
		maxB = max(maxB, b)
	}
	r.layer["loadgen.backlog_max"] = value{v: float64(maxB), n: len(untraced), note: "untraced pass"}
	r.layer["service.max_rps"] = value{v: pb.ladder(), n: len(ladderFactors), note: fmt.Sprintf("highest rate with tail <= %v and no backlog growth", latencyLimit)}
	return nil
}

// recordRequestSpans turns a traced pass into spans: per request a
// root from due time to response, the wait for the load generator and
// the HTTP exchange under it, and the service's own spans under the
// exchange. The service's clock is not ours; its spans are placed so
// that its "request" span ends with the exchange.
func recordRequestSpans(start time.Time, samples []sample) *recorder {
	rec := &recorder{epoch: start}
	at := func(d time.Duration) time.Time { return start.Add(d) }
	us := func(x float64) time.Duration { return time.Duration(x * float64(time.Microsecond)) }
	for i, s := range samples {
		run := i + 1
		root := rec.add(fmt.Sprintf("request %s %s", s.key, s.cache), 0, run, at(s.due), at(s.done))
		rec.add("loadgen-wait", root, run, at(s.due), at(s.sent))
		ex := rec.add("exchange", root, run, at(s.sent), at(s.done))
		var reqEnd float64
		for _, ev := range s.srvSpans {
			if ev.Name == "request" {
				reqEnd = ev.TS + ev.Dur
			}
		}
		for _, ev := range s.srvSpans {
			begin := at(s.done - us(reqEnd-ev.TS))
			rec.add(ev.Name, ex, run, begin, begin.Add(us(ev.Dur)))
		}
	}
	return rec
}

// missCounts sums the solver counters of the misses a pass caused.
func missCounts(samples []sample) map[string]float64 {
	c := map[string]float64{}
	for _, s := range samples {
		if s.cache != "miss" {
			continue
		}
		for _, st := range s.stages {
			if st.Stage == analysis.StagePrePass || st.Stage == analysis.StageMainPass {
				addSolverStats(c, st)
			}
		}
		if s.complete {
			c["decided"]++
		}
	}
	return c
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// missQueues maps the request ID of each of the access log's miss lines
// to its queue_ms, the wait for a solve slot (0 when the line has none).
func missQueues(log string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(log, "\n") {
		var rec struct {
			ID      string  `json:"id"`
			Cache   string  `json:"cache"`
			QueueMS float64 `json:"queue_ms"`
		}
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Cache != "miss" {
			continue
		}
		out[rec.ID] = rec.QueueMS
	}
	return out
}

// stageCoverage returns the lowest share, over a traced pass's
// non-streamed misses, of the service's request span less the
// request's queue wait that the service's stage walls cover, and the
// number of misses it rests on. The rest of the span is body decoding,
// hashing and parsing.
func stageCoverage(samples []sample, queues map[string]float64) (float64, int) {
	coverage, n := 1.0, 0
	for _, s := range samples {
		if s.stream || s.cache != "miss" || s.reqSpanMS <= 0 {
			continue
		}
		var staged float64
		for _, st := range s.stages {
			staged += float64(st.Wall) / 1e6
		}
		coverage = min(coverage, staged/(s.reqSpanMS-queues[s.id]))
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return coverage, n
}

// ladder raises the offered rate step by step and returns the highest
// rate at which every request succeeded, the tail latency stayed within
// the limit and the backlog did not grow. Shed or late requests are
// what overload looks like and only end the ladder; a response that
// differs from its reference is a failure like anywhere else.
func (pb *ptadBench) ladder() float64 {
	best := 0.0
	for i, f := range ladderFactors {
		rate := ptadRate * f
		samples, backlog, _ := pb.drive(pb.ladderStep(pb.e.seed+int64(100+i), rate), false)
		shed := 0
		for _, s := range samples {
			if s.errMsg != "" {
				shed++
			} else if pb.verify(s) != "" {
				pb.checkOne(s, fmt.Sprintf("ladder %g/s", rate))
			}
		}
		_, t := tail(latencies(samples))
		grows := backlogGrows(backlog, pb.e.nproc)
		pb.res.note("ladder %g/s: %d requests, %d shed or failed, tail %.1f ms, backlog grows %v", rate, len(samples), shed, t, grows)
		if shed > 0 || t > float64(latencyLimit)/1e6 || grows {
			break
		}
		best = rate
	}
	return best
}

// ladderStep schedules ladderStepDur of traffic at rate with the
// nominal mix: warm keys drawn uniformly, one fresh program in ten.
func (pb *ptadBench) ladderStep(seed int64, rate float64) []item {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * ladderStepDur.Seconds())
	items := make([]item, n)
	span := float64(n) / rate
	dues := make([]float64, n)
	for i := range items {
		dues[i] = rng.Float64() * span
		k := pb.keys[rng.Intn(len(pb.keys))]
		if rng.Intn(10) == 0 {
			items[i] = item{key: k, fresh: true, body: encodeBody(k, freshSource(pb.sources[k.bench], rng.Uint64()))}
		} else {
			items[i] = item{key: k, body: pb.bodies[k]}
		}
	}
	sort.Float64s(dues)
	for i := range items {
		items[i].due = time.Duration(dues[i] * float64(time.Second))
	}
	return items
}
