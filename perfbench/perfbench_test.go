package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"introspect/internal/analysis"
	"introspect/internal/report"
)

func TestTailTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		label string
		value float64
	}{
		{5, "max", 5},
		{10, "max", 10},
		{11, "p9.09", 1},
		{20, "p50", 10},
		{36, "p72.2", 26},
		{100, "p90", 90},
		{450, "p97.8", 440},
		{1000, "p99", 990},
		{10000, "p99.9", 9990},
	} {
		label, v := tail(seq(c.n))
		if label != c.label || v != c.value {
			t.Errorf("tail of %d samples = %s %g, want %s %g", c.n, label, v, c.label, c.value)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "analysis", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(60), End: ms(70)},
		{ID: 5, Parent: 1, Name: "d", Start: ms(90), End: ms(120)}, // runs past its parent
		{ID: 6, Parent: 3, Name: "b1", Start: ms(25), End: ms(35)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(40), 2: ms(20), 3: ms(20), 4: ms(10), 5: ms(30), 6: ms(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

// A request that waits for a busy connection is late from its due
// time, not from when it finally went out: the open loop charges the
// stall to every request queued behind it.
func TestLatencyFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(100 * time.Millisecond)
		fmt.Fprint(w, `{"schema":"pta/v1","cache":"hit","complete":true}`)
	}))
	defer srv.Close()
	pb := &ptadBench{base: srv.URL, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	items := []item{{due: 0, body: []byte("{}")}, {due: 10 * time.Millisecond, body: []byte("{}")}}
	samples, backlog, _ := pb.drive(items, false)
	for _, s := range samples {
		if s.errMsg != "" {
			t.Fatal(s.errMsg)
		}
	}
	if lat := samples[1].latency(); lat < 180*time.Millisecond {
		t.Errorf("second request latency %v, want >= 180ms (due at 10ms, served after the first)", lat)
	}
	if samples[1].sent > 50*time.Millisecond {
		t.Errorf("second request left at %v; the generator must not wait for the first", samples[1].sent)
	}
	if backlog[1] != 1 {
		t.Errorf("backlog at the second due time = %d, want 1", backlog[1])
	}
	failed := []sample{{due: 0, done: time.Millisecond, errMsg: "status 429"}}
	if l := latencies(failed)[0]; l <= float64(latencyLimit)/1e6 {
		t.Errorf("a failed request's latency %g ms is within the limit", l)
	}
}

func TestBacklogGrowth(t *testing.T) {
	flat := make([]int, 300)
	for i := range flat {
		flat[i] = i % 3
	}
	flat[250] = 20 // one slow request late in the step
	if backlogGrows(flat, 2) {
		t.Error("a steady backlog with one blip counts as growing")
	}
	ramp := make([]int, 300)
	for i := range ramp {
		ramp[i] = i / 4
	}
	if !backlogGrows(ramp, 2) {
		t.Error("a backlog rising by a quarter of the arrivals does not count as growing")
	}
	if backlogGrows([]int{0, 5}, 2) {
		t.Error("a two-sample series counts as growing")
	}
}

func TestGoldenRowComparison(t *testing.T) {
	table := parseTable(`Figure 5: title
benchmark  analysis            work(K)  polycall  reachmeth   maycast       ms
chart      insens                  283        47       1246        26        -
hsqldb     2objH               TIMEOUT         -          -         -        -

precision retained vs full 2objH (where full terminates): IntroA 76%, IntroB 100%
`)
	if len(table) != 2 {
		t.Fatalf("parsed %d rows, want 2: %v", len(table), table)
	}
	chart := table["chart insens"]
	got := rowOf(report.Row{Benchmark: "chart", Precision: report.Precision{Analysis: "insens",
		Work: 283_999, PolyVCalls: 47, ReachableMethods: 1246, MayFailCasts: 26, ElapsedMS: 12}})
	if d := compareRow(chart, got, colWork, colPoly, colReach, colCast); len(d) != 0 {
		t.Errorf("equal rows differ: %v", d)
	}
	got.poly, got.workK = "48", "300"
	if d := compareRow(chart, got, colPoly); len(d) != 1 || !strings.HasPrefix(d[0], "chart insens: polycall 48") {
		t.Errorf("polycall difference reported as %v", d)
	}
	if d := compareRow(chart, got, colReach, colCast); len(d) != 0 {
		t.Errorf("differences outside the compared columns reported: %v", d)
	}
	timeout := rowOf(report.Row{Benchmark: "hsqldb", Precision: report.Precision{Analysis: "2objH", TimedOut: true}})
	if d := compareRow(table["hsqldb 2objH"], timeout, colWork); len(d) != 0 {
		t.Errorf("matching TIMEOUT rows differ: %v", d)
	}
	if d := compareRow(chart, timeout); len(d) != 1 {
		t.Errorf("a TIMEOUT row against a completed one gives %v", d)
	}
	if d := diffLines("a\nb\n", "a\nc\n"); !strings.HasPrefix(d, "line 2:") {
		t.Errorf("diffLines = %q", d)
	}
}

// The metric lists in the code and in BENCHMARK.json must agree.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %v", kind, i, d, g)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: code %s, BENCHMARK.json %s", i, w.name, doc.Workloads[i].Name)
		}
	}
}

func TestMissQueuesAndStageCoverage(t *testing.T) {
	log := `{"msg":"request","id":"a","cache":"hit"}
{"msg":"request","id":"b","cache":"miss","queue_ms":50}
not json
{"msg":"request","id":"c","cache":"miss"}
`
	q := missQueues(log)
	if len(q) != 2 || q["b"] != 50 || q["c"] != 0 {
		t.Fatalf("missQueues = %v, want b:50 c:0", q)
	}
	stages := func(ms ...float64) []analysis.Stats {
		var out []analysis.Stats
		for _, m := range ms {
			out = append(out, analysis.Stats{Wall: time.Duration(m * float64(time.Millisecond))})
		}
		return out
	}
	samples := []sample{
		{id: "b", cache: "miss", reqSpanMS: 100, stages: stages(40, 5)},           // 45 of 100-50
		{id: "c", cache: "miss", reqSpanMS: 20, stages: stages(19)},               // 19 of 20
		{id: "d", cache: "miss", stream: true, reqSpanMS: 100, stages: stages(1)}, // streamed: skipped
		{id: "a", cache: "hit", reqSpanMS: 1},
	}
	cov, n := stageCoverage(samples, q)
	if n != 2 || math.Abs(cov-0.9) > 1e-9 {
		t.Errorf("stageCoverage = %g over %d misses, want 0.9 over 2", cov, n)
	}
}

func TestMissSkeletonIndependentOfSeed(t *testing.T) {
	text, err := readRef("..", figCSGolden)
	if err != nil {
		t.Fatal(err)
	}
	pb := &ptadBench{e: env{seconds: 45}, refs: parseTable(text), keys: ptadKeys()}
	fresh := make([][]byte, len(pb.keys))
	skeleton := func(seed int64) (misses []string, hits int) {
		items := pb.schedule(seed, fresh)
		for _, it := range items {
			if it.fresh {
				misses = append(misses, fmt.Sprintf("%s@%v", it.key, it.due))
			} else {
				hits++
			}
		}
		return misses, hits
	}
	m1, h1 := skeleton(1)
	m2, h2 := skeleton(2)
	if len(m1) != len(pb.keys) || h1 != keyRepeats*len(pb.keys) || h2 != h1 {
		t.Fatalf("block of %d misses and %d/%d hits, want %d and %d", len(m1), h1, h2, len(pb.keys), keyRepeats*len(pb.keys))
	}
	if strings.Join(m1, " ") != strings.Join(m2, " ") {
		t.Errorf("the misses' keys or due times depend on the seed:\n%v\n%v", m1, m2)
	}
	// Gaps grow with cost: the costliest miss opens the longest one.
	var misses []item
	for _, it := range pb.schedule(1, fresh) {
		if it.fresh {
			misses = append(misses, it)
		}
	}
	var maxCost, longestCost float64
	var longest time.Duration
	for j, it := range misses {
		c := pb.missCost(it.key)
		maxCost = max(maxCost, c)
		if j+1 == len(misses) {
			break
		}
		if gap := misses[j+1].due - it.due; gap > longest {
			longest, longestCost = gap, c
		}
	}
	if longestCost != maxCost {
		t.Errorf("longest gap follows a miss of cost %g, want the costliest, %g", longestCost, maxCost)
	}
}
