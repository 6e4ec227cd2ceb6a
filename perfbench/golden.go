package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"introspect/internal/figures"
	"introspect/internal/report"
)

// The references are the repository's own records, read and never
// written: the figure goldens and the newest BENCH_<date>.json.
const (
	fig5Golden  = "cmd/introbench/testdata/fig5.golden"
	figCSGolden = "cmd/introbench/testdata/figcs.golden"
	fig5Title   = "Figure 5: 2objH introspective variants (time + 3 precision metrics)"
)

// msColumn matches a table row's trailing wall-clock column, the one
// part of a figure that differs between runs.
var msColumn = regexp.MustCompile(`(?m) +\d+$`)

// goldenRow is one benchmark × analysis line of a figure table, as text.
type goldenRow struct {
	bench, analysis                  string
	workK, poly, reach, cast, millis string
}

func (r goldenRow) timedOut() bool { return r.workK == "TIMEOUT" }

// column names a comparable column of a figure row.
type column int

const (
	colWork column = iota
	colPoly
	colReach
	colCast
)

var columnNames = map[column]string{colWork: "work(K)", colPoly: "polycall", colReach: "reachmeth", colCast: "maycast"}

func (r goldenRow) get(c column) string {
	switch c {
	case colWork:
		return r.workK
	case colPoly:
		return r.poly
	case colReach:
		return r.reach
	default:
		return r.cast
	}
}

// parseTable reads the rows of every figure table in text, keyed by
// "bench analysis". Title, header, blank and trailer lines are skipped.
func parseTable(text string) map[string]goldenRow {
	out := map[string]goldenRow{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 7 || f[0] == "benchmark" {
			continue
		}
		r := goldenRow{bench: f[0], analysis: f[1], workK: f[2], poly: f[3], reach: f[4], cast: f[5], millis: f[6]}
		out[r.bench+" "+r.analysis] = r
	}
	return out
}

// rowOf renders one analysis outcome the way report.FormatTable does.
func rowOf(r report.Row) goldenRow {
	t := parseTable(report.FormatTable("", []report.Row{r}))
	return t[r.Benchmark+" "+r.Analysis]
}

// compareRow checks the named columns of got against want; a TIMEOUT
// row must match a TIMEOUT row. It returns one message per difference.
func compareRow(want, got goldenRow, cols ...column) []string {
	key := want.bench + " " + want.analysis
	if want.timedOut() != got.timedOut() {
		return []string{fmt.Sprintf("%s: timed out %v, reference %v", key, got.timedOut(), want.timedOut())}
	}
	if want.timedOut() {
		return nil
	}
	var out []string
	for _, c := range cols {
		if want.get(c) != got.get(c) {
			out = append(out, fmt.Sprintf("%s: %s %s, reference %s", key, columnNames[c], got.get(c), want.get(c)))
		}
	}
	return out
}

// renderFig5 prints rows exactly as cmd/introbench prints Figure 5,
// with the ms column masked.
func renderFig5(rows []report.Row) string {
	rows = append([]report.Row(nil), rows...)
	figures.SortRows(rows, "2objH")
	sum := figures.Summary(rows)
	text := report.FormatTable(fig5Title, rows) + "\n" +
		fmt.Sprintf("precision retained vs full %s (where full terminates): IntroA %.0f%%, IntroB %.0f%%\n\n",
			"2objH", 100*sum["A"], 100*sum["B"])
	return msColumn.ReplaceAllString(text, "        -")
}

// diffLines names the first differing line of two texts.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d: got %q, reference %q", i+1, gl, wl)
		}
	}
	return ""
}

// benchRecord is the Fig5 entry of a BENCH_<date>.json record: the
// figure's total main-pass work, completed-run derivations and timeout
// count from the serial solver.
type benchRecord struct {
	file     string
	work     int64
	cderivs  int64
	timeouts int
}

// loadBenchRecord reads the Fig5 entry of the newest BENCH_*.json in
// root, the reference scripts/bench.sh gates against.
func loadBenchRecord(root string) (benchRecord, error) {
	files, _ := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if len(files) == 0 {
		return benchRecord{}, fmt.Errorf("no BENCH_*.json record in %s", root)
	}
	sort.Strings(files)
	path := files[len(files)-1]
	b, err := os.ReadFile(path)
	if err != nil {
		return benchRecord{}, err
	}
	var doc struct {
		Benchmarks map[string][]struct {
			Work     float64 `json:"work"`
			Cderivs  float64 `json:"cderivs"`
			Timeouts float64 `json:"timeouts"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return benchRecord{}, fmt.Errorf("%s: %w", path, err)
	}
	f := doc.Benchmarks["Fig5"]
	if len(f) == 0 {
		return benchRecord{}, fmt.Errorf("%s: no Fig5 entry", path)
	}
	return benchRecord{file: filepath.Base(path), work: int64(f[0].Work), cderivs: int64(f[0].Cderivs),
		timeouts: int(f[0].Timeouts)}, nil
}

func readRef(root, rel string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		return "", fmt.Errorf("reading reference: %w", err)
	}
	return string(b), nil
}
