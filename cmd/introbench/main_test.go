package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// updateGolden refreshes testdata/fig5.golden instead of comparing
// against it. Pass it through go test's -args separator.
var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// msColumn matches the trailing wall-clock milliseconds column, the
// only nondeterministic part of the figure tables. The golden file has
// it scrubbed to a dash; TIMEOUT rows already end in a dash and are
// untouched.
var msColumn = regexp.MustCompile(`(?m) +\d+$`)

// TestFig5Golden regenerates Figure 5 in-process and byte-compares it
// (modulo the ms column) against testdata/fig5.golden, which was
// captured before the pipeline refactor. A diff here means the
// analysis layer changed observable results, not just plumbing.
//
// Refresh after an intentional change with:
//
//	go test ./cmd/introbench -run Fig5Golden -args -update
func TestFig5Golden(t *testing.T) { testFigGolden(t, "5", "fig5.golden") }

// TestFig4Golden pins the Figure 4 table: the share of call sites and
// objects each heuristic leaves unrefined on every subject, computed
// from the insensitive pass alone.
//
// Refresh after an intentional change with:
//
//	go test ./cmd/introbench -run Fig4Golden -args -update
func TestFig4Golden(t *testing.T) { testFigGolden(t, "4", "fig4.golden") }

// TestFigCSGolden pins the cut-shortcut extension figure the same way:
// the solver is deterministic, so the whole table (work units,
// precision counters, timeout pattern) must reproduce byte-for-byte.
//
// Refresh after an intentional change with:
//
//	go test ./cmd/introbench -run FigCSGolden -args -update
func TestFigCSGolden(t *testing.T) { testFigGolden(t, "8", "figcs.golden") }

// TestFigTaintGolden pins the taint-client extension figure. Every
// number in it is deterministic (work units and report counts; there
// is no ms column), so the byte-compare asserts the full per-policy
// true/false-positive spread against the kernel ground truth.
//
// Refresh after an intentional change with:
//
//	go test ./cmd/introbench -run FigTaintGolden -args -update
func TestFigTaintGolden(t *testing.T) { testFigGolden(t, "9", "figtaint.golden") }

// TestFig5ParGolden pins the sharded solver's figure output:
// Figure 5 regenerated with -parallel-solve 4 against its own golden.
// Everything except the schedule-dependent work column must match
// fig5.golden — the parallel solver reaches the same fixpoint, the
// same timeout pattern, the same precision counters.
//
// Refresh after an intentional change with:
//
//	go test ./cmd/introbench -run Fig5ParGolden -args -update
func TestFig5ParGolden(t *testing.T) {
	testFigGolden(t, "5", "fig5par.golden", "-parallel-solve", "4")
}

// TestFig5WorkersLockstep pins the Workers=1 contract end to end:
// -parallel-solve 1 must route through the serial solver and reproduce
// fig5.golden byte-for-byte — including the work column, which any
// sharded schedule would perturb. Unlike the golden tests this never
// rewrites its expectation: fig5.golden is owned by the serial path.
func TestFig5WorkersLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a full figure; skipped with -short")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fig", "5", "-parallel-solve", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := msColumn.ReplaceAll(buf.Bytes(), []byte("        -"))
	want, err := os.ReadFile(filepath.Join("testdata", "fig5.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-parallel-solve 1 diverges from the serial golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func testFigGolden(t *testing.T, fig, file string, extra ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("regenerates a full figure; skipped with -short")
	}
	var buf bytes.Buffer
	if err := run(append([]string{"-fig", fig}, extra...), &buf); err != nil {
		t.Fatal(err)
	}
	got := msColumn.ReplaceAll(buf.Bytes(), []byte("        -"))

	golden := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("figure %s output differs from golden.\n--- got ---\n%s\n--- want ---\n%s", fig, got, want)
	}
}
