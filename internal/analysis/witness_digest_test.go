package analysis_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"introspect/internal/analysis"
	"introspect/internal/bits"
	"introspect/internal/ir"
	"introspect/internal/pta"
	"introspect/internal/randprog"
)

var updateWitnesses = flag.Bool("update-witnesses", false, "rewrite testdata/witness_digest.golden instead of comparing")

// witnessDigest hashes every var-node witness of res: one
// Explain(...).Format line per (var, ctx, hc) fact, in node order and
// ascending hc order within a node. It returns the hex sha256 and the
// number of facts hashed.
func witnessDigest(t *testing.T, label string, prog *ir.Program, res *pta.Result) (string, int) {
	t.Helper()
	h := sha256.New()
	facts := 0
	res.ForEachVarCtx(func(v ir.VarID, ctx pta.Ctx, pt *bits.Set) {
		pt.ForEach(func(hc int32) {
			w, ok := res.Explain(v, ctx, hc)
			if !ok {
				t.Fatalf("%s: no witness for %s -> %s", label, prog.VarName(v), prog.HeapName(res.HeapOf(hc)))
			}
			fmt.Fprintln(h, w.Format(prog))
			facts++
		})
	})
	return fmt.Sprintf("%x", h.Sum(nil)), facts
}

// TestWitnessDigestGolden pins the exact derivation witness of every
// var-node fact — not just their validity, which the pta replay tests
// check — over random programs and two suite benchmarks, so a change
// to how facts propagate or how provenance is recorded cannot silently
// pick different first derivations. Refresh with
// `go test ./internal/analysis -run WitnessDigest -args -update-witnesses`.
func TestWitnessDigestGolden(t *testing.T) {
	var lines []string
	add := func(label string, prog *ir.Program, res *pta.Result) {
		digest, facts := witnessDigest(t, label, prog, res)
		lines = append(lines, fmt.Sprintf("%s facts=%d sha256=%s", label, facts, digest))
	}
	for seed := int64(1); seed <= 20; seed++ {
		prog := randprog.Generate(seed, randprog.Default())
		for _, spec := range []string{"insens", "2objH", "1call"} {
			res, err := pta.Analyze(context.Background(), prog, spec, pta.Options{Budget: -1, Provenance: true})
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("seed%d/%s", seed, spec), prog, res)
		}
	}
	for _, bench := range []string{"chart", "eclipse"} {
		for _, spec := range []string{"insens", "2objH-IntroA"} {
			res, err := analysis.Run(context.Background(), analysis.Request{
				Source:     &analysis.Source{Bench: bench},
				Job:        analysis.Job{Spec: spec},
				Provenance: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			add(bench+"/"+spec, res.Prog, res.Main)
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "witness_digest.golden")
	if *updateWitnesses {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wl := strings.Split(string(want), "\n")
		for i, l := range strings.Split(got, "\n") {
			if i >= len(wl) || l != wl[i] {
				t.Errorf("witness digest line %d:\n got %s\nwant %s", i+1, l, at(wl, i))
			}
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}
