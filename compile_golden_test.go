package repro_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/compile_golden.txt from the current compiler")

const goldenPath = "testdata/compile_golden.txt"

// goldenCase is one source compiled under every speculation mode.
type goldenCase struct {
	name  string
	src   string
	train []int64
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, w := range workloads.All() {
		cases = append(cases, goldenCase{name: "workload/" + w.Name, src: w.Src, train: w.ProfileArgs})
	}
	train := map[string][]int64{"figure2.mc": {0}, "smvp.mc": {12, 1}}
	files, err := filepath.Glob("testdata/*.mc")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(f)
		tr, ok := train[base]
		if !ok {
			t.Fatalf("%s: no training input listed for the golden pin", base)
		}
		cases = append(cases, goldenCase{name: "testdata/" + base, src: string(src), train: tr})
	}
	for seed := int64(1); seed <= 64; seed++ {
		cases = append(cases, goldenCase{name: fmt.Sprintf("progGen/%d", seed), src: newProgGen(seed).generate(), train: []int64{3}})
	}
	return cases
}

// goldenLines compiles every case under every speculation mode and
// renders one line per compile: the machine program's fingerprint and
// all of Build.TotalStats.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, c := range goldenCases(t) {
		for _, mode := range []repro.SpecMode{repro.SpecOff, repro.SpecProfile, repro.SpecHeuristic, repro.SpecCost} {
			comp, err := repro.CompileCtx(context.Background(), c.src, repro.Config{Spec: mode, ProfileArgs: c.train, Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, mode, err)
			}
			s := comp.TotalStats()
			lines = append(lines, fmt.Sprintf("%s %s %x classes=%d elim=%d specelim=%d ins=%d specins=%d checks=%d adv=%d phis=%d sr=%d lftr=%d",
				c.name, mode, comp.Code.Fingerprint(),
				s.ExprClasses, s.Eliminated, s.SpecEliminated, s.Insertions, s.SpecInsertions,
				s.ChecksInserted, s.AdvLoadsMarked, s.PhisPlaced, s.StrengthReduced, s.LFTRApplied))
		}
	}
	return lines
}

// TestCompileGolden pins the compiled code and the optimizer statistics
// of every kernel, every testdata program and 64 generated programs under
// every speculation mode. An optimizer change that claims to preserve
// behaviour must leave this file untouched; regenerate it with
// -update-golden only for a change meant to alter the compiled code.
func TestCompileGolden(t *testing.T) {
	got := strings.Join(goldenLines(t), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, compiler produced %d", len(wl), len(gl))
	}
	bad := 0
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			if bad++; bad == 10 {
				t.Fatal("more mismatches elided")
			}
		}
	}
}
