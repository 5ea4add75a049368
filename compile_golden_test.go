package repro_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/ssapre"
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

// TestProfileBytesPinned pins the SHA-256 of every paper kernel's
// serialized profile at its training input. The profiling interpreter
// may change how it counts, never what the profile says.
func TestProfileBytesPinned(t *testing.T) {
	want := map[string]string{
		"gzip":   "b357ea667aeb13b804cf1ef6ffb12c225529c47ca5166f1d3d93a295280eeb65",
		"vpr":    "afaa39b2249cb47e2d538569447fa1a32bdbe05c4f06cef01fd66f1813361b9c",
		"mcf":    "2951ebc6592a447f8d9dd06d1b0805ac3209ef8a4bc936f007ddf15136356120",
		"equake": "2ac5862082a4e09b92b68a2b3380ad7721bc38762b4baeb7c9035bc5b7fb9e81",
		"art":    "8bbe5c296fbd748b72c508be254af68b829cf30b6a63caefba554056f521060f",
		"ammp":   "356a93acd09777685ffb25cf3aaf143e328dd585c2d7e7feee705ad712b6201d",
		"bzip2":  "cd6aba886441583bb3db419ebd062e9cd2ddd00366119538971f191732259214",
		"twolf":  "9ef805e97ab7d48b0adb68696a7872ef8084c38554d3fe05841f97aea64bb5d0",
	}
	for _, w := range workloads.All() {
		data, err := repro.CollectProfileCtx(context.Background(), w.Src, w.ProfileArgs)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want[w.Name] {
			t.Errorf("%s: profile SHA-256 %s, want %s", w.Name, got, want[w.Name])
		}
	}
}

// sameNamedSrc stores through one site into two address-taken locals
// that share the name x (the inner one in a nested scope): 10 of the 40
// stores hit the outer x, 30 the inner one.
const sameNamedSrc = `int main() { int n = arg(0); int s = 0; int x = 0; int *p = &x; int *q; { int x = 5; q = &x; } for (int i = 0; i < n; i++) { int *r = q; if (i % 4 == 0) r = p; s += x; *r = i; s += x; } print(s); return 0; }`

// TestSameNamedLocalsDeterministic pins how a profile names locals: by
// function and variable name, so the two x's of sameNamedSrc are one
// LOC whose count is the sum of their stores (40 of 40), and neither
// the serialized profile nor the build it drives depends on map order.
func TestSameNamedLocalsDeterministic(t *testing.T) {
	ctx := context.Background()
	train := []int64{40}
	cfg := repro.Config{Spec: repro.SpecCost, SpecThreshold: 0.1, ProfileArgs: train}
	var first []byte
	var firstFP [32]byte
	var firstStats ssapre.Stats
	for i := 0; i < 30; i++ {
		repro.ResetCaches()
		data, err := repro.CollectProfileCtx(ctx, sameNamedSrc, train)
		if err != nil {
			t.Fatal(err)
		}
		c, err := repro.CompileCtx(ctx, sameNamedSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp, stats := c.Code.Fingerprint(), c.TotalStats()
		if i == 0 {
			first, firstFP, firstStats = data, fp, stats
			var prof struct {
				Stores map[string]map[string]uint64 `json:"stores"`
				Totals map[string]uint64            `json:"totals"`
			}
			if err := json.Unmarshal(data, &prof); err != nil {
				t.Fatal(err)
			}
			if len(prof.Stores) != 1 {
				t.Fatalf("store sites %v, want one", prof.Stores)
			}
			for site, locs := range prof.Stores {
				if locs["l:main:x"] != 40 || prof.Totals[site] != 40 {
					t.Errorf("store site %s: l:main:x %d of total %d, want 40 of 40 (%v)",
						site, locs["l:main:x"], prof.Totals[site], locs)
				}
			}
			continue
		}
		if !bytes.Equal(data, first) {
			t.Fatalf("reset %d: serialized profile changed:\n%s\nvs\n%s", i, data, first)
		}
		if fp != firstFP || stats != firstStats {
			t.Fatalf("reset %d: SpecCost build changed: stats %+v, first %+v", i, stats, firstStats)
		}
	}
}
