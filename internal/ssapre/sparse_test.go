package ssapre_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/ssapre"
	"repro/internal/workloads"
)

// compileVisits compiles src with one worker and no build cache and
// returns the blocks and statements the SSAPRE web phases visited.
func compileVisits(t *testing.T, src string, cfg repro.Config) (blocks, stmts int64) {
	t.Helper()
	cfg.Workers = 1
	var err error
	blocks, stmts = ssapre.WebVisits(func() {
		_, err = repro.CompileCtx(context.Background(), src, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	return blocks, stmts
}

// TestWebVisitsPerKernel pins, per paper kernel under profile-guided
// speculation, the blocks and statements the web phases visit. Each web
// walks only its Φs, occurrences and Φ operands and scans forward only
// through the blocks down-safety explores, so a change that brings back
// a whole-function walk per web moves these numbers by orders of
// magnitude. The dense walks this replaced visited 55,395 blocks and
// 342,904 statements over the 8 kernels (rename and finalize each
// 23,011 blocks and 146,502 statements, down-safety 9,373 and 49,900).
func TestWebVisitsPerKernel(t *testing.T) {
	repro.SetCacheEnabled(false)
	defer repro.SetCacheEnabled(true)
	want := map[string][2]int64{
		"gzip": {2402, 488}, "vpr": {1244, 299}, "mcf": {6772, 1143}, "equake": {7352, 1482},
		"art": {4550, 772}, "ammp": {5917, 1275}, "bzip2": {684, 190}, "twolf": {1746, 402},
	}
	var totalStmts int64
	for _, w := range workloads.All() {
		b, s := compileVisits(t, w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
		totalStmts += s
		if wb := want[w.Name]; wb != [2]int64{b, s} {
			t.Errorf("%s: web phases visited %d blocks and %d statements, want %d and %d", w.Name, b, s, wb[0], wb[1])
		}
	}
	const dense = 342904
	if totalStmts*10 > dense {
		t.Errorf("web phases visited %d statements over the kernels, want at most a tenth of the dense walks' %d", totalStmts, dense)
	}
}

// TestWebVisitsScaleLinearly compiles a function with k independent
// single-occurrence expressions: the web phases' work must grow linearly
// in k (a whole-function walk per web would grow it quadratically).
func TestWebVisitsScaleLinearly(t *testing.T) {
	repro.SetCacheEnabled(false)
	defer repro.SetCacheEnabled(true)
	gen := func(k int) string {
		var sb strings.Builder
		sb.WriteString("int main() {\n\tint a = arg(0);\n")
		for i := 1; i <= k; i++ {
			fmt.Fprintf(&sb, "\tprint(a + %d);\n", i)
		}
		sb.WriteString("\treturn 0;\n}\n")
		return sb.String()
	}
	cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{1}}
	b100, s100 := compileVisits(t, gen(100), cfg)
	b1000, s1000 := compileVisits(t, gen(1000), cfg)
	t.Logf("k=100: %d blocks, %d statements; k=1000: %d blocks, %d statements", b100, s100, b1000, s1000)
	if s100 < 100 || s1000 > 11*s100 || b1000 > 11*b100+10 {
		t.Errorf("k=100 visited %d blocks and %d statements, k=1000 %d and %d: want linear growth", b100, s100, b1000, s1000)
	}
}
