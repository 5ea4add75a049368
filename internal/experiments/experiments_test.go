package experiments

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/workloads"
)

// TestPaperShape asserts the qualitative results the paper reports, on the
// modelled workloads:
//
//   - Fig. 10: art, ammp, equake, mcf, twolf show real load reductions and
//     speedups; gzip, vpr, bzip2 barely move; reductions don't translate
//     1:1 into speedup.
//   - Fig. 11: mis-speculation ratios are small; gzip's ratio is the
//     largest while its check count is negligible.
//   - Fig. 12: both limit methods upper-bound the achieved reduction, and
//     a low reuse limit (gzip) predicts a low achieved gain.
//   - §5.2: heuristic rules achieve reductions comparable to the profile.
//   - §5.1: smvp converts a large fraction of loads to checks; the
//     speculative speedup falls between zero and the manual bound.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	rows, err := RunAllCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if len(rows) != 8 {
		t.Fatalf("expected 8 benchmarks, got %d", len(rows))
	}

	winners := []string{"art", "ammp", "equake", "mcf", "twolf"}
	flat := []string{"vpr", "bzip2"}
	for _, n := range winners {
		r := byName[n]
		if r.LoadReduction() < 0.05 {
			t.Errorf("Fig10: %s load reduction %.1f%%, want >= 5%%", n, r.LoadReduction()*100)
		}
		if r.Speedup() <= 0 {
			t.Errorf("Fig10: %s speedup %.2f%%, want > 0", n, r.Speedup()*100)
		}
	}
	for _, n := range flat {
		r := byName[n]
		if r.LoadReduction() > 0.05 {
			t.Errorf("Fig10: %s load reduction %.1f%%, expected near zero", n, r.LoadReduction()*100)
		}
	}
	// load reduction exceeds speedup (loads are often cheap hits — the
	// paper's mcf observation)
	mcf := byName["mcf"]
	if mcf.Speedup() >= mcf.LoadReduction() {
		t.Errorf("Fig10: mcf speedup (%.1f%%) should lag its load reduction (%.1f%%)",
			mcf.Speedup()*100, mcf.LoadReduction()*100)
	}

	// Fig. 11
	for _, r := range rows {
		if r.MissRatio() > 0.10 {
			t.Errorf("Fig11: %s mis-speculation ratio %.1f%% too large", r.Name, r.MissRatio()*100)
		}
	}
	gzip := byName["gzip"]
	if gzip.Checks > 0 {
		if gzip.CheckRatio() > 0.05 {
			t.Errorf("Fig11: gzip check ratio %.2f%% should be negligible", gzip.CheckRatio()*100)
		}
		if gzip.MissRatio() == 0 {
			t.Error("Fig11: gzip should show some mis-speculation on its few checks")
		}
	}

	// Fig. 12: limits bound achieved gains; correlation at the extremes
	for _, r := range rows {
		if r.AggressiveReduction+1e-9 < r.LoadReduction() {
			t.Errorf("Fig12: %s aggressive bound %.1f%% below achieved %.1f%%",
				r.Name, r.AggressiveReduction*100, r.LoadReduction()*100)
		}
		if r.ReusePotential+0.02 < r.LoadReduction() {
			t.Errorf("Fig12: %s reuse limit %.1f%% below achieved %.1f%%",
				r.Name, r.ReusePotential*100, r.LoadReduction()*100)
		}
	}
	if gzip.ReusePotential > 0.15 {
		t.Errorf("Fig12: gzip reuse potential %.1f%% should be small (it predicts the tiny gain)",
			gzip.ReusePotential*100)
	}

	// §5.2: heuristic comparable to profile (within 10 points on winners)
	for _, n := range winners {
		r := byName[n]
		diff := r.LoadReduction() - r.HeurLoadReduction()
		if diff > 0.10 || diff < -0.10 {
			t.Errorf("§5.2: %s heuristic %.1f%% vs profile %.1f%% — not comparable",
				n, r.HeurLoadReduction()*100, r.LoadReduction()*100)
		}
	}
}

func TestSmvpShape(t *testing.T) {
	s, err := RunSmvpCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// paper: 39.8% of loads become checks; 6% speedup against a 14%
	// manual bound. Shape: large check fraction, positive speedup, at or
	// below the manual bound.
	if s.ChecksPerLoad < 0.20 || s.ChecksPerLoad > 0.60 {
		t.Errorf("checks/loads = %.1f%%, want 20-60%% (paper: 39.8%%)", s.ChecksPerLoad*100)
	}
	if s.Speedup <= 0 {
		t.Errorf("speculative speedup %.1f%% must be positive", s.Speedup*100)
	}
	if s.Speedup > s.ManualSpeedup+1e-9 {
		t.Errorf("speculative speedup %.1f%% exceeds the manual bound %.1f%%",
			s.Speedup*100, s.ManualSpeedup*100)
	}
}

func TestReportRendersAllTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	rep, err := RunReportCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintReport(&sb, rep)
	out := sb.String()
	for _, want := range []string{
		"§5.1", "Figure 10", "Figure 11", "Figure 12", "§5.2",
		"equake", "mcf", "gzip", "twolf",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestInputSensitivityShape(t *testing.T) {
	rows, err := RunSensitivityCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.OutputsCorrect {
			t.Errorf("%s: speculation changed program output", r.Name)
		}
		if r.MatchedFailed > r.MismatchFailed {
			t.Errorf("%s: matched profile fails more checks (%d) than the mismatched one (%d)",
				r.Name, r.MatchedFailed, r.MismatchFailed)
		}
	}
	// gzip and mcf must demonstrate the effect: failures under the
	// mismatched profile, none under the matched one
	for _, name := range []string{"gzip", "mcf"} {
		for _, r := range rows {
			if r.Name != name {
				continue
			}
			if r.MismatchFailed == 0 {
				t.Errorf("%s: expected mis-speculations under the mismatched profile", name)
			}
			if r.MatchedFailed != 0 {
				t.Errorf("%s: matched profile should not mis-speculate, got %d", name, r.MatchedFailed)
			}
		}
	}
}

// TestCompileFailsLoudlyOnProfileError pins the satellite fix for the
// silent StaticEstimate degrade: a workload whose training input faults
// must surface the profiling error instead of producing skewed
// profile-guided numbers.
func TestCompileFailsLoudlyOnProfileError(t *testing.T) {
	src := `
int main() {
	print(100 / arg(0));
	return 0;
}`
	_, err := build(context.Background(), src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{0}})
	if err == nil {
		t.Fatal("faulting training run must fail the experiment compile")
	}
	if !strings.Contains(err.Error(), "profiling run failed") {
		t.Errorf("error %q does not identify the profiling failure", err)
	}
	// a healthy training input compiles cleanly through the same wrapper
	if _, err := build(context.Background(), src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{5}}); err != nil {
		t.Fatalf("healthy compile failed: %v", err)
	}
}

// TestReportAblationRendersEveryLine renders `-exp ablation` and checks
// every case line and every ALAT line of both kernels. The full and
// no-data-speculation cases must report exactly the speculative and base
// counters of the kernel's Fig. 10 row, the default ALAT must time like
// the 128-entry one, and a larger ALAT must never fail or evict more.
func TestReportAblationRendersEveryLine(t *testing.T) {
	ctx := context.Background()
	var sb strings.Builder
	if err := ReportAblationCtx(ctx, &sb, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	caseLine := regexp.MustCompile(`(?m)^  (.{28}) +(\d+) cycles, +(\d+) plain loads, +(\d+) checks \((\d+) failed\)$`)
	alatLine := regexp.MustCompile(`(?m)^  ALAT +(\d+) entries: +(\d+) cycles, +(\d+) failed checks, +(\d+) evictions$`)
	atoi := func(s string) int64 {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	sections := strings.Split(strings.TrimSpace(out), "\n\n")
	if len(sections) != 2 {
		t.Fatalf("want one section per kernel, got %d:\n%s", len(sections), out)
	}
	for i, name := range []string{"equake", "mcf"} {
		sec := sections[i]
		if want := fmt.Sprintf("ablation on %s (cycles on ref input):\n", name); !strings.HasPrefix(sec, want) {
			t.Fatalf("section %d does not start with %q:\n%s", i, want, sec)
		}
		w, _ := workloads.ByName(name)
		row, err := RunOneCtx(ctx, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		cases := map[string][4]int64{} // cycles, plain loads, checks, failed
		for _, m := range caseLine.FindAllStringSubmatch(sec, -1) {
			cases[strings.TrimSpace(m[1])] = [4]int64{atoi(m[2]), atoi(m[3]), atoi(m[4]), atoi(m[5])}
		}
		for _, c := range []string{"full (profile+control spec)", "no data speculation",
			"no control speculation", "loads only (no arith PRE)", "no PRE at all"} {
			if _, ok := cases[c]; !ok {
				t.Errorf("%s: no %q line:\n%s", name, c, sec)
			}
		}
		if len(cases) != 5 {
			t.Errorf("%s: %d case lines, want 5:\n%s", name, len(cases), sec)
		}
		if got, want := cases["full (profile+control spec)"], [4]int64{row.SpecCycles, row.SpecLoads, row.Checks, row.FailedChecks}; got != want {
			t.Errorf("%s: full case %v, want the Fig. 10 row's %v", name, got, want)
		}
		if got, want := cases["no data speculation"], [4]int64{row.BaseCycles, row.BaseLoads, 0, 0}; got != want {
			t.Errorf("%s: no-data-speculation case %v, want the Fig. 10 base %v", name, got, want)
		}
		if c := cases["no PRE at all"]; c[2] != 0 {
			t.Errorf("%s: no PRE at all still issues %d checks", name, c[2])
		}
		alat := alatLine.FindAllStringSubmatch(sec, -1)
		if len(alat) != 4 {
			t.Fatalf("%s: %d ALAT lines, want 4:\n%s", name, len(alat), sec)
		}
		for j, size := range []int64{4, 8, 32, 128} {
			m := alat[j]
			if atoi(m[1]) != size {
				t.Errorf("%s: ALAT line %d is for %s entries, want %d", name, j, m[1], size)
			}
			if j > 0 {
				prev := alat[j-1]
				if atoi(m[3]) > atoi(prev[3]) || atoi(m[4]) > atoi(prev[4]) {
					t.Errorf("%s: %d entries fail or evict more than %s: %q vs %q", name, size, prev[1], m[0], prev[0])
				}
			}
		}
		if got := atoi(alat[3][2]); got != row.SpecCycles {
			t.Errorf("%s: 128-entry ALAT takes %d cycles, the default %d", name, got, row.SpecCycles)
		}
	}
}
