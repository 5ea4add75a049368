package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// The tests in this file pin the paper's §5 results: BENCH_paper.json
// holds the counters behind every figure (`experiments -exp all -json`),
// and EXPERIMENTS.md's tables are recomputed from it. A change that moves
// a figure regenerates the ledger and the tables together.

const paperLedger = "BENCH_paper.json"

// TestPaperLedgerCurrent regenerates the report in-process and compares
// it byte for byte with the committed ledger, so a stale BENCH_paper.json
// fails `go test`, not only CI's benchguard run.
func TestPaperLedgerCurrent(t *testing.T) {
	rep, err := experiments.RunReportCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := experiments.MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(paperLedger)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is stale: regenerate it with `go run ./cmd/experiments -exp all -json > %s`", paperLedger, paperLedger)
	}
}

// TestExperimentsMatchLedger recomputes every cell of EXPERIMENTS.md's
// §5.1, Fig. 10, Fig. 11, Fig. 12 and §5.2 tables from the committed
// ledger, at the precision the cell prints, and fails on any mismatch.
func TestExperimentsMatchLedger(t *testing.T) {
	data, err := os.ReadFile(paperLedger)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	rows := map[string]experiments.Row{}
	for _, r := range rep.Rows {
		rows[r.Name] = r
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}

	// §5.1: one row per metric; the measured value is the third column
	smvp := map[string]float64{
		"loads converted to checks":       rep.Smvp.ChecksPerLoad,
		"speculative speedup over base":   rep.Smvp.Speedup,
		"manually-tuned (no-check) bound": rep.Smvp.ManualSpeedup,
	}
	for _, c := range table(t, doc, "## §5.1") {
		v, ok := smvp[c[0]]
		if !ok || len(c) != 3 {
			t.Errorf("§5.1: unexpected row %q", c)
			continue
		}
		delete(smvp, c[0])
		checkCell(t, "§5.1 "+c[0], c[2], v)
	}
	for m := range smvp {
		t.Errorf("§5.1: no row for %q", m)
	}

	// the per-benchmark tables: one column per Row metric
	for _, tab := range []struct {
		heading string
		cols    []func(experiments.Row) float64
	}{
		{"## Figure 10", []func(experiments.Row) float64{
			experiments.Row.LoadReduction, experiments.Row.Speedup, experiments.Row.DataCycleReduction}},
		{"## Figure 11", []func(experiments.Row) float64{
			experiments.Row.CheckRatio, experiments.Row.MissRatio}},
		{"## Figure 12", []func(experiments.Row) float64{
			experiments.Row.LoadReduction,
			func(r experiments.Row) float64 { return r.ReusePotential },
			func(r experiments.Row) float64 { return r.AggressiveReduction }}},
		{"## §5.2", []func(experiments.Row) float64{
			experiments.Row.LoadReduction, experiments.Row.HeurLoadReduction}},
	} {
		for _, c := range table(t, doc, tab.heading) {
			r, ok := rows[c[0]]
			if !ok || len(c) != len(tab.cols)+1 {
				t.Errorf("%s: unexpected row %q", tab.heading, c)
				continue
			}
			for i, col := range tab.cols {
				checkCell(t, fmt.Sprintf("%s %s column %d", tab.heading, c[0], i+1), c[i+1], col(r))
			}
		}
	}
}

// table returns the body cells of the first markdown table in the
// section of doc that starts with heading, one trimmed slice per row.
func table(t *testing.T, doc []byte, heading string) [][]string {
	t.Helper()
	_, sec, ok := strings.Cut(string(doc), "\n"+heading)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no section %q", heading)
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break // the first table ended
			}
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.TrimSpace(c))
		}
		rows = append(rows, cells)
	}
	if len(rows) < 3 {
		t.Fatalf("%s: no table with a body", heading)
	}
	return rows[2:] // after the header and the |---| line
}

// checkCell fails unless cell prints the fraction v as a percentage at
// the cell's own precision ("26.0%", "0.79%", "0%"; a leading U+2212
// minus reads as '-').
func checkCell(t *testing.T, where, cell string, v float64) {
	t.Helper()
	cell = strings.ReplaceAll(cell, "−", "-")
	num, ok := strings.CutSuffix(cell, "%")
	if !ok {
		t.Errorf("%s: cell %q is not a percentage", where, cell)
		return
	}
	decimals := 0
	if _, frac, ok := strings.Cut(num, "."); ok {
		decimals = len(frac)
	}
	if want := fmt.Sprintf("%.*f%%", decimals, v*100); cell != want {
		t.Errorf("%s: EXPERIMENTS.md says %s, the ledger gives %s", where, cell, want)
	}
}
