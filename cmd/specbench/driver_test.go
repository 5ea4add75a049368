package main

import (
	"context"
	"reflect"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestDriverMatchesRepro pins the stage driver to the pipeline it
// mirrors: for every kernel, profile-guided mode and build variant, the
// driver's build has the same code fingerprint, SSAPRE statistics and
// hardening report as repro.CompileCtx's, and replays to the same
// machine result as EvaluateCtx — through the single-config path an
// evaluation takes and, for the plain variant, the batched grid a sweep
// takes.
func TestDriverMatchesRepro(t *testing.T) {
	ctx := context.Background()
	variants := []struct {
		name string
		set  func(*repro.Config)
	}{
		{"plain", func(*repro.Config) {}},
		{"verify", func(c *repro.Config) { c.VerifyPasses = true }},
		{"fence", func(c *repro.Config) { c.Harden = "fence" }},
		{"hoist", func(c *repro.Config) { c.Harden = "hoist" }},
		{"pipelined", func(c *repro.Config) { c.Schedule = true; c.Machine = repro.PipelinedMachine() }},
	}
	d := newDriver()
	for _, w := range workloads.All() {
		for _, mode := range poolModes {
			for _, v := range variants {
				cfg := repro.Config{Spec: mode, ProfileArgs: w.ProfileArgs}
				v.set(&cfg)
				name := w.Name + "/" + mode.String() + "/" + v.name
				c, err := repro.CompileCtx(ctx, w.Src, cfg)
				if err != nil {
					t.Fatalf("%s: repro: %v", name, err)
				}
				b, err := d.compile(ctx, scope{}, w.Src, cfg)
				if err != nil {
					t.Fatalf("%s: driver: %v", name, err)
				}
				if c.Code.Fingerprint() != b.code.Fingerprint() {
					t.Errorf("%s: code fingerprints differ", name)
				}
				if c.TotalStats() != b.totalStats() {
					t.Errorf("%s: stats %+v, repro %+v", name, b.totalStats(), c.TotalStats())
				}
				if !reflect.DeepEqual(c.Harden, b.harden) {
					t.Errorf("%s: harden report %+v, repro %+v", name, b.harden, c.Harden)
				}
				want, err := c.EvaluateCtx(ctx, w.RefArgs, []machine.Config{cfg.Machine}, 0)
				if err != nil {
					t.Fatalf("%s: repro evaluate: %v", name, err)
				}
				got, err := d.run(ctx, scope{}, b, w.RefArgs, cfg.Machine)
				if err != nil {
					t.Fatalf("%s: driver run: %v", name, err)
				}
				if !reflect.DeepEqual(got, want[0]) {
					t.Errorf("%s: machine result %+v, repro %+v", name, got, want[0])
				}
				if v.name != "plain" {
					continue
				}
				grid := experiments.MachineSweepConfigs()
				wantGrid, err := c.EvaluateCtx(ctx, w.RefArgs, grid, 0)
				if err != nil {
					t.Fatalf("%s: repro grid: %v", name, err)
				}
				gotGrid, err := d.runGrid(ctx, scope{}, b, w.RefArgs, grid, 0)
				if err != nil {
					t.Fatalf("%s: driver grid: %v", name, err)
				}
				if !reflect.DeepEqual(gotGrid, wantGrid) {
					t.Errorf("%s: grid results differ from repro's", name)
				}
			}
		}
	}
}

// TestSpanSelfTime pins self time and coverage on a hand-built request:
// overlapping children count once, and a child running past its parent
// is clipped.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Req: 0, ID: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{Req: 0, ID: 2, Parent: 1, Name: "machine.replay", Start: 10, End: 50},
		{Req: 0, ID: 3, Parent: 1, Name: "machine.replay", Start: 30, End: 70},
		{Req: 0, ID: 4, Parent: 1, Name: "ssapre.run", Start: 90, End: 120},
		{Req: 0, ID: 5, Parent: 4, Name: "specheck.verify", Start: 95, End: 105},
	}
	sum := summarize(spans)
	want := map[string]int64{"request": 30, "machine.replay": 80, "ssapre.run": 20, "specheck.verify": 10}
	if !reflect.DeepEqual(sum.self, want) {
		t.Errorf("self times %v, want %v", sum.self, want)
	}
	if sum.rootNs != 100 || sum.coveredNs != 70 {
		t.Errorf("root %d covered %d, want 100 and 70", sum.rootNs, sum.coveredNs)
	}
}
