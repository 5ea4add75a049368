package repro_test

import (
	"context"
	"reflect"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/machine/oracle"
	"repro/internal/workloads"
)

// The end-to-end differential obligation of the record-and-replay
// split: for every workload and every Config in the sensitivity sweep
// grid, the served result — cycle counts, every Counters field, and
// program output — is byte-identical to the test-only oracle's direct
// interpretation, at one worker and at eight. EvaluateCtx re-times each
// trace group through machine.ReplayBatch, so the EvaluateCtx legs below
// exercise the batched engine end-to-end; the explicit ReplayBatch and
// Replay legs pin the machine-level contract per workload over the full
// grid.

func TestReplayEquivalentToDirectOnAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	cfgs := experiments.MachineSweepConfigs()
	for _, w := range workloads.All() {
		c, err := repro.CompileCtx(context.Background(), w.Src, repro.Config{
			Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs,
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if c.ProfileErr != nil {
			t.Fatalf("%s: %v", w.Name, c.ProfileErr)
		}

		want := make([]*machine.Result, len(cfgs))
		for i, cfg := range cfgs {
			if want[i], err = oracle.Run(c.Code, w.RefArgs, cfg); err != nil {
				t.Fatalf("%s %+v: oracle: %v", w.Name, cfg, err)
			}
		}

		serial, err := c.EvaluateCtx(context.Background(), w.RefArgs, cfgs, 1)
		if err != nil {
			t.Fatalf("%s: evaluate (1 worker): %v", w.Name, err)
		}
		parallel, err := c.EvaluateCtx(context.Background(), w.RefArgs, cfgs, 8)
		if err != nil {
			t.Fatalf("%s: evaluate (8 workers): %v", w.Name, err)
		}

		// machine-level legs: one ReplayBatch over the whole grid, and
		// per-config Replay, on the same trace
		tr, err := machine.Record(c.Code, w.RefArgs, machine.Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", w.Name, err)
		}
		batch, err := machine.ReplayBatch(c.Code, tr, cfgs)
		if err != nil {
			t.Fatalf("%s: batch: %v", w.Name, err)
		}
		for i, cfg := range cfgs {
			single, err := machine.Replay(c.Code, tr, cfg, nil)
			if err != nil {
				t.Fatalf("%s %+v: replay: %v", w.Name, cfg, err)
			}
			for _, got := range []struct {
				leg string
				res *machine.Result
			}{{"evaluate/1", serial[i]}, {"evaluate/8", parallel[i]}, {"batch", batch[i]}, {"replay", single}} {
				if !reflect.DeepEqual(want[i], got.res) {
					t.Errorf("%s %+v: %s != oracle\noracle %+v\n%-6s %+v",
						w.Name, cfg, got.leg, want[i], got.leg, got.res)
				}
			}
		}
	}
}

// TestRunUsesTracePathTransparently pins that the default Compilation.Run
// (trace-backed) matches the oracle exactly, including for the
// pipelined model of PipelinedMachine.
func TestRunUsesTracePathTransparently(t *testing.T) {
	w, ok := workloads.ByName("equake")
	if !ok {
		t.Fatal("equake not registered")
	}
	for _, mcfg := range []machine.Config{{}, repro.PipelinedMachine(), {ALATSize: 4}} {
		cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs, Machine: mcfg}
		c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := c.RunCtx(context.Background(), w.RefArgs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Run(c.Code, w.RefArgs, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(traced, want) {
			t.Errorf("%+v: traced Run != oracle\ntraced %+v\noracle %+v", mcfg, traced, want)
		}
	}
}

// TestShardedReuseLimitMatchesSerial asserts the ROADMAP-item contract:
// the sharded Fig. 12 reuse-limit simulation produces totals (and so
// PotentialReduction) identical to the serial walk, for every workload.
func TestShardedReuseLimitMatchesSerial(t *testing.T) {
	for _, w := range workloads.All() {
		serial, err := repro.ReuseLimitCtx(context.Background(), w.Src, w.RefArgs, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		sharded, err := repro.ReuseLimitCtx(context.Background(), w.Src, w.RefArgs, 8)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if serial.Loads != sharded.Loads || serial.Reused != sharded.Reused {
			t.Errorf("%s: sharded totals diverge: serial %d/%d, sharded %d/%d",
				w.Name, serial.Reused, serial.Loads, sharded.Reused, sharded.Loads)
		}
		if serial.PotentialReduction() != sharded.PotentialReduction() {
			t.Errorf("%s: PotentialReduction diverges: %v vs %v",
				w.Name, serial.PotentialReduction(), sharded.PotentialReduction())
		}
	}
}
