package machine_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/machine"
)

// TestReplayBatchMatchesReplay is the machine-level differential test
// for the batched timing engine: for every program in the replay zoo,
// every lane of one ReplayBatch over the whole sweep grid must equal the
// oracle field for field — regardless of how the batch mixes serial and
// pipelined points or duplicates configs — and so must the one-lane
// Replay of the same config.
func TestReplayBatchMatchesReplay(t *testing.T) {
	for name, tc := range machine.ReplayPrograms() {
		tr, err := machine.Record(tc.Prog, tc.Args, machine.Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", name, err)
		}
		cfgs := machine.ReplaySweep()
		// duplicate a pipelined config: identical lanes must not perturb
		// each other's scoreboards
		cfgs = append(cfgs, machine.Config{Pipelined: true}, machine.Config{Pipelined: true})
		batch, err := machine.ReplayBatch(tc.Prog, tr, cfgs)
		if err != nil {
			t.Fatalf("%s: batch: %v", name, err)
		}
		if len(batch) != len(cfgs) {
			t.Fatalf("%s: %d results for %d configs", name, len(batch), len(cfgs))
		}
		for i, cfg := range cfgs {
			want := mustOracle(t, name, tc, cfg)
			if !reflect.DeepEqual(want, batch[i]) {
				t.Errorf("%s %+v:\noracle %+v\nbatch  %+v", name, cfg, want, batch[i])
			}
			single, err := machine.Replay(tc.Prog, tr, cfg, nil)
			if err != nil {
				t.Fatalf("%s %+v: replay: %v", name, cfg, err)
			}
			if !reflect.DeepEqual(want, single) {
				t.Errorf("%s %+v:\noracle %+v\nreplay %+v", name, cfg, want, single)
			}
		}
	}
}

// TestReplayBatchFaultParity pins the batch's error contract: a lane
// with limits tighter than the recorded run needed, or with another
// memory layout, refuses the whole batch with ErrTraceMismatch; a lane
// whose limits sit between the run's needs and the recording limits
// replays exactly; an empty batch is a no-op.
func TestReplayBatchFaultParity(t *testing.T) {
	tc := machine.ReplayPrograms()["fib"]
	tr, err := machine.Record(tc.Prog, tc.Args, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}

	for _, bad := range []machine.Config{{MaxSteps: 50}, {MaxCallDepth: 3}, {StackSlots: 64}} {
		if _, err := machine.ReplayBatch(tc.Prog, tr, []machine.Config{{}, bad}); !errors.Is(err, machine.ErrTraceMismatch) {
			t.Errorf("%+v: not refused: %v", bad, err)
		}
	}

	snug := []machine.Config{
		{MaxSteps: tr.Steps, MaxCallDepth: tr.MaxDepth},
		{MaxSteps: tr.Steps + 1, MaxCallDepth: tr.MaxDepth, Pipelined: true},
	}
	res, err := machine.ReplayBatch(tc.Prog, tr, snug)
	if err != nil {
		t.Fatalf("snug limits refused: %v", err)
	}
	for i, cfg := range snug {
		if want := mustOracle(t, "fib", tc, cfg); !reflect.DeepEqual(want, res[i]) {
			t.Errorf("%+v:\noracle %+v\nbatch  %+v", cfg, want, res[i])
		}
	}

	res, err = machine.ReplayBatch(tc.Prog, tr, nil)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: %v, %d results", err, len(res))
	}
}
