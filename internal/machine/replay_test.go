package machine_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/machine/oracle"
)

// mustOracle runs the test-only reference interpreter.
func mustOracle(t *testing.T, name string, tc machine.ZooProgram, cfg machine.Config) *machine.Result {
	t.Helper()
	want, err := oracle.Run(tc.Prog, tc.Args, cfg)
	if err != nil {
		t.Fatalf("%s %+v: oracle: %v", name, cfg, err)
	}
	return want
}

// TestReplayMatchesDirectExecution is the machine-level differential
// test: for each program and each sweep Config, Run and Replay over a
// trace recorded under the default Config must reproduce the oracle
// bit-for-bit — Ret, Output, every Counters field and PerFunc.
func TestReplayMatchesDirectExecution(t *testing.T) {
	for name, tc := range machine.ReplayPrograms() {
		tr, err := machine.Record(tc.Prog, tc.Args, machine.Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", name, err)
		}
		for _, cfg := range machine.ReplaySweep() {
			want := mustOracle(t, name, tc, cfg)
			run, err := machine.Run(tc.Prog, tc.Args, cfg, nil)
			if err != nil {
				t.Fatalf("%s %+v: run: %v", name, cfg, err)
			}
			if !reflect.DeepEqual(want, run) {
				t.Errorf("%s %+v:\noracle %+v\nrun    %+v", name, cfg, want, run)
			}
			replayed, err := machine.Replay(tc.Prog, tr, cfg, nil)
			if err != nil {
				t.Fatalf("%s %+v: replay: %v", name, cfg, err)
			}
			if !reflect.DeepEqual(want, replayed) {
				t.Errorf("%s %+v:\noracle %+v\nreplay %+v", name, cfg, want, replayed)
			}
		}
	}
}

// TestReplayMarshalRoundTrip runs the same differential through the
// serialized form (the cache spill path).
func TestReplayMarshalRoundTrip(t *testing.T) {
	for name, tc := range machine.ReplayPrograms() {
		tr, err := machine.Record(tc.Prog, tc.Args, machine.Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", name, err)
		}
		tr2, err := machine.UnmarshalTrace(tr.Marshal())
		if err != nil {
			t.Fatalf("%s: roundtrip: %v", name, err)
		}
		if tr2.Steps != tr.Steps || tr2.Ret != tr.Ret || tr2.Output != tr.Output ||
			tr2.StackSlots != tr.StackSlots || tr2.MaxDepth != tr.MaxDepth ||
			tr2.Events() != tr.Events() {
			t.Fatalf("%s: metadata mismatch after roundtrip", name)
		}
		cfg := machine.Config{ALATSize: 2, Pipelined: true}
		want := mustOracle(t, name, tc, cfg)
		replayed, err := machine.Replay(tc.Prog, tr2, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, replayed) {
			t.Errorf("%s: roundtripped replay diverges:\noracle %+v\nreplay %+v", name, want, replayed)
		}
	}
}

func TestUnmarshalTraceRejectsCorruptInput(t *testing.T) {
	if _, err := machine.UnmarshalTrace([]byte("not a trace")); err == nil {
		t.Error("bad magic accepted")
	}
	tc := machine.ReplayPrograms()["fib"]
	tr, err := machine.Record(tc.Prog, tc.Args, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := tr.Marshal()
	if _, err := machine.UnmarshalTrace(data[:len(data)/2]); err == nil {
		t.Error("truncated trace accepted")
	}
}

// TestReplayFaultParity pins the resource-limit contract. A limit fault
// surfaces from the recording run, with the oracle's exact message. A
// trace replays under any limits at least as generous as the recorded
// run needed — exactly, even below the limits it was recorded under —
// and is refused with ErrTraceMismatch under tighter limits or another
// memory layout.
func TestReplayFaultParity(t *testing.T) {
	tc := machine.ReplayPrograms()["fib"]
	tr, err := machine.Record(tc.Prog, tc.Args, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}

	for _, tight := range []machine.Config{{MaxSteps: 50}, {MaxCallDepth: 3}} {
		_, wantErr := oracle.Run(tc.Prog, tc.Args, tight)
		_, runErr := machine.Run(tc.Prog, tc.Args, tight, nil)
		if wantErr == nil || runErr == nil {
			t.Fatalf("%+v should fault: oracle=%v run=%v", tight, wantErr, runErr)
		}
		if wantErr.Error() != runErr.Error() {
			t.Errorf("%+v: run error %q, oracle %q", tight, runErr, wantErr)
		}
		if _, err := machine.Replay(tc.Prog, tr, tight, nil); !errors.Is(err, machine.ErrTraceMismatch) {
			t.Errorf("%+v: replay under tighter limits not refused: %v", tight, err)
		}
	}

	// limits between the recorded run's needs and the recording limits
	snug := machine.Config{MaxSteps: tr.Steps, MaxCallDepth: tr.MaxDepth, Pipelined: true}
	want := mustOracle(t, "fib", tc, snug)
	got, err := machine.Replay(tc.Prog, tr, snug, nil)
	if err != nil {
		t.Fatalf("replay at the recorded run's exact limits: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("snug limits:\noracle %+v\nreplay %+v", want, got)
	}

	if _, err := machine.Replay(tc.Prog, tr, machine.Config{StackSlots: 64}, nil); !errors.Is(err, machine.ErrTraceMismatch) {
		t.Errorf("layout mismatch not refused: %v", err)
	}
}

// TestReplayOutputWriter checks the out-writer convention, shared by Run
// and Replay: with a writer the output goes there and Result.Output
// stays empty.
func TestReplayOutputWriter(t *testing.T) {
	tc := machine.ReplayPrograms()["fib"]
	tr, err := machine.Record(tc.Prog, tc.Args, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := mustOracle(t, "fib", tc, machine.Config{})
	var run, replayed strings.Builder
	dres, err := machine.Run(tc.Prog, tc.Args, machine.Config{}, &run)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := machine.Replay(tc.Prog, tr, machine.Config{}, &replayed)
	if err != nil {
		t.Fatal(err)
	}
	if run.String() != want.Output || replayed.String() != want.Output || want.Output == "" {
		t.Errorf("writer output: run %q, replay %q, oracle %q", run.String(), replayed.String(), want.Output)
	}
	if dres.Output != "" || rres.Output != "" {
		t.Errorf("Result.Output must be empty with an explicit writer: %q %q", dres.Output, rres.Output)
	}
}

// TestImageEdges pins the zoo's "image" program to the flat-image
// answers — an unwritten stack slot reads 0, a store at the last stack
// slot reads back, popped frames keep their values, the last heap slot
// loads and the slot past it defers a speculative load — and checks that
// a plain load past the heap faults identically in Record, Run and the
// oracle under every sweep config.
func TestImageEdges(t *testing.T) {
	tc := machine.ReplayPrograms()["image"]
	want := mustOracle(t, "image", tc, machine.Config{})
	if want.Output != "0 42 0 100 102 42\n" || want.Ret != 144 || want.Counters.SpecLoadFaults != 1 {
		t.Fatalf("image: output %q, ret %d, spec faults %d; want %q, 144, 1",
			want.Output, want.Ret, want.Counters.SpecLoadFaults, "0 42 0 100 102 42\n")
	}

	bad := machine.ImageFaultProgram()
	_, recErr := machine.Record(bad.Prog, bad.Args, machine.Config{})
	if recErr == nil || !strings.Contains(recErr.Error(), "load from invalid address") {
		t.Fatalf("record of a load past the heap: %v, want an invalid-address fault", recErr)
	}
	for _, cfg := range machine.ReplaySweep() {
		_, oracleErr := oracle.Run(bad.Prog, bad.Args, cfg)
		_, runErr := machine.Run(bad.Prog, bad.Args, cfg, nil)
		if oracleErr == nil || runErr == nil || runErr.Error() != oracleErr.Error() || runErr.Error() != recErr.Error() {
			t.Errorf("%+v: run fault %v, oracle fault %v, record fault %v", cfg, runErr, oracleErr, recErr)
		}
	}
}

// TestStackOverflowParity pins where the stack region ends: fib(12)
// nests twelve 2-slot frames, so it fits in 24 stack slots and
// overflows in 23, with the oracle's error.
func TestStackOverflowParity(t *testing.T) {
	tc := machine.ReplayPrograms()["fib"]
	for _, slots := range []int{1, 23, 24} {
		cfg := machine.Config{StackSlots: slots}
		_, oracleErr := oracle.Run(tc.Prog, tc.Args, cfg)
		_, runErr := machine.Run(tc.Prog, tc.Args, cfg, nil)
		if overflow := slots < 24; overflow != (runErr != nil) || fmt.Sprint(runErr) != fmt.Sprint(oracleErr) {
			t.Errorf("StackSlots %d: run %v, oracle %v", slots, runErr, oracleErr)
		}
		if runErr != nil && runErr.Error() != "machine: stack overflow in fib" {
			t.Errorf("StackSlots %d: run %v, want a stack overflow in fib", slots, runErr)
		}
	}
}
