package machine

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

// TestUnmarshalTraceRejectsInconsistentCounts is the regression test for
// a decodable trace that panicked replay: zeroed check counts sized the
// per-check outcome table to nothing while the event stream still held
// checks. The decoder must refuse a header that contradicts its stream.
func TestUnmarshalTraceRejectsInconsistentCounts(t *testing.T) {
	tc := ReplayPrograms()["alatLoop"]
	for _, class := range []int{cCheckInt, cCheckFP, cStore, cAdv} {
		tr, err := Record(tc.Prog, tc.Args, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tr.counts[class] = 0
		if class == cCheckFP {
			// alatLoop has no FP checks: claim one it does not have
			tr.counts[class] = 1
		}
		if _, err := UnmarshalTrace(tr.Marshal()); err == nil || !strings.Contains(err.Error(), "corrupt trace") {
			t.Errorf("class %d: inconsistent count decoded: %v", class, err)
		}
	}

	tr, err := Record(tc.Prog, tc.Args, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr.counts[cCheckInt], tr.counts[cCheckFP] = 0, 0
	bad, err := UnmarshalTrace(tr.Marshal())
	if err == nil {
		// the old failure mode: this replay indexed an empty miss table
		_, err = ReplayBatch(tc.Prog, bad, []Config{{}})
		t.Fatalf("zeroed check counts decoded (replay: %v)", err)
	}
}

// TestReplayRejectsEditedSteps is the regression test for a trace whose
// Steps header was edited: the pipelined walk retires a different
// number of instructions than the header claims, which must be an error
// rather than a result with a silently wrong InstrsRetired.
func TestReplayRejectsEditedSteps(t *testing.T) {
	tc := ReplayPrograms()["alatLoop"]
	tr, err := Record(tc.Prog, tc.Args, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []int64{-1, 1} {
		edited, err := UnmarshalTrace(tr.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		edited.Steps += delta
		_, err = ReplayBatch(tc.Prog, edited, []Config{{}, {Pipelined: true}})
		if err == nil || !strings.Contains(err.Error(), "corrupt trace") {
			t.Errorf("Steps %+d: replay returned %v, want a corrupt-trace error", delta, err)
		}
		if errors.Is(err, ErrTraceMismatch) {
			t.Errorf("Steps %+d: a corrupt trace is not a config mismatch: %v", delta, err)
		}
	}
}

// TestReplayRejectsSurplusEvents is the regression test for a trace
// that holds more branch bits or check events than its instructions
// read: the pipelined walk retired the recorded steps and returned a
// result, leaving the surplus unread. It must end in a corrupt-trace
// error instead.
func TestReplayRejectsSurplusEvents(t *testing.T) {
	tc := ReplayPrograms()["alatLoop"]
	edits := map[string]func(*Trace){
		"two surplus branch bits": func(tr *Trace) {
			tr.bits.append(true)
			tr.bits.append(false)
		},
		"one more check": func(tr *Trace) { tr.counts[cCheckInt]++ },
	}
	for name, edit := range edits {
		tr, err := Record(tc.Prog, tc.Args, Config{})
		if err != nil {
			t.Fatal(err)
		}
		edit(tr)
		_, err = ReplayBatch(tc.Prog, tr, []Config{{}, {Pipelined: true}})
		if err == nil || !strings.Contains(err.Error(), "corrupt trace") {
			t.Errorf("%s: replay returned %v, want a corrupt-trace error", name, err)
		}
	}
}

// FuzzUnmarshalTrace feeds arbitrary bytes to the trace decoder and
// replays every trace it accepts
// under one serial and one pipelined config against every zoo program,
// matching or not. Any outcome but a panic or a hang is fine: errors
// are the expected answer to corrupt input. The seed corpus
// (testdata/fuzz/FuzzUnmarshalTrace) holds the two regression inputs
// above; the zoo's own traces are added here.
func FuzzUnmarshalTrace(f *testing.F) {
	progs := ReplayPrograms()
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tr, err := Record(progs[name].Prog, progs[name].Args, Config{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tr.Marshal())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := UnmarshalTrace(data)
		if err != nil {
			return
		}
		for _, name := range names {
			_, _ = ReplayBatch(progs[name].Prog, tr, []Config{{}, {Pipelined: true}})
		}
	})
}
