package machine_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// buildKernel compiles one paper kernel under spec, trained on the
// kernel's profiling input; a sweep times the SpecProfile build.
func buildKernel(t *testing.T, w workloads.Workload, spec repro.SpecMode) *repro.Build {
	t.Helper()
	b, err := repro.BuildCtx(context.Background(), w.Src, repro.Config{Spec: spec, ProfileArgs: w.ProfileArgs})
	if err != nil {
		t.Fatalf("%s %v: build: %v", w.Name, spec, err)
	}
	return b
}

// TestReplayBatchWalksDistinctClocks pins the lane collapse and the
// block memo on the paper kernels, so that a fall back to walking one
// lane per config, or to walking every block an instruction at a time,
// fails a test and not only a benchmark. At reference input six kernels
// give one miss stream at every capacity of the standard grid, so its
// 12 pipelined configs walk as 3 lanes (one per latency point); equake
// has two streams (4 | 8, 32, 128) and twolf three (4 | 8 | 32, 128).
// Each kernel's 5,383 to 105,057 block entries replay from 22 to 36
// memoized transitions, and all but 11 to 1,029 of them are reached by
// following a link from the transition before, not by a keyed lookup;
// 6% (twolf) to 99.8% (bzip2) of them are skipped as repeats of a
// cycle. Every collapsed lane must still equal its one-lane replay.
func TestReplayBatchWalksDistinctClocks(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and records every kernel")
	}
	want := map[string]int{"gzip": 3, "vpr": 3, "mcf": 3, "art": 3, "ammp": 3, "bzip2": 3, "equake": 6, "twolf": 9}
	wantTransitions := map[string]int{"gzip": 29, "vpr": 25, "mcf": 33, "art": 36, "ammp": 23, "bzip2": 22, "equake": 34, "twolf": 36}
	// every other block entry follows a link; gzip's keyed lookups are
	// nearly all at its 516 calls' entries and returns
	wantKeyed := map[string]int{"gzip": 1029, "vpr": 26, "mcf": 26, "art": 18, "ammp": 11, "bzip2": 21, "equake": 22, "twolf": 44}
	// the block entries resolved by skipping the repeats of a cycle
	wantSkipped := map[string]int{"gzip": 96860, "vpr": 11062, "mcf": 3554, "art": 23468, "ammp": 2402, "bzip2": 81812, "equake": 11204, "twolf": 480}
	grid := experiments.MachineSweepConfigs()
	for _, w := range workloads.All() {
		b := buildKernel(t, w, repro.SpecProfile)
		tr, err := machine.Record(b.Code, w.RefArgs, machine.Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", w.Name, err)
		}
		lanes, err := machine.WalkedLanes(b.Code, tr, grid)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if lanes != want[w.Name] {
			t.Errorf("%s: the standard grid walked %d lanes, want %d", w.Name, lanes, want[w.Name])
		}
		transitions, err := machine.MemoTransitions(b.Code, tr, grid)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if transitions != wantTransitions[w.Name] {
			t.Errorf("%s: the standard grid's walk memoized %d block transitions, want %d", w.Name, transitions, wantTransitions[w.Name])
		}
		keyed, err := machine.KeyedLookups(b.Code, tr, grid)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if keyed != wantKeyed[w.Name] {
			t.Errorf("%s: the standard grid's walk resolved %d block entries by a keyed lookup, want %d", w.Name, keyed, wantKeyed[w.Name])
		}
		skipped, err := machine.CycleSkips(b.Code, tr, grid)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if skipped != wantSkipped[w.Name] {
			t.Errorf("%s: the standard grid's walk skipped %d block entries, want %d", w.Name, skipped, wantSkipped[w.Name])
		}
		batch, err := machine.ReplayBatch(b.Code, tr, grid)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for i, cfg := range grid {
			single, err := machine.Replay(b.Code, tr, cfg, nil)
			if err != nil {
				t.Fatalf("%s %+v: %v", w.Name, cfg, err)
			}
			if single.Counters != batch[i].Counters {
				t.Errorf("%s %+v: batch %+v, one-lane replay %+v", w.Name, cfg, batch[i].Counters, single.Counters)
			}
		}
	}
}

// oldDisassembly is Program.String as it was, building the text by
// string concatenation.
func oldDisassembly(p *machine.Program) string {
	var names []string
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	s := ""
	for _, name := range names {
		f := p.Funcs[name]
		s += fmt.Sprintf("func %s (regs=%d frame=%d):\n", name, f.NumRegs, f.FrameSize)
		for i, ins := range f.Instrs {
			s += fmt.Sprintf("  %4d: %s\n", i, ins)
		}
	}
	return s
}

// oldFingerprint is Program.Fingerprint as it was when it hashed the
// concatenated disassembly. Trace cache keys hold its bytes, so the
// streaming Fingerprint must hash exactly the same text.
func oldFingerprint(p *machine.Program) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "globsize %d\n", p.GlobSize)
	addrs := make([]int, 0, len(p.GlobalInit))
	for a := range p.GlobalInit {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)
	for _, a := range addrs {
		fmt.Fprintf(h, "init %d %d\n", a, p.GlobalInit[a])
	}
	h.Write([]byte(oldDisassembly(p)))
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}

// TestFingerprintUnchanged recomputes the disassembly and fingerprint of
// every kernel build under every speculation mode the old way: a change
// to the hashed bytes would change every trace cache key.
func TestFingerprintUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every kernel")
	}
	for _, w := range workloads.All() {
		for _, spec := range []repro.SpecMode{repro.SpecOff, repro.SpecProfile, repro.SpecHeuristic, repro.SpecCost} {
			code := buildKernel(t, w, spec).Code
			if code.String() != oldDisassembly(code) {
				t.Errorf("%s %v: String differs from the concatenated disassembly", w.Name, spec)
			}
			if got, want := code.Fingerprint(), oldFingerprint(code); got != want {
				t.Errorf("%s %v: fingerprint %x, the concatenated disassembly hashes to %x", w.Name, spec, got, want)
			}
		}
	}
}

// TestRecordSeedsALATSummary checks the ALAT summary Record leaves in
// its trace's memo against a fresh walk of the trace's events at the
// recording capacity, for every zoo program and every paper kernel at
// its reference input, from a one-entry table to one too large to fill:
// a seeded summary that differed from the walk would change every
// replay at the recording capacity.
func TestRecordSeedsALATSummary(t *testing.T) {
	type run struct {
		name string
		code *machine.Program
		args []int64
	}
	var runs []run
	for name, tc := range machine.ReplayPrograms() {
		runs = append(runs, run{name, tc.Prog, tc.Args})
	}
	if !testing.Short() {
		for _, w := range workloads.All() {
			runs = append(runs, run{w.Name, buildKernel(t, w, repro.SpecProfile).Code, w.RefArgs})
		}
	}
	for _, r := range runs {
		for _, size := range []int{1, 2, 4, 32, 1 << 40} {
			tr, err := machine.Record(r.code, r.args, machine.Config{ALATSize: size})
			if err != nil {
				t.Fatalf("%s ALATSize %d: record: %v", r.name, size, err)
			}
			memo, fresh := machine.ALATSummaries(tr, size)
			if memo == nil {
				t.Errorf("%s ALATSize %d: Record seeded no summary", r.name, size)
			} else if !reflect.DeepEqual(memo, fresh) {
				t.Errorf("%s ALATSize %d: seeded summary\n%+v\nwalk of the events\n%+v", r.name, size, memo, fresh)
			}
		}
	}
}

// TestRecordedStoreEvents pins how many store events a trace keeps:
// only stores to an address an insert or a check has armed since the
// last recorded store there. The zoo's storeRearm keeps three of its
// four stores. At their reference inputs, bzip2 and vpr run no
// advanced loads at all, and ammp's and equake's advanced addresses are
// never stored to while armed.
func TestRecordedStoreEvents(t *testing.T) {
	tc := machine.ReplayPrograms()["storeRearm"]
	tr, err := machine.Record(tc.Prog, tc.Args, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := machine.StoreEvents(tr); got != 3 {
		t.Errorf("storeRearm: the trace holds %d store events, want 3", got)
	}
	if testing.Short() {
		t.Skip("compiles and records every kernel")
	}
	want := map[string]int{"gzip": 5, "vpr": 0, "mcf": 20, "equake": 0, "art": 72, "ammp": 0, "bzip2": 0, "twolf": 14}
	for _, w := range workloads.All() {
		b := buildKernel(t, w, repro.SpecProfile)
		tr, err := machine.Record(b.Code, w.RefArgs, machine.Config{})
		if err != nil {
			t.Fatalf("%s: record: %v", w.Name, err)
		}
		if got := machine.StoreEvents(tr); got != want[w.Name] {
			t.Errorf("%s: the trace holds %d store events, want %d", w.Name, got, want[w.Name])
		}
	}
}
