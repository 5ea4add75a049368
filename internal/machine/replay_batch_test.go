package machine_test

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/machine"
)

// TestReplayBatchMatchesReplay is the machine-level differential test
// for the batched timing engine: every lane of one ReplayBatch must
// equal the oracle field for field — regardless of how the batch mixes
// serial and pipelined points, duplicates configs or collapses lanes —
// and so must the one-lane Replay of the same config. Each case also
// pins how many scoreboard lanes the walk advances: lanes collapse only
// when they share every timing field and the per-check miss stream.
func TestReplayBatchMatchesReplay(t *testing.T) {
	// duplicate a pipelined config: identical lanes must not perturb
	// each other's scoreboards
	sweep := append(machine.ReplaySweep(), machine.Config{Pipelined: true}, machine.Config{Pipelined: true})
	// alatOrder's miss streams: 13, 12 and 5 failed checks at capacities
	// 2, 4 and 5 (three streams), none from 6 up (one shared stream)
	var streams []machine.Config
	for _, size := range []int{2, 4, 5, 6, 8, 16} {
		streams = append(streams, machine.Config{ALATSize: size, CheckMissPen: 40, Pipelined: true})
	}
	cases := []struct {
		name  string
		progs []string // nil: the whole zoo
		cfgs  []machine.Config
		lanes int // pipelined lanes the walk advances; 0: not pinned
	}{
		{"sweep", nil, sweep, 0},
		{"shared timing, distinct miss streams", []string{"alatOrder"}, streams, 4},
		// the first stream repeats with the loop, the second does not:
		// a cycle is skipped only where every stream repeats
		{"one stream periodic", []string{"streamSplit"}, []machine.Config{{Pipelined: true}, {ALATSize: 3, Pipelined: true}}, 2},
		// lanes that differ in one field the walk reads must not merge,
		// even where the field costs nothing (no zoo program fences)
		{"one field apart", nil, []machine.Config{
			{Pipelined: true},
			{CheckMissPen: 9, Pipelined: true},
			{FenceLat: 3, Pipelined: true},
			{Pipelined: true},
		}, 3},
	}
	zoo := machine.ReplayPrograms()
	for _, c := range cases {
		names := c.progs
		if names == nil {
			for name := range zoo {
				names = append(names, name)
			}
		}
		for _, name := range names {
			tc := zoo[name]
			tr, err := machine.Record(tc.Prog, tc.Args, machine.Config{})
			if err != nil {
				t.Fatalf("%s: record: %v", name, err)
			}
			batch, err := machine.ReplayBatch(tc.Prog, tr, c.cfgs)
			if err != nil {
				t.Fatalf("%s/%s: batch: %v", c.name, name, err)
			}
			if len(batch) != len(c.cfgs) {
				t.Fatalf("%s/%s: %d results for %d configs", c.name, name, len(batch), len(c.cfgs))
			}
			if c.lanes > 0 {
				if lanes, err := machine.WalkedLanes(tc.Prog, tr, c.cfgs); err != nil || lanes != c.lanes {
					t.Errorf("%s/%s: walked %d lanes (%v), want %d", c.name, name, lanes, err, c.lanes)
				}
			}
			for i, cfg := range c.cfgs {
				want := mustOracle(t, name, tc, cfg)
				if !reflect.DeepEqual(want, batch[i]) {
					t.Errorf("%s/%s %+v:\noracle %+v\nbatch  %+v", c.name, name, cfg, want, batch[i])
				}
				single, err := machine.Replay(tc.Prog, tr, cfg, nil)
				if err != nil {
					t.Fatalf("%s/%s %+v: replay: %v", c.name, name, cfg, err)
				}
				if !reflect.DeepEqual(want, single) {
					t.Errorf("%s/%s %+v:\noracle %+v\nreplay %+v", c.name, name, cfg, want, single)
				}
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

// fuzzGrid decodes fuzz bytes into a grid of 1 to 16 machine configs.
// The first byte sets the lane count; each lane then reads an opcode
// byte choosing how the lane is made: fresh (13 bytes: ALATSize 1–64,
// the eleven timing fields and Pipelined), a duplicate of an earlier
// lane, or an earlier lane with one field changed. A timing byte below
// 224 picks from {Free, default, 1–12}; one from 224 up picks a latency
// of 2^32 to 2^37 cycles, so no part of the walk may keep a latency or
// a ready-time distance in fewer bits. Bytes past the end read as zero,
// so every input decodes.
func fuzzGrid(data []byte) []machine.Config {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	// set assigns field f (mod 13) of c from byte b
	set := func(c *machine.Config, f, b int) {
		timing := []*int{&c.IntLoadLat, &c.FPLoadLat, &c.CheckHitLat, &c.CheckMissPen,
			&c.StoreLat, &c.IntMulLat, &c.IntDivLat, &c.FPArithLat, &c.FPDivLat,
			&c.FenceLat, &c.CallOverhead}
		switch f %= 13; f {
		case 11:
			c.ALATSize = 1 + b%64
		case 12:
			c.Pipelined = b&1 == 1
		default:
			*timing[f] = b%14 - 1 // -1 is Free, 0 the default
			if b >= 224 {
				*timing[f] = (b - 223) << 32
			}
		}
	}
	cfgs := make([]machine.Config, 1+next()%16)
	for i := range cfgs {
		switch op := next(); {
		case i > 0 && op%3 == 1:
			cfgs[i] = cfgs[next()%i]
		case i > 0 && op%3 == 2:
			cfgs[i] = cfgs[next()%i]
			set(&cfgs[i], next(), next())
		default:
			for f := 0; f < 13; f++ {
				set(&cfgs[i], f, next())
			}
		}
	}
	return cfgs
}

// FuzzReplayBatch re-times every zoo program under a fuzzed grid of
// lanes — mixed models, capacities and latencies, duplicates and lanes
// one field apart, the inputs of the lane collapse — and requires every
// lane to equal the oracle field for field. The seed corpus lives in
// testdata/fuzz/FuzzReplayBatch.
func FuzzReplayBatch(f *testing.F) {
	zoo := machine.ReplayPrograms()
	names := make([]string, 0, len(zoo))
	for name := range zoo {
		names = append(names, name)
	}
	sort.Strings(names)
	traces := make([]*machine.Trace, len(names))
	for i, name := range names {
		tr, err := machine.Record(zoo[name].Prog, zoo[name].Args, machine.Config{})
		if err != nil {
			f.Fatal(err)
		}
		traces[i] = tr
	}
	// The oracle builds the whole stack image per run, which would
	// dominate every input; a mutated input shares most of its lanes
	// with its parent, so oracle results are memoized (bounded).
	type memoKey struct {
		prog int
		cfg  machine.Config
	}
	var mu sync.Mutex
	memo := map[memoKey]*machine.Result{}
	oracleRun := func(t *testing.T, i int, cfg machine.Config) *machine.Result {
		key := memoKey{i, cfg.Normalized()}
		mu.Lock()
		want, ok := memo[key]
		mu.Unlock()
		if !ok {
			want = mustOracle(t, names[i], zoo[names[i]], cfg)
			mu.Lock()
			if len(memo) >= 1<<14 {
				clear(memo)
			}
			memo[key] = want
			mu.Unlock()
		}
		return want
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfgs := fuzzGrid(data)
		for i, name := range names {
			tc := zoo[name]
			batch, err := machine.ReplayBatch(tc.Prog, traces[i], cfgs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for j, cfg := range cfgs {
				if want := oracleRun(t, i, cfg); !reflect.DeepEqual(want, batch[j]) {
					t.Errorf("%s %+v:\noracle %+v\nbatch  %+v", name, cfg, want, batch[j])
				}
			}
		}
	})
}
