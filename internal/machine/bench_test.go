package machine

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkALATStoreInvalidate measures a store that conflicts with no
// entry (Record consults the table only for stores to an armed
// address). The address-indexed implementation is O(1) per store
// regardless of capacity — the series across sizes should be flat (the
// old linear scan grew with size).
func BenchmarkALATStoreInvalidate(b *testing.B) {
	for _, size := range []int{8, 32, 512} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			a := newALAT(size)
			for i := 0; i < size; i++ {
				a.insert(1, i, 10_000+i) // fill with non-conflicting addresses
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.invalidate(i & 1023) // no entry at this address
			}
		})
	}
}

// BenchmarkALATInsertCheck measures the ld.a → ld.c round trip,
// including capacity evictions when the working set exceeds the table.
func BenchmarkALATInsertCheck(b *testing.B) {
	for _, size := range []int{8, 512} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			a := newALAT(size)
			for i := 0; i < b.N; i++ {
				reg := i & 63 // 64-register working set
				a.insert(1, reg, 10_000+reg)
				if !a.check(1, reg, 10_000+reg) {
					b.Fatal("freshly inserted entry must hit")
				}
			}
		})
	}
}

// BenchmarkRecordVsRunVsReplay splits a run into its two halves on the
// same program: Run (record + one-lane replay), the functional Record
// alone, and pure trace re-timings.
func BenchmarkRecordVsRunVsReplay(b *testing.B) {
	tc := ReplayPrograms()["alatLoop"]
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(tc.Prog, tc.Args, Config{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Record(tc.Prog, tc.Args, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	tr, err := Record(tc.Prog, tc.Args, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Replay(tc.Prog, tr, Config{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay_pipelined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Replay(tc.Prog, tr, Config{Pipelined: true}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	// eight pipelined latency points in one walk vs eight one-lane
	// walks: the per-point cost of the batch should approach 1/8th of a
	// single pipelined replay plus the lane overhead
	grid := make([]Config, 8)
	for i := range grid {
		grid[i] = Config{Pipelined: true, IntLoadLat: 2 + i, FPLoadLat: 9 + i}
	}
	b.Run("replay_pipelined_x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, cfg := range grid {
				if _, err := Replay(tc.Prog, tr, cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("replay_batch_x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ReplayBatch(tc.Prog, tr, grid); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestRecordAllocations guards the on-demand memory image: recording a
// small program must not build the whole reserved stack region (8 MiB
// at the default StackSlots) or copy it on the first allocation.
func TestRecordAllocations(t *testing.T) {
	tc := ReplayPrograms()["alatLoop"]
	got := bytesPerRun(10, func() {
		if _, err := Record(tc.Prog, tc.Args, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 1<<20 {
		t.Errorf("Record(alatLoop) allocates %d bytes per call, want under 1 MiB", got)
	}
}

// TestHugeALATAllocations guards the use-grown ALAT: nothing bounds
// Config.ALATSize, so a table that allocated its configured capacity
// let one request for 2^40 entries run the process out of memory.
// Recording and re-timing a program must allocate about as much at that
// capacity as at the default one.
func TestHugeALATAllocations(t *testing.T) {
	tc := ReplayPrograms()["alatOrder"]
	at := func(size int) uint64 {
		cfgs := []Config{{ALATSize: size}, {ALATSize: size, Pipelined: true}}
		return bytesPerRun(5, func() {
			tr, err := Record(tc.Prog, tc.Args, cfgs[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReplayBatch(tc.Prog, tr, cfgs); err != nil {
				t.Fatal(err)
			}
		})
	}
	// the table's share of either figure is a few KB; twice the default
	// figure leaves room for noise and none for capacity-sized storage
	if base, huge := at(32), at(1<<40); huge > 2*base {
		t.Errorf("Record+ReplayBatch(alatOrder) allocates %d bytes per call at ALATSize 2^40, %d at 32", huge, base)
	}
}

// TestMemoBounded guards the block memo's bound. On noRepeat, whose
// block entry states never repeat under an FPDivLat longer than the run,
// the memo must give up instead of growing with the run: re-timing 8
// pipelined lanes must allocate about as much at 10^5 iterations as at
// 10^4.
func TestMemoBounded(t *testing.T) {
	prog := noRepeatProg()
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = Config{FPDivLat: 1_000_000_000 + i, Pipelined: true}
	}
	at := func(iters int64) uint64 {
		tr, err := Record(prog, []int64{iters}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, stats, err := replayBatch(prog, tr, cfgs); err != nil || stats.transitions != 0 {
			t.Fatalf("%d iterations: the memo kept %d transitions (%v), want it to give up", iters, stats.transitions, err)
		}
		return bytesPerRun(3, func() {
			if _, err := ReplayBatch(prog, tr, cfgs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := at(10_000), at(100_000); large > 2*small {
		t.Errorf("ReplayBatch(noRepeat) allocates %d bytes at 10^5 iterations, %d at 10^4", large, small)
	}
}

// TestCallScoreboardsReused guards the walk's per-depth scoreboards: a
// pipelined re-timing must allocate as much for a run making ten times
// as many calls, instead of one scoreboard per dynamic call.
func TestCallScoreboardsReused(t *testing.T) {
	prog := chainExitProg()
	cfgs := []Config{{Pipelined: true}, {FPDivLat: 3, Pipelined: true}}
	at := func(iters int64) float64 {
		tr, err := Record(prog, []int64{iters}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := ReplayBatch(prog, tr, cfgs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := at(100), at(1000); many != few {
		t.Errorf("ReplayBatch(chainExit) makes %v allocations at 1000 iterations, %v at 100", many, few)
	}
}
