package machine

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkALATStoreInvalidate exercises the simulator's hottest ALAT
// path: every dynamic store consults the table. The address-indexed
// implementation is O(1) per store regardless of capacity — the series
// across sizes should be flat (the old linear scan grew with size).
func BenchmarkALATStoreInvalidate(b *testing.B) {
	for _, size := range []int{8, 32, 512} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			a := newALAT(size)
			for i := 0; i < size; i++ {
				a.insert(1, i, 10_000+i) // fill with non-conflicting addresses
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.invalidate(i & 1023) // miss: the common no-conflict store
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
