package repro

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// The tests in this file pin BuildAndRunCtx's speculative recording: a
// cold evaluation records the guessed build's code while its own build
// runs, and whether the guess was right or wrong, or the call was
// cancelled, it answers the bytes the serial path answers, leaves the
// cache counters where the serial path leaves them, and returns only
// once the recording goroutine has exited.

// evalStep is one evaluation of a sequence: a training input and a
// measurement input.
type evalStep struct{ train, args []int64 }

// evalReply renders what an evaluation answers: the machine result,
// the optimizer statistics and the harden report.
func evalReply(t *testing.T, b *Build, res *machine.Result) []byte {
	t.Helper()
	out, err := json.Marshal(struct {
		Result *machine.Result
		Stats  any
		Harden any
	}{res, b.TotalStats(), b.Harden})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// withProcs sets GOMAXPROCS to n for the rest of the test.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// evalOff is the oracle: one evaluation with the cache off, so no
// build, guess or trace is read, and one worker.
func evalOff(t *testing.T, src string, cfg Config, s evalStep) []byte {
	t.Helper()
	SetCacheEnabled(false)
	defer SetCacheEnabled(true)
	cfg.ProfileArgs, cfg.Workers = s.train, 1
	b, res, err := BuildAndRunCtx(context.Background(), src, cfg, s.args)
	if err != nil {
		t.Fatal(err)
	}
	return evalReply(t, b, res)
}

// evalRun is what one sequence of evaluations did.
type evalRun struct {
	replies         [][]byte
	stats           cache.Stats // cache counter deltas
	used, discarded uint64      // speculative recording deltas
}

// runSteps evaluates steps in order from an empty cache with the given
// Workers and asserts that no recording goroutine outlives any call.
func runSteps(t *testing.T, src string, cfg Config, workers int, steps []evalStep) evalRun {
	t.Helper()
	ResetCaches()
	stats0 := CacheStats()
	used0, discarded0 := SpeculativeRecords()
	var run evalRun
	for i, s := range steps {
		cfg.ProfileArgs, cfg.Workers = s.train, workers
		b, res, err := BuildAndRunCtx(context.Background(), src, cfg, s.args)
		if err != nil {
			t.Fatal(err)
		}
		if n := recordingsLive.Load(); n != 0 {
			t.Fatalf("step %d: %d recordings still running after the call returned", i, n)
		}
		run.replies = append(run.replies, evalReply(t, b, res))
	}
	stats1 := CacheStats()
	used1, discarded1 := SpeculativeRecords()
	run.stats = cache.Stats{
		MemHits:   stats1.MemHits - stats0.MemHits,
		MemMisses: stats1.MemMisses - stats0.MemMisses,
		Computes:  stats1.Computes - stats0.Computes,
		Evictions: stats1.Evictions - stats0.Evictions,
	}
	run.used, run.discarded = used1-used0, discarded1-discarded0
	return run
}

// TestSpeculativeRecordMatchesSerial evaluates two sequences of fresh
// training and measurement inputs: equake, whose every input compiles
// to one build, so each guess after the first is right, and
// testdata/reuse/ctlspec.mc, whose build flips with the training input
// at 61/62, so guesses go both ways. Each sequence runs speculatively
// (two procs, Workers 0) and on each serial path (Workers 1, and one
// proc); every reply must equal the cache-off oracle's, every run's
// cache deltas the Workers 1 run's, and only the speculative run may
// record on a guess, with exactly the expected outcomes.
func TestSpeculativeRecordMatchesSerial(t *testing.T) {
	equake, _ := workloads.ByName("equake")
	ctlspec, err := os.ReadFile("testdata/reuse/ctlspec.mc")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name            string
		src             string
		steps           []evalStep
		used, discarded uint64
	}{
		// the last step measures on the input before it, whose trace
		// is cached, so it records nothing on its guess
		{"right guess", equake.Src, []evalStep{
			{[]int64{32, 2, 0}, []int64{128, 6, 0}},
			{[]int64{40, 2, 1}, []int64{130, 6, 1}},
			{[]int64{50, 2, 2}, []int64{140, 6, 2}},
			{[]int64{60, 2, 3}, []int64{140, 6, 2}},
		}, 2, 0},
		// 70 and 80 hoist the product, 40 and 45 do not: the guesses
		// for 70 and 45 are wrong, the one for 80 is right
		{"wrong guess", string(ctlspec), []evalStep{
			{[]int64{40}, []int64{100}},
			{[]int64{70}, []int64{150}},
			{[]int64{80}, []int64{200}},
			{[]int64{45}, []int64{250}},
		}, 1, 2},
	}
	cfg := Config{Spec: SpecProfile}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want [][]byte
			for _, s := range tc.steps {
				want = append(want, evalOff(t, tc.src, cfg, s))
			}
			withProcs(t, 2)
			serial := runSteps(t, tc.src, cfg, 1, tc.steps)
			spec := runSteps(t, tc.src, cfg, 0, tc.steps)
			runtime.GOMAXPROCS(1)
			oneProc := runSteps(t, tc.src, cfg, 0, tc.steps)
			for _, r := range []struct {
				name            string
				run             evalRun
				used, discarded uint64
			}{
				{"Workers 1", serial, 0, 0},
				{"speculative", spec, tc.used, tc.discarded},
				{"GOMAXPROCS 1", oneProc, 0, 0},
			} {
				for i := range want {
					if string(r.run.replies[i]) != string(want[i]) {
						t.Errorf("%s: step %d reply differs from the cache-off oracle\n got %s\nwant %s", r.name, i, r.run.replies[i], want[i])
					}
				}
				if r.run.stats != serial.stats {
					t.Errorf("%s: cache deltas %v, Workers 1 path %v", r.name, r.run.stats, serial.stats)
				}
				if r.run.used != r.used || r.run.discarded != r.discarded {
					t.Errorf("%s: %d used and %d discarded speculative recordings, want %d and %d",
						r.name, r.run.used, r.run.discarded, r.used, r.discarded)
				}
			}
		})
	}
}

// TestSpeculativeRecordCancelled cancels an evaluation while its
// profiling run, on a training input of millions of iterations, is
// under way, with a guess recording on an input as long. The call must
// return the cancellation after the recording goroutine has exited,
// leave the cache deltas of the serial path cancelled at the same
// point, and leave nothing behind: a following evaluation answers the
// oracle's bytes.
func TestSpeculativeRecordCancelled(t *testing.T) {
	src, err := os.ReadFile("testdata/reuse/ctlspec.mc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: SpecProfile}
	first := evalStep{[]int64{40}, []int64{100}}
	long := evalStep{[]int64{20_000_000}, []int64{20_000_001}}
	after := evalStep{[]int64{70}, []int64{150}}
	want := evalOff(t, string(src), cfg, after)
	withProcs(t, 2)
	run := func(workers int) (cache.Stats, uint64) {
		runSteps(t, string(src), cfg, workers, []evalStep{first})
		stats0 := CacheStats()
		_, discarded0 := SpeculativeRecords()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		runs := ProfilingRuns()
		errc := make(chan error, 1)
		go func() {
			c := cfg
			c.ProfileArgs, c.Workers = long.train, workers
			_, _, err := BuildAndRunCtx(ctx, string(src), c, long.args)
			if n := recordingsLive.Load(); n != 0 {
				err = errors.New("a recording was still running when the call returned")
			}
			errc <- err
		}()
		// the profiling run's count goes up as it starts
		for ProfilingRuns() == runs {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("Workers %d: cancelled evaluation returned %v, want context.Canceled", workers, err)
		}
		stats1 := CacheStats()
		_, discarded1 := SpeculativeRecords()
		deltas := cache.Stats{
			MemHits:   stats1.MemHits - stats0.MemHits,
			MemMisses: stats1.MemMisses - stats0.MemMisses,
			Computes:  stats1.Computes - stats0.Computes,
			Evictions: stats1.Evictions - stats0.Evictions,
		}
		c := cfg
		c.ProfileArgs, c.Workers = after.train, workers
		b, res, err := BuildAndRunCtx(context.Background(), string(src), c, after.args)
		if err != nil {
			t.Fatal(err)
		}
		if got := evalReply(t, b, res); !slices.Equal(got, want) {
			t.Errorf("Workers %d: evaluation after the cancelled one differs from the oracle\n got %s\nwant %s", workers, got, want)
		}
		return deltas, discarded1 - discarded0
	}
	serial, serialDiscarded := run(1)
	if serialDiscarded != 0 {
		t.Errorf("serial cancelled evaluation discarded %d recordings, want 0", serialDiscarded)
	}
	// the cancellation reaches the build and the recording at their
	// next polls, in either order, so the speculative leg runs a few
	// times for a recording left running to show
	for range 20 {
		spec, specDiscarded := run(0)
		if spec != serial {
			t.Errorf("cancelled evaluation: speculative cache deltas %v, serial %v", spec, serial)
		}
		if specDiscarded != 1 {
			t.Errorf("speculative cancelled evaluation discarded %d recordings, want 1", specDiscarded)
		}
	}
}
