package machine

import (
	"strings"
	"testing"
)

// TestCycleSkipTruncated cuts a recorded trace's steps, branch bits or
// check events short inside a run of loop iterations that the walk
// skips, and requires the error the walk raised before it skipped
// cycles: a skip must stop at the end of every stream, never cross it.
// Where the bits or checks end first and the steps some iterations
// later, the trace's words past the cut still repeat the loop, so only
// the stream's end stops a skip short of the steps' end, whose error
// reads differently.
func TestCycleSkipTruncated(t *testing.T) {
	cfgs := []Config{{Pipelined: true}, {Pipelined: true, IntMulLat: 9}}
	const underrun = "machine: trace underrun (corrupt trace or mismatched program)"
	cases := []struct {
		prog, cut, want string
	}{
		{"period3Mid", "steps", "machine: corrupt trace: replay exceeds the recorded 421 steps"},
		{"period3Mid", "bits", underrun},
		{"period3Word", "steps", "machine: corrupt trace: replay exceeds the recorded 428 steps"},
		{"period3Word", "bits", underrun},
		{"nestedConst", "steps", "machine: corrupt trace: replay exceeds the recorded 1741 steps"},
		{"nestedConst", "bits", underrun},
		{"streamSplit", "steps", "machine: corrupt trace: replay exceeds the recorded 1449 steps"},
		{"streamSplit", "bits", underrun},
		{"streamSplit", "checks", underrun},
		{"period3Mid", "bits+steps", underrun},
		{"nestedConst", "bits+steps", underrun},
		{"streamSplit", "checks+steps", underrun},
	}
	zoo := ReplayPrograms()
	for _, c := range cases {
		tc := zoo[c.prog]
		tr, err := Record(tc.Prog, tc.Args, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, stats, err := replayBatch(tc.Prog, tr, cfgs); err != nil || stats.skipped == 0 {
			t.Fatalf("%s: the whole trace skipped %d block entries (%v), want some", c.prog, stats.skipped, err)
		}
		// two thirds in, each program is in a loop the walk skips
		steps := tr.Steps
		switch c.cut {
		case "steps":
			tr.Steps = steps * 2 / 3
		case "bits", "bits+steps":
			tr.bits.n = tr.bits.n * 2 / 3
		case "checks", "checks+steps":
			tr.counts[cCheckInt] = tr.counts[cCheckInt] * 2 / 3
		}
		// for a cut of two streams, end the steps at every point of a
		// stretch longer than the loop's iteration, five sixths in
		ends := []int64{tr.Steps}
		if strings.HasSuffix(c.cut, "+steps") {
			ends = ends[:0]
			for d := int64(0); d < 64; d++ {
				ends = append(ends, steps*5/6+d)
			}
		}
		for _, end := range ends {
			tr.Steps = end
			if _, err := ReplayBatch(tc.Prog, tr, cfgs); err == nil || err.Error() != c.want {
				t.Errorf("%s with its %s cut short (steps %d): %v, want %q", c.prog, c.cut, end, err, c.want)
			}
		}
	}
}
