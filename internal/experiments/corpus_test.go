package experiments

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro"
)

// TestCorpusRunDeterministic pins the corpus determinism contract at
// the single-node level: the aggregate report bytes are identical at
// any worker count.
func TestCorpusRunDeterministic(t *testing.T) {
	ctx := context.Background()
	rep1, err := RunCorpusDirCtx(ctx, "testdata/corpus", 1)
	if err != nil {
		t.Fatal(err)
	}
	rep8, err := RunCorpusDirCtx(ctx, "testdata/corpus", 8)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := MarshalCorpusReport(rep1)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := MarshalCorpusReport(rep8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b8) {
		t.Fatalf("corpus report differs across worker counts:\n%s\nvs\n%s", b1, b8)
	}
	if rep1.Analyzed == 0 || rep1.Files <= rep1.Analyzed {
		t.Fatalf("testdata corpus should have analyzed files and at least one failure: %+v", rep1)
	}
	if len(rep1.Patterns) == 0 {
		t.Fatal("no alias patterns in the corpus report")
	}
	for _, want := range []string{"load:heap", "store:global"} {
		if rep1.Patterns[want] == nil {
			t.Fatalf("pattern %q missing from report", want)
		}
	}
}

// TestCorpusWarmDiskRecomputesNothing runs the corpus cold with a
// cache dir, drops the memory tier and runs it again: the warm report
// is byte-identical and the warm pass runs no profiling interpreter.
func TestCorpusWarmDiskRecomputesNothing(t *testing.T) {
	ctx := context.Background()
	if err := repro.SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	repro.ResetCaches()
	defer func() {
		if err := repro.SetCacheDir(""); err != nil {
			t.Error(err)
		}
		repro.ResetCaches()
	}()
	run := func() ([]byte, uint64) {
		t.Helper()
		runs0 := repro.ProfilingRuns()
		rep, err := RunCorpusDirCtx(ctx, "testdata/corpus", 2)
		if err != nil {
			t.Fatal(err)
		}
		data, err := MarshalCorpusReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data, repro.ProfilingRuns() - runs0
	}
	cold, coldRuns := run()
	repro.ResetCaches()
	warm, warmRuns := run()
	if coldRuns == 0 {
		t.Fatal("the cold pass ran no profiling: the test measures nothing")
	}
	if warmRuns != 0 {
		t.Errorf("the warm pass ran %d profiling runs, want 0", warmRuns)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm corpus report differs from the cold one:\n%s\nvs\n%s", cold, warm)
	}
}

// TestCorpusAggregateOrderIndependent shuffles per-file results before
// aggregation and asserts identical bytes: the report depends only on
// which results it folds, not on the order they finish in.
func TestCorpusAggregateOrderIndependent(t *testing.T) {
	files, err := LoadCorpusDir("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	var results []*CorpusFileResult
	var fails []CorpusFailure
	for _, f := range files {
		res, err := RunCorpusFileCtx(context.Background(), f)
		if err != nil {
			fails = append(fails, CorpusFailure{Name: f.Name, Error: err.Error()})
			continue
		}
		results = append(results, res)
	}
	base, err := MarshalCorpusReport(AggregateCorpus(results, fails))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]*CorpusFileResult(nil), results...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		sf := append([]CorpusFailure(nil), fails...)
		rng.Shuffle(len(sf), func(i, j int) { sf[i], sf[j] = sf[j], sf[i] })
		got, err := MarshalCorpusReport(AggregateCorpus(shuffled, sf))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, got) {
			t.Fatalf("aggregate depends on result order (trial %d)", trial)
		}
	}
}

// TestCorpusArgsDirectives pins the directive syntax corpus sources
// carry their inputs in.
func TestCorpusArgsDirectives(t *testing.T) {
	src := "// profile-args: 32 2\n// ref-args: 128 6\nint main() { return 0; }\n"
	pa, err := corpusArgs(src, "profile-args")
	if err != nil || len(pa) != 2 || pa[0] != 32 || pa[1] != 2 {
		t.Fatalf("profile-args = %v, %v", pa, err)
	}
	ra, err := corpusArgs(src, "ref-args")
	if err != nil || len(ra) != 2 || ra[0] != 128 || ra[1] != 6 {
		t.Fatalf("ref-args = %v, %v", ra, err)
	}
	none, err := corpusArgs("int main() { return 0; }", "profile-args")
	if err != nil || none != nil {
		t.Fatalf("absent directive = %v, %v", none, err)
	}
	if _, err := corpusArgs("// profile-args: twelve\n", "profile-args"); err == nil || !strings.Contains(err.Error(), "bad profile-args") {
		t.Fatalf("bad directive error = %v", err)
	}
}
