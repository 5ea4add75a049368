package repro_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// TestTestdataPrograms compiles and runs every .mc file under testdata/
// in all speculation modes, checking VM output against the reference
// interpreter — the same contract the CLI tools rely on.
func TestTestdataPrograms(t *testing.T) {
	files, err := filepath.Glob("testdata/*.mc")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no testdata programs found")
	}
	args := map[string][]int64{
		"figure2.mc": {60},
		"smvp.mc":    {24, 2},
	}
	train := map[string][]int64{
		"figure2.mc": {0},
		"smvp.mc":    {12, 1},
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Base(file)
		runArgs := args[base]
		for _, mode := range []repro.SpecMode{repro.SpecOff, repro.SpecProfile, repro.SpecHeuristic} {
			t.Run(base+"/"+mode.String(), func(t *testing.T) {
				c, err := repro.CompileCtx(context.Background(), string(src), repro.Config{Spec: mode, ProfileArgs: train[base]})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				want, err := c.RunReferenceCtx(context.Background(), runArgs)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				got, err := c.RunCtx(context.Background(), runArgs)
				if err != nil {
					t.Fatalf("vm: %v", err)
				}
				if got.Output != want.Output {
					t.Errorf("output mismatch: %q vs %q", got.Output, want.Output)
				}
			})
		}
	}
}
