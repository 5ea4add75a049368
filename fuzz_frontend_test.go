package repro_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/interp"
	"repro/internal/source"
	"repro/internal/workloads"
)

// FuzzFrontend feeds arbitrary MiniC source through the whole compiler.
// Every input must either fail with an error (no panic anywhere in the
// frontend, the profiling run or the optimizer) or, when the reference
// interpreter runs it to completion, compile under every speculation
// mode to machine code whose output matches the interpreter's. BuildCtx
// under two training inputs in turn, the second of which may reuse the
// first's build, must return what a cache-off CompileCtx does. Seeds
// are the testdata programs, the paper kernels and generated programs.
func FuzzFrontend(f *testing.F) {
	files, err := filepath.Glob("testdata/*.mc")
	if err != nil {
		f.Fatal(err)
	}
	files = append(files, "testdata/reuse/ctlspec.mc")
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, w := range workloads.All() {
		f.Add(w.Src)
	}
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(newProgGen(seed).generate())
	}
	args, args2 := []int64{3, 2}, []int64{5, 1}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := source.Parse(src)
		if err != nil {
			return
		}
		prog, err := source.Lower(file)
		if err != nil {
			return
		}
		// inputs whose memory image or run time would dwarf the seeds'
		// are out of scope: the interpreter bounds steps, not slots
		if prog.GlobSize > 1<<16 {
			return
		}
		for _, fn := range prog.Funcs {
			if fn.FrameSize > 1<<14 {
				return
			}
		}
		want, err := interp.Run(prog, interp.Options{Args: args, MaxSteps: 200_000})
		if err != nil {
			return // faults, limits: the program has no output to match
		}
		// a program the interpreter finishes in 200,000 steps compiles
		// and runs in well under this; a deadline hit is a hang
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, mode := range []repro.SpecMode{repro.SpecOff, repro.SpecProfile, repro.SpecHeuristic, repro.SpecCost} {
			c, err := repro.CompileCtx(ctx, src, repro.Config{Spec: mode, ProfileArgs: args, VerifyPasses: true})
			if err != nil {
				t.Fatalf("%s: compile: %v\n%s", mode, err, src)
			}
			got, err := c.RunCtx(ctx, args)
			if err != nil {
				t.Fatalf("%s: run: %v\n%s", mode, err, src)
			}
			if got.Output != want.Output {
				t.Fatalf("%s: output %q, interpreter %q\n%s", mode, got.Output, want.Output, src)
			}
		}
		// BuildCtx under a second training input, after the first, may
		// reuse the first's build: whatever it returns must be what a
		// full compile with the cache off produces
		trains := [][]int64{args}
		if _, err := interp.Run(prog, interp.Options{Args: args2, MaxSteps: 200_000}); err == nil {
			trains = append(trains, args2)
		}
		for _, mode := range []repro.SpecMode{repro.SpecOff, repro.SpecProfile, repro.SpecHeuristic, repro.SpecCost} {
			for _, train := range trains {
				cfg := repro.Config{Spec: mode, ProfileArgs: train}
				b, err := repro.BuildCtx(ctx, src, cfg)
				if err != nil {
					t.Fatalf("%s %v: build: %v\n%s", mode, train, err, src)
				}
				if got, want := sigOf(t, b), compileOff(t, src, cfg); got != want {
					t.Fatalf("%s %v: BuildCtx %x %+v, cache-off CompileCtx %x %+v\n%s",
						mode, train, got.fp, got.stats, want.fp, want.stats, src)
				}
			}
		}
	})
}
