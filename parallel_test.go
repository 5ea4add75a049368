package repro_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/ssapre"
	"repro/internal/workloads"
)

// The tests in this file pin the determinism contract of the parallel
// pipeline: Workers=1 runs the serial code paths bit-for-bit and is the
// oracle; any other worker count must produce identical optimizer stats,
// identical machine code, and identical VM counters.

func compileAt(t *testing.T, w workloads.Workload, cfg repro.Config, workers int) (*repro.Compilation, *machine.Result) {
	t.Helper()
	cfg.ProfileArgs = w.ProfileArgs
	cfg.Workers = workers
	c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
	if err != nil {
		t.Fatalf("compile %s workers=%d: %v", w.Name, workers, err)
	}
	res, err := c.RunCtx(context.Background(), w.RefArgs)
	if err != nil {
		t.Fatalf("run %s workers=%d: %v", w.Name, workers, err)
	}
	return c, res
}

// TestCompileParallelDeterminism compiles kernels serially and with 8
// workers and compares every observable artifact of the compilation.
func TestCompileParallelDeterminism(t *testing.T) {
	cfgs := map[string]repro.Config{
		"profile":   {Spec: repro.SpecProfile},
		"heuristic": {Spec: repro.SpecHeuristic},
		"scheduled": {Spec: repro.SpecProfile, Schedule: true},
	}
	for _, name := range []string{"equake", "mcf", "gzip"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		for cname, cfg := range cfgs {
			serial, serialRes := compileAt(t, w, cfg, 1)
			parallel, parallelRes := compileAt(t, w, cfg, 8)

			if !reflect.DeepEqual(serial.Stats, parallel.Stats) {
				t.Errorf("%s/%s: optimizer stats differ between workers=1 and workers=8:\n%+v\nvs\n%+v",
					name, cname, serial.Stats, parallel.Stats)
			}
			if got, want := parallel.Prog.String(), serial.Prog.String(); got != want {
				t.Errorf("%s/%s: optimized IR differs between workers=1 and workers=8", name, cname)
			}
			if got, want := parallel.Code.String(), serial.Code.String(); got != want {
				t.Errorf("%s/%s: machine code differs between workers=1 and workers=8", name, cname)
			}
			if serialRes.Counters != parallelRes.Counters {
				t.Errorf("%s/%s: VM counters differ:\n%+v\nvs\n%+v",
					name, cname, serialRes.Counters, parallelRes.Counters)
			}
			if serialRes.Output != parallelRes.Output {
				t.Errorf("%s/%s: program output differs", name, cname)
			}
		}
	}
}

// TestRunAllParallelDeterminism runs the full experiment sweep serially
// and with 8 workers; every measured row must be identical.
func TestRunAllParallelDeterminism(t *testing.T) {
	serial, err := experiments.RunAllCtx(context.Background(), 1)
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	parallel, err := experiments.RunAllCtx(context.Background(), 8)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("experiment rows differ between workers=1 and workers=8:\n%+v\nvs\n%+v", serial, parallel)
	}
}

// TestAuxExperimentsParallelDeterminism pins the Workers contract for
// the studies outside RunAllCtx: the smvp case study and the sensitivity
// table must be identical at Workers=1 (the serial oracle) and
// Workers=8.
func TestAuxExperimentsParallelDeterminism(t *testing.T) {
	s1, err := experiments.RunSmvpCtx(context.Background(), 1)
	if err != nil {
		t.Fatalf("serial smvp: %v", err)
	}
	s8, err := experiments.RunSmvpCtx(context.Background(), 8)
	if err != nil {
		t.Fatalf("parallel smvp: %v", err)
	}
	if s1 != s8 {
		t.Errorf("smvp differs between workers=1 and workers=8:\n%+v\nvs\n%+v", s1, s8)
	}
	r1, err := experiments.RunSensitivityCtx(context.Background(), 1)
	if err != nil {
		t.Fatalf("serial sensitivity: %v", err)
	}
	r8, err := experiments.RunSensitivityCtx(context.Background(), 8)
	if err != nil {
		t.Fatalf("parallel sensitivity: %v", err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("sensitivity rows differ between workers=1 and workers=8:\n%+v\nvs\n%+v", r1, r8)
	}
}

// TestFrontendCacheDetached pins the cache soundness property: a
// compilation must never observe mutations made to another compilation of
// the same source, even though both started from one cached parse.
func TestFrontendCacheDetached(t *testing.T) {
	w, _ := workloads.ByName("equake")
	cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs}
	c1, err := repro.CompileCtx(context.Background(), w.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	progText := c1.Prog.String()

	// vandalize the first compilation's program, then compile the same
	// source again — the new compile starts from the same cache master
	// and must be untouched
	for _, f := range c1.Prog.Funcs {
		for _, s := range f.Syms {
			s.Name = "junk_" + s.Name
		}
	}
	c2, err := repro.CompileCtx(context.Background(), w.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Prog.String() != progText {
		t.Fatal("mutating one compilation's IR leaked into a later compile of the same source")
	}
	res1, err := c1.RunCtx(context.Background(), w.RefArgs)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c2.RunCtx(context.Background(), w.RefArgs)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Output != res2.Output || res1.Counters != res2.Counters {
		t.Fatal("cached compile produced different code than the original")
	}

	// a cold compile (cache dropped) must also agree
	repro.ResetCaches()
	c3, err := repro.CompileCtx(context.Background(), w.Src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Prog.String() != progText {
		t.Fatal("cold compile differs from cached compile")
	}
}

// TestSharedProfileConcurrentCompiles compiles one (source, ProfileArgs)
// from 8 goroutines under every flag source. All of them read the one
// cached profile (one profiling run), which must stay read-only: under
// -race a write from any compile is a reported race, and every build
// must equal a serial compile made with the cache off.
func TestSharedProfileConcurrentCompiles(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	cfgs := []repro.Config{
		{Spec: repro.SpecOff},
		{Spec: repro.SpecProfile},
		{Spec: repro.SpecHeuristic},
		{Spec: repro.SpecCost},
		{AggressivePromotion: true},
	}
	type result struct {
		fp    [32]byte
		stats ssapre.Stats
	}
	compile := func(cfg repro.Config) (result, error) {
		cfg.ProfileArgs = w.ProfileArgs
		c, err := repro.CompileCtx(context.Background(), w.Src, cfg)
		if err != nil {
			return result{}, err
		}
		return result{c.Code.Fingerprint(), c.TotalStats()}, nil
	}

	repro.SetCacheEnabled(false)
	want := make([]result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := compile(cfg)
		if err != nil {
			repro.SetCacheEnabled(true)
			t.Fatalf("serial %+v: %v", cfg, err)
		}
		want[i] = r
	}
	repro.SetCacheEnabled(true)

	repro.ResetCaches()
	runs := repro.ProfilingRuns()
	const goroutines = 8
	got := make([][]result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]result, len(cfgs))
			// each goroutine starts at a different config
			for k := range cfgs {
				i := (g + k) % len(cfgs)
				if got[g][i], errs[g] = compile(cfgs[i]); errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range cfgs {
			if got[g][i] != want[i] {
				t.Errorf("goroutine %d, %+v: build differs from the serial compile", g, cfgs[i])
			}
		}
	}
	if n := repro.ProfilingRuns() - runs; n != 1 {
		t.Errorf("%d profiling runs, want 1 shared by every compile", n)
	}
}
