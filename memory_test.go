package repro

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/workloads"
)

// TestHeapBoundsEnforced checks that both engines bound the heap at the
// last allocated slot: a load or store one slot past a 4-slot
// allocation faults in the reference interpreter and on the machine.
func TestHeapBoundsEnforced(t *testing.T) {
	for name, src := range map[string]string{
		"load from": `
int main() {
	int *p = (int*)malloc(4);
	p[0] = 7;
	print(p[5]);
	return 0;
}`,
		"store to": `
int main() {
	int *p = (int*)malloc(4);
	p[5] = 7;
	print(p[0]);
	return 0;
}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Reference(src, nil); err == nil || !strings.Contains(err.Error(), name+" invalid address") {
				t.Errorf("Reference: err = %v, want a %q fault", err, name+" invalid address")
			}
			c, err := CompileCtx(context.Background(), src, Config{Spec: SpecOff})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunCtx(context.Background(), nil); err == nil || !strings.Contains(err.Error(), name+" invalid address") {
				t.Errorf("RunCtx: err = %v, want a %q fault", err, name+" invalid address")
			}
		})
	}
}

// TestKernelAllocations guards the on-demand memory image on every
// kernel: the measured run (machine.Record at the reference input) and
// the profiling run (interp.Run at the training input) must allocate
// what the program touches, not the whole reserved stack region.
func TestKernelAllocations(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			c, err := CompileCtx(context.Background(), w.Src, Config{Spec: SpecProfile, ProfileArgs: w.ProfileArgs})
			if err != nil {
				t.Fatal(err)
			}
			record := bytesPerRun(3, func() {
				if _, err := machine.Record(c.Code, w.RefArgs, machine.Config{}); err != nil {
					t.Fatal(err)
				}
			})
			if record >= 2_000_000 {
				t.Errorf("machine.Record allocates %d bytes per call, want under 2 MB", record)
			}

			prog, err := frontendCtx(context.Background(), w.Src)
			if err != nil {
				t.Fatal(err)
			}
			alias.RefineWorkers(prog, 1)
			profiling := bytesPerRun(3, func() {
				opts := interp.Options{CollectEdges: true, CollectAlias: true, Profile: profile.New(), Args: w.ProfileArgs}
				if _, err := interp.Run(prog, opts); err != nil {
					t.Fatal(err)
				}
			})
			if profiling >= 1<<20 {
				t.Errorf("profiling interp.Run allocates %d bytes per call, want under 1 MiB", profiling)
			}
		})
	}
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
