package experiments

import (
	"context"
	"fmt"
	"io"

	"repro"
	"repro/internal/workloads"
)

// ReportAblationCtx sweeps the design choices DESIGN.md calls out on
// equake and mcf — data speculation off, control speculation off,
// arithmetic PRE off (promotion only), no PRE, and ALAT capacity — and
// renders each kernel's ref-input counters to w. Every compilation goes
// through build, so SetVerifyPasses covers the sweep and a faulted
// training run fails it.
func ReportAblationCtx(ctx context.Context, w io.Writer, workers int) error {
	cases := []struct {
		name string
		cfg  repro.Config
	}{
		{"full (profile+control spec)", repro.Config{Spec: repro.SpecProfile}},
		{"no data speculation", repro.Config{Spec: repro.SpecOff}},
		{"no control speculation", repro.Config{Spec: repro.SpecProfile, NoControlSpec: true}},
		{"loads only (no arith PRE)", repro.Config{Spec: repro.SpecProfile, NoArith: true}},
		{"no PRE at all", repro.Config{OptimizeOff: true}},
	}
	sizes := []int{4, 8, 32, 128}
	for _, name := range []string{"equake", "mcf"} {
		wl, ok := workloads.ByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %s", name)
		}
		var cfgs []repro.Config
		for _, c := range cases {
			cfgs = append(cfgs, c.cfg)
		}
		for _, size := range sizes {
			cfg := repro.Config{Spec: repro.SpecProfile}
			cfg.Machine.ALATSize = size
			cfgs = append(cfgs, cfg)
		}
		for i := range cfgs {
			cfgs[i].ProfileArgs = wl.ProfileArgs
		}
		results, err := runVariants(ctx, wl.Src, wl.RefArgs, cfgs, workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "ablation on %s (cycles on ref input):\n", name)
		for i, c := range cases {
			res := results[i]
			fmt.Fprintf(w, "  %-28s %10d cycles, %8d plain loads, %6d checks (%d failed)\n",
				c.name, res.Counters.Cycles, plainLoads(res),
				res.Counters.CheckLoads, res.Counters.FailedChecks)
		}
		for i, size := range sizes {
			res := results[len(cases)+i]
			fmt.Fprintf(w, "  ALAT %3d entries: %10d cycles, %6d failed checks, %6d evictions\n",
				size, res.Counters.Cycles, res.Counters.FailedChecks, res.Counters.ALATEvictions)
		}
		fmt.Fprintln(w)
	}
	return nil
}
