// smvp reproduces the paper's §5.1 case study: the time-critical sparse
// matrix-vector product of 183.equake. It prints the fraction of loads
// converted to check instructions, the speedup over the non-speculative
// base, and the "manually tuned" upper bound (paper: 39.8% of loads
// become checks; 6% speedup vs a 14% manual bound).
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

func main() {
	ctx := context.Background()
	s, err := experiments.RunSmvpCtx(ctx, 0)
	if err != nil {
		log.Fatal(err)
	}
	experiments.PrintSmvp(os.Stdout, s)

	// also show the transformed inner loop
	w, _ := workloads.ByName("equake")
	c, err := repro.CompileCtx(ctx, w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noptimized smvp (note the ld.a / ld.c annotations):")
	fmt.Println(c.Prog.FuncMap["smvp"])
}
