// Quickstart: compile a small MiniC program with and without data
// speculation and compare the machine counters. The program repeatedly
// reads a location that a may-aliasing store never actually touches — the
// paper's Figure 2 scenario.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

const src = `
double a = 41.5;
double b = 0.0;
int main() {
	int n = arg(0);
	double *p = &a;
	double *q = &b;
	if (n > 1000000) q = p;     // the compiler must assume *q may alias a
	double total = 0.0;
	for (int i = 0; i < n; i++) {
		total += a;             // 9-cycle FP load, candidate for promotion
		*q = total;             // may-aliasing store (never aliases at run time)
	}
	print(total);
	return 0;
}`

func main() {
	ctx := context.Background()
	for _, mode := range []repro.SpecMode{repro.SpecOff, repro.SpecProfile} {
		c, err := repro.CompileCtx(ctx, src, repro.Config{
			Spec:        mode,
			ProfileArgs: []int64{100}, // training input
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := c.RunCtx(ctx, []int64{100000})
		if err != nil {
			log.Fatal(err)
		}
		stats := c.TotalStats()
		fmt.Printf("speculation=%v:\n", mode)
		fmt.Printf("  output: %s", res.Output)
		fmt.Printf("  cycles=%d loads=%d checks=%d failed=%d\n",
			res.Counters.Cycles, res.Counters.LoadsRetired,
			res.Counters.CheckLoads, res.Counters.FailedChecks)
		fmt.Printf("  optimizer: eliminated=%d (speculative=%d), checks inserted=%d\n\n",
			stats.Eliminated, stats.SpecEliminated, stats.ChecksInserted)
	}
}
