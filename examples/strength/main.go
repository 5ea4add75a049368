// strength demonstrates the strength-reduction and linear-function
// test-replacement clients of the SSAPRE framework (§4 of the paper):
// induction-variable multiplications become additions and the loop exit
// test is rewritten against the reduced temporary, so DCE can retire the
// original induction variable.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

const src = `
int main() {
	int n = arg(0);
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc += i * 24;
	}
	print(acc);
	return 0;
}`

func main() {
	ctx := context.Background()
	for _, cfg := range []struct {
		name string
		c    repro.Config
	}{
		{"unoptimized", repro.Config{OptimizeOff: true}},
		{"optimized", repro.Config{Spec: repro.SpecOff, ProfileArgs: []int64{10}}},
	} {
		comp, err := repro.CompileCtx(ctx, src, cfg.c)
		if err != nil {
			log.Fatal(err)
		}
		res, err := comp.RunCtx(ctx, []int64{100000})
		if err != nil {
			log.Fatal(err)
		}
		st := comp.TotalStats()
		fmt.Printf("%-12s output=%s  cycles=%d  instrs=%d  (strength-reduced=%d, LFTR=%d)\n",
			cfg.name, res.Output[:len(res.Output)-1], res.Counters.Cycles,
			res.Counters.InstrsRetired, st.StrengthReduced, st.LFTRApplied)
	}
	c, err := repro.CompileCtx(ctx, src, repro.Config{Spec: repro.SpecOff, ProfileArgs: []int64{10}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noptimized loop (i*24 is gone; the temp advances by 24):")
	fmt.Println(c.Prog.FuncMap["main"])
}
