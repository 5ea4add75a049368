// missspec demonstrates the safety net of data speculation: a program is
// trained on an input where two pointers never alias, the optimizer
// speculatively promotes across the store, and then the program runs on
// an input where they DO alias. The ALAT catches every violation (failed
// checks) and the output stays correct — the paper's input-sensitivity
// argument for why profile-guided alias information must be used
// speculatively rather than as ground truth.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

const src = `
int cells[64];
int shadow[64];
int main() {
	int alias = arg(0);   // 1: q points into cells (aliases); 0: into shadow
	int n = arg(1);
	int *q = &shadow[7];
	if (alias) q = &cells[7];
	cells[7] = 3;
	int total = 0;
	for (int i = 0; i < n; i++) {
		total += cells[7];   // speculatively promoted across *q
		*q = total % 100;
	}
	print(total);
	return 0;
}`

func main() {
	ctx := context.Background()
	// train WITHOUT aliasing
	c, err := repro.CompileCtx(ctx, src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: []int64{0, 50}})
	if err != nil {
		log.Fatal(err)
	}
	for _, alias := range []int64{0, 1} {
		args := []int64{alias, 10000}
		ref, err := c.RunReferenceCtx(ctx, args)
		if err != nil {
			log.Fatal(err)
		}
		res, err := c.RunCtx(ctx, args)
		if err != nil {
			log.Fatal(err)
		}
		status := "MATCH"
		if res.Output != ref.Output {
			status = "MISMATCH (bug!)"
		}
		fmt.Printf("alias=%d: output=%s  reference=%s  [%s]\n",
			alias, trim(res.Output), trim(ref.Output), status)
		fmt.Printf("         checks=%d failed=%d (mis-speculation ratio %.1f%%)\n",
			res.Counters.CheckLoads, res.Counters.FailedChecks,
			pct(res.Counters.FailedChecks, res.Counters.CheckLoads))
	}
	fmt.Println("\nThe aliasing run mis-speculates on every iteration, yet the ld.c")
	fmt.Println("recovery reloads the clobbered value and the result stays correct.")
}

func trim(s string) string {
	if len(s) > 0 && s[len(s)-1] == '\n' {
		return s[:len(s)-1]
	}
	return s
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
