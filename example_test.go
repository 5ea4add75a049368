package repro_test

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// ExampleCompileCtx demonstrates the whole pipeline on the paper's Figure 2
// scenario: a load made redundant by speculation, checked by the ALAT.
func ExampleCompileCtx() {
	ctx := context.Background()
	src := `
int a = 10;
int b = 20;
int main() {
	int *p = &a;
	int *q = &b;
	if (arg(0) > 50) q = p;   // may-alias, never true on the training input
	int x = a;
	*q = 99;
	int y = a;                // speculatively redundant
	print(x, y);
	return 0;
}`
	c, err := repro.CompileCtx(ctx, src, repro.Config{
		Spec:        repro.SpecProfile,
		ProfileArgs: []int64{0}, // training input: no aliasing
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.RunCtx(ctx, []int64{0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Output)
	fmt.Printf("checks=%d failed=%d\n", res.Counters.CheckLoads, res.Counters.FailedChecks)

	// the adversarial input mis-speculates but stays correct
	res, err = c.RunCtx(ctx, []int64{99})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Output)
	fmt.Printf("checks=%d failed=%d\n", res.Counters.CheckLoads, res.Counters.FailedChecks)
	// Output:
	// 10 10
	// checks=1 failed=0
	// 10 99
	// checks=1 failed=1
}

// ExampleReference shows the interpreter-based reference semantics used as
// the oracle in the test suite.
func ExampleReference() {
	res, err := repro.Reference(`
int main() {
	int n = arg(0);
	int acc = 0;
	for (int i = 1; i <= n; i++) acc += i;
	print(acc);
	return 0;
}`, []int64{10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Output)
	// Output:
	// 55
}

// ExampleCollectProfileCtx shows the two-step profile-feedback workflow.
func ExampleCollectProfileCtx() {
	ctx := context.Background()
	src := `
int total = 0;
int main() {
	for (int i = 0; i < arg(0); i++) total += i;
	print(total);
	return 0;
}`
	prof, err := repro.CollectProfileCtx(ctx, src, []int64{100})
	if err != nil {
		log.Fatal(err)
	}
	c, err := repro.CompileCtx(ctx, src, repro.Config{Spec: repro.SpecProfile, ProfileJSON: prof})
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.RunCtx(ctx, []int64{5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Output)
	// Output:
	// 10
}
