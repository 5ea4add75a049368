package codegen

import (
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/source"
)

// compileSched lowers src, optionally schedules, and compiles.
func compileSched(t *testing.T, src string, sched bool) *machine.Program {
	t.Helper()
	f, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := source.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if sched {
		ScheduleWorkers(prog, 0)
		for _, fn := range prog.Funcs {
			if err := ir.Verify(fn); err != nil {
				t.Fatalf("scheduler broke the IR: %v", err)
			}
		}
	}
	mp, err := LowerWorkers(prog, 0)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return mp
}

// latencyBoundSrc has a long-latency FP load whose consumer sits right
// after it, with plenty of independent integer work that a scheduler can
// move into the shadow.
const latencyBoundSrc = `
double D[16];
int main() {
	int n = arg(0);
	double acc = 0.0;
	int k = 0;
	for (int i = 0; i < n; i++) {
		double d = D[i & 15];
		acc += d * 2.0;
		k = k + i;
		k = k * 3;
		k = k - i;
		k = k ^ 7;
		k = k + 11;
	}
	print(acc, k);
	return 0;
}`

func TestSchedulePreservesSemantics(t *testing.T) {
	cfg := machine.Defaults()
	base := compileSched(t, latencyBoundSrc, false)
	sched := compileSched(t, latencyBoundSrc, true)
	for _, args := range [][]int64{{0}, {1}, {100}} {
		rb, err := machine.Run(base, args, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := machine.Run(sched, args, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Output != rs.Output {
			t.Errorf("args=%v: scheduled output %q != %q", args, rs.Output, rb.Output)
		}
	}
}

func TestScheduleReducesPipelinedCycles(t *testing.T) {
	cfg := machine.Defaults()
	cfg.Pipelined = true
	base := compileSched(t, latencyBoundSrc, false)
	sched := compileSched(t, latencyBoundSrc, true)
	rb, err := machine.Run(base, []int64{500}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := machine.Run(sched, []int64{500}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Counters.Cycles >= rb.Counters.Cycles {
		t.Errorf("scheduling did not reduce pipelined cycles: %d -> %d",
			rb.Counters.Cycles, rs.Counters.Cycles)
	}
	t.Logf("pipelined cycles: unscheduled %d, scheduled %d (%.1f%% faster)",
		rb.Counters.Cycles, rs.Counters.Cycles,
		(1-float64(rs.Counters.Cycles)/float64(rb.Counters.Cycles))*100)
}

func TestPipelinedModelStallsOnLatency(t *testing.T) {
	// dependent chain: ld (2cy) feeding an add must stall; an independent
	// add in between hides one stall cycle
	dep := []machine.Instr{
		{Op: machine.OpLEA, Rd: 0, Imm: 0},
		{Op: machine.OpLd, Rd: 1, Rs: 0},
		{Op: machine.OpAdd, Rd: 2, Rs: 1, Rt: 1}, // stalls on r1
		{Op: machine.OpRet, Rs: 2},
	}
	indep := []machine.Instr{
		{Op: machine.OpLEA, Rd: 0, Imm: 0},
		{Op: machine.OpLd, Rd: 1, Rs: 0},
		{Op: machine.OpMovI, Rd: 3, Imm: 9}, // fills the load shadow
		{Op: machine.OpAdd, Rd: 2, Rs: 1, Rt: 1},
		{Op: machine.OpRet, Rs: 2},
	}
	cfg := machine.Defaults()
	cfg.Pipelined = true
	run := func(instrs []machine.Instr, nregs int) int64 {
		p := &machine.Program{
			Funcs:      map[string]*machine.FuncCode{"main": {Name: "main", Instrs: instrs, NumRegs: nregs}},
			GlobSize:   4,
			GlobalInit: map[int]uint64{},
		}
		res, err := machine.Run(p, nil, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.Cycles
	}
	cDep := run(dep, 3)
	cIndep := run(indep, 4)
	// the independent version executes one more instruction yet takes the
	// same total time: the movi issues during the load's stall cycle
	if cIndep != cDep {
		t.Errorf("load shadow not modelled: dep=%d indep=%d", cDep, cIndep)
	}
}

func TestScheduleKeepsMemoryOrder(t *testing.T) {
	// store/load to the same array must not be reordered
	src := `
int A[4];
int main() {
	A[0] = 1;
	int x = A[0];
	A[0] = 2;
	int y = A[0];
	print(x, y);
	return 0;
}`
	mp := compileSched(t, src, true)
	res, err := machine.Run(mp, nil, machine.Defaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "1 2\n" {
		t.Errorf("memory order violated: %q", res.Output)
	}
}

func TestScheduleKeepsPrintOrder(t *testing.T) {
	src := `
int main() {
	for (int i = 0; i < 3; i++) {
		print(i);
		print(i * 10);
	}
	return 0;
}`
	mp := compileSched(t, src, true)
	res, err := machine.Run(mp, nil, machine.Defaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := "0\n0\n1\n10\n2\n20\n"
	if res.Output != want {
		t.Errorf("print order = %q, want %q", res.Output, want)
	}
}

func TestScheduleManyBlocksStable(t *testing.T) {
	// scheduling must be deterministic
	var f1, f2 string
	for trial := 0; trial < 2; trial++ {
		file, err := source.Parse(latencyBoundSrc)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := source.Lower(file)
		if err != nil {
			t.Fatal(err)
		}
		ScheduleWorkers(prog, 0)
		s := fmt.Sprint(prog)
		if trial == 0 {
			f1 = s
		} else {
			f2 = s
		}
	}
	if f1 != f2 {
		t.Error("scheduling is not deterministic")
	}
}
