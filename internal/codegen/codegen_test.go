package codegen

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/source"
)

func lower(t *testing.T, src string) *machine.Program {
	t.Helper()
	f, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := source.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	mp, err := LowerWorkers(prog, 0)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return mp
}

func countOp(fc *machine.FuncCode, op machine.Opcode) int {
	n := 0
	for _, ins := range fc.Instrs {
		if ins.Op == op {
			n++
		}
	}
	return n
}

func TestOpcodeSelection(t *testing.T) {
	mp := lower(t, `
double d = 1.5;
int g = 2;
int main() {
	double x = d * 2.0;
	int y = g + 1;
	d = x;
	g = y;
	print(x, y);
	return y;
}`)
	main := mp.Funcs["main"]
	if countOp(main, machine.OpLdF) != 1 {
		t.Errorf("want 1 fp load, got %d\n%s", countOp(main, machine.OpLdF), mp)
	}
	if countOp(main, machine.OpLd) != 1 {
		t.Errorf("want 1 int load, got %d", countOp(main, machine.OpLd))
	}
	if countOp(main, machine.OpFMul) != 1 {
		t.Errorf("want 1 fmul, got %d", countOp(main, machine.OpFMul))
	}
	if countOp(main, machine.OpStF) != 1 || countOp(main, machine.OpSt) != 1 {
		t.Errorf("want 1 stf + 1 st, got %d/%d", countOp(main, machine.OpStF), countOp(main, machine.OpSt))
	}
}

func TestSpecFlagsBecomeSpeculativeOpcodes(t *testing.T) {
	// hand-build IR with the three flags and check the opcode mapping
	prog := ir.NewProgram()
	g := prog.NewGlobal("g", ir.IntType)
	f := prog.NewFunc("main", ir.IntType)
	b := f.NewBlock()
	f.Entry = b
	t1 := f.NewTemp(ir.IntType)
	t2 := f.NewTemp(ir.IntType)
	t3 := f.NewTemp(ir.IntType)
	t4 := f.NewTemp(ir.IntType)
	b.Stmts = []ir.Stmt{
		&ir.Assign{Dst: &ir.Ref{Sym: t1}, RK: ir.RHSCopy, A: &ir.Ref{Sym: g},
			LoadsFrom: ir.IntType, Spec: ir.SpecFlags{AdvLoad: true}},
		&ir.Assign{Dst: &ir.Ref{Sym: t2}, RK: ir.RHSCopy, A: &ir.Ref{Sym: g},
			LoadsFrom: ir.IntType, Spec: ir.SpecFlags{CheckLoad: true}},
		&ir.Assign{Dst: &ir.Ref{Sym: t3}, RK: ir.RHSCopy, A: &ir.Ref{Sym: g},
			LoadsFrom: ir.IntType, Spec: ir.SpecFlags{SpecLoad: true}},
		&ir.Assign{Dst: &ir.Ref{Sym: t4}, RK: ir.RHSCopy, A: &ir.Ref{Sym: g},
			LoadsFrom: ir.IntType, Spec: ir.SpecFlags{AdvLoad: true, SpecLoad: true}},
	}
	b.Term = ir.Term{Kind: ir.TermRet, Val: &ir.Ref{Sym: t1}}
	mp, err := LowerWorkers(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	main := mp.Funcs["main"]
	for _, want := range []machine.Opcode{machine.OpLdA, machine.OpLdC, machine.OpLdS, machine.OpLdSA} {
		if countOp(main, want) != 1 {
			t.Errorf("want exactly one %v:\n%s", want, mp)
		}
	}
}

func TestALATRegisterPairing(t *testing.T) {
	// an ld.a and its ld.c on the same (coalesced) symbol must target the
	// same register
	prog := ir.NewProgram()
	g := prog.NewGlobal("g", ir.IntType)
	f := prog.NewFunc("main", ir.IntType)
	b := f.NewBlock()
	f.Entry = b
	tsym := f.NewTemp(ir.IntType)
	b.Stmts = []ir.Stmt{
		&ir.Assign{Dst: &ir.Ref{Sym: tsym}, RK: ir.RHSCopy, A: &ir.Ref{Sym: g},
			LoadsFrom: ir.IntType, Spec: ir.SpecFlags{AdvLoad: true}},
		&ir.Assign{Dst: &ir.Ref{Sym: tsym}, RK: ir.RHSCopy, A: &ir.Ref{Sym: g},
			LoadsFrom: ir.IntType, Spec: ir.SpecFlags{CheckLoad: true}},
	}
	b.Term = ir.Term{Kind: ir.TermRet, Val: &ir.Ref{Sym: tsym}}
	mp, err := LowerWorkers(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	main := mp.Funcs["main"]
	var advRd, chkRd = -1, -1
	for _, ins := range main.Instrs {
		switch ins.Op {
		case machine.OpLdA:
			advRd = ins.Rd
		case machine.OpLdC:
			chkRd = ins.Rd
		}
	}
	if advRd < 0 || chkRd < 0 || advRd != chkRd {
		t.Errorf("ld.a reg %d != ld.c reg %d\n%s", advRd, chkRd, mp)
	}
}

func TestBranchTargetsResolve(t *testing.T) {
	mp := lower(t, `
int main() {
	int n = arg(0);
	int s = 0;
	for (int i = 0; i < n; i++) {
		if (i % 2) s += i; else s -= i;
	}
	print(s);
	return 0;
}`)
	main := mp.Funcs["main"]
	for i, ins := range main.Instrs {
		switch ins.Op {
		case machine.OpBr, machine.OpBeqz, machine.OpBnez:
			if ins.Target < 0 || ins.Target >= len(main.Instrs) {
				t.Errorf("instr %d: branch target %d out of range", i, ins.Target)
			}
		}
	}
	// the compiled loop must actually run
	res, err := machine.Run(mp, []int64{9}, machine.Defaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "-4\n" {
		t.Errorf("output = %q, want -4", res.Output)
	}
}

func TestParamRegisterConvention(t *testing.T) {
	mp := lower(t, `
int three(int a, int b, int c) { return a + b * c; }
int main() { return three(1, 2, 3); }`)
	f := mp.Funcs["three"]
	if f.NumParams != 3 {
		t.Fatalf("NumParams = %d", f.NumParams)
	}
	res, err := machine.Run(mp, nil, machine.Defaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 7 {
		t.Errorf("ret = %d, want 7", res.Ret)
	}
}

func TestFrameLayoutForAddressTakenLocals(t *testing.T) {
	mp := lower(t, `
void bump(int *p) { *p += 1; }
int main() {
	int x = 10;
	int y = 20;
	bump(&x);
	bump(&y);
	print(x, y);
	return 0;
}`)
	res, err := machine.Run(mp, nil, machine.Defaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "11 21\n" {
		t.Errorf("output = %q", res.Output)
	}
	if mp.Funcs["main"].FrameSize < 2 {
		t.Errorf("frame size = %d, want >= 2", mp.Funcs["main"].FrameSize)
	}
}

func TestSelfCopyElided(t *testing.T) {
	prog := ir.NewProgram()
	f := prog.NewFunc("main", ir.IntType)
	b := f.NewBlock()
	f.Entry = b
	x := f.NewTemp(ir.IntType)
	b.Stmts = []ir.Stmt{
		&ir.Assign{Dst: &ir.Ref{Sym: x}, RK: ir.RHSCopy, A: &ir.ConstInt{Val: 3}},
		&ir.Assign{Dst: &ir.Ref{Sym: x}, RK: ir.RHSCopy, A: &ir.Ref{Sym: x}}, // self copy
	}
	b.Term = ir.Term{Kind: ir.TermRet, Val: &ir.Ref{Sym: x}}
	mp, err := LowerWorkers(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := countOp(mp.Funcs["main"], machine.OpMov); n != 0 {
		t.Errorf("self copy not elided: %d movs", n)
	}
}
