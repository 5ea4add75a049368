// Package machine implements the EPIC-style virtual machine the framework
// targets: an in-order execution engine with the IA-64 data-speculation
// primitives the paper relies on — advanced loads (ld.a) that allocate
// entries in an Advanced Load Address Table (ALAT), check loads (ld.c)
// that are free when the entry survives and re-execute the load when a
// conflicting store (or capacity eviction) invalidated it, and control-
// speculative loads (ld.s) that defer faults. The cycle model follows the
// paper's Itanium numbers: integer loads 2 cycles (L1 hit), floating-point
// loads 9 cycles (they fetch from L2), successful checks 0 cycles.
package machine

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Opcode enumerates VM instructions.
type Opcode int

const (
	OpNop Opcode = iota
	// data movement
	OpMovI // rd <- imm (64-bit pattern)
	OpMov  // rd <- rs
	OpLEA  // rd <- globalAddr or frameBase + off
	// integer ALU
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg
	OpNot
	// float ALU (registers hold raw float64 bits)
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	// comparisons (int result 0/1)
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE
	OpFCmpEQ
	OpFCmpNE
	OpFCmpLT
	OpFCmpLE
	OpFCmpGT
	OpFCmpGE
	// conversions
	OpI2F
	OpF2I
	// memory
	OpLd  // rd <- mem[rs]        (int latency)
	OpLdF // rd <- mem[rs]        (fp latency)
	OpLdA // advanced load: ld + ALAT allocate
	OpLdFA
	OpLdC // check load: free on ALAT hit, reload on miss
	OpLdFC
	OpLdS // control-speculative load: deferred fault (NaT on bad address)
	OpLdFS
	OpLdSA // speculative advanced load (ld.sa): deferred fault + ALAT entry
	OpLdFSA
	OpSt // mem[rd] <- rs        (invalidates ALAT entries)
	OpStF
	OpAlloc // rd <- heap allocation of rs slots
	// control
	OpBr    // unconditional branch to Target
	OpBeqz  // branch to Target if rs == 0
	OpBnez  // branch to Target if rs != 0
	OpCall  // call function Fn, args in ArgRegs, result to rd
	OpRet   // return (optional value in rs)
	OpPrint // print operands
	OpArg   // rd <- host argument rs
	OpHalt
	// OpFence is a speculation barrier: architecturally a no-op (it does
	// not touch memory or the ALAT), but under the pipelined model it
	// drains the scoreboard — no later instruction issues until every
	// in-flight result has retired — and under the serial model it costs
	// Config.FenceLat cycles. The hardening pass (internal/harden)
	// inserts it in front of speculative-leak sinks.
	OpFence
)

var opNames = map[Opcode]string{
	OpNop: "nop", OpMovI: "movi", OpMov: "mov", OpLEA: "lea",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpNeg: "neg", OpNot: "not",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv", OpFNeg: "fneg",
	OpCmpEQ: "cmp.eq", OpCmpNE: "cmp.ne", OpCmpLT: "cmp.lt", OpCmpLE: "cmp.le",
	OpCmpGT: "cmp.gt", OpCmpGE: "cmp.ge",
	OpFCmpEQ: "fcmp.eq", OpFCmpNE: "fcmp.ne", OpFCmpLT: "fcmp.lt",
	OpFCmpLE: "fcmp.le", OpFCmpGT: "fcmp.gt", OpFCmpGE: "fcmp.ge",
	OpI2F: "i2f", OpF2I: "f2i",
	OpLd: "ld", OpLdF: "ldf", OpLdA: "ld.a", OpLdFA: "ldf.a",
	OpLdC: "ld.c", OpLdFC: "ldf.c", OpLdS: "ld.s", OpLdFS: "ldf.s",
	OpLdSA: "ld.sa", OpLdFSA: "ldf.sa",
	OpSt: "st", OpStF: "stf", OpAlloc: "alloc",
	OpBr: "br", OpBeqz: "beqz", OpBnez: "bnez", OpCall: "call",
	OpRet: "ret", OpPrint: "print", OpArg: "arg", OpHalt: "halt",
	OpFence: "fence",
}

func (o Opcode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one VM instruction. Rd/Rs/Rt are virtual register numbers
// within the owning function's register file; Imm carries immediates,
// global addresses and frame offsets.
type Instr struct {
	Op      Opcode
	Rd      int
	Rs      int
	Rt      int
	Imm     int64
	Target  int    // branch target (instruction index within function)
	Fn      string // callee for OpCall
	ArgRegs []int  // argument registers for OpCall / OpPrint operands
	FloatRs []bool // OpPrint: per-operand float flag
	IsFrame bool   // OpLEA: Imm is a frame offset (else global address)
}

func (i Instr) String() string {
	switch i.Op {
	case OpMovI:
		return fmt.Sprintf("movi r%d, %d", i.Rd, i.Imm)
	case OpMov:
		return fmt.Sprintf("mov r%d, r%d", i.Rd, i.Rs)
	case OpLEA:
		if i.IsFrame {
			return fmt.Sprintf("lea r%d, fp+%d", i.Rd, i.Imm)
		}
		return fmt.Sprintf("lea r%d, g@%d", i.Rd, i.Imm)
	case OpLd, OpLdF, OpLdA, OpLdFA, OpLdC, OpLdFC, OpLdS, OpLdFS, OpLdSA, OpLdFSA:
		return fmt.Sprintf("%s r%d, [r%d]", i.Op, i.Rd, i.Rs)
	case OpSt, OpStF:
		return fmt.Sprintf("%s [r%d], r%d", i.Op, i.Rd, i.Rs)
	case OpBr:
		return fmt.Sprintf("br %d", i.Target)
	case OpBeqz:
		return fmt.Sprintf("beqz r%d, %d", i.Rs, i.Target)
	case OpBnez:
		return fmt.Sprintf("bnez r%d, %d", i.Rs, i.Target)
	case OpCall:
		return fmt.Sprintf("call %s args=%v -> r%d", i.Fn, i.ArgRegs, i.Rd)
	case OpRet:
		if i.Rs >= 0 {
			return fmt.Sprintf("ret r%d", i.Rs)
		}
		return "ret"
	case OpPrint:
		return fmt.Sprintf("print %v", i.ArgRegs)
	case OpArg:
		return fmt.Sprintf("arg r%d, r%d", i.Rd, i.Rs)
	case OpAlloc:
		return fmt.Sprintf("alloc r%d, r%d", i.Rd, i.Rs)
	case OpFence:
		return "fence"
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs, i.Rt)
	}
}

// FuncCode is the compiled form of one function.
type FuncCode struct {
	Name      string
	Instrs    []Instr
	NumRegs   int
	FrameSize int
	NumParams int
}

// Program is a whole compiled program.
type Program struct {
	Funcs      map[string]*FuncCode
	GlobSize   int
	GlobalInit map[int]uint64
}

// String disassembles the program deterministically (functions sorted by
// name).
func (p *Program) String() string {
	var b strings.Builder
	p.disassemble(&b)
	return b.String()
}

// disassemble writes the program's String text to w one line at a time,
// so Fingerprint can hash it without building the string.
func (p *Program) disassemble(w io.Writer) {
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := p.Funcs[name]
		fmt.Fprintf(w, "func %s (regs=%d frame=%d):\n", name, f.NumRegs, f.FrameSize)
		for i, ins := range f.Instrs {
			fmt.Fprintf(w, "  %4d: %s\n", i, ins.String())
		}
	}
}

// Clone deep-copies the program: instruction slices, per-instruction
// ArgRegs/FloatRs, and the global-init map are all fresh, so a pass may
// rewrite the clone (the hardening pass does) without disturbing the
// original.
func (p *Program) Clone() *Program {
	q := &Program{
		Funcs:    make(map[string]*FuncCode, len(p.Funcs)),
		GlobSize: p.GlobSize,
	}
	if p.GlobalInit != nil {
		q.GlobalInit = make(map[int]uint64, len(p.GlobalInit))
		for k, v := range p.GlobalInit {
			q.GlobalInit[k] = v
		}
	}
	for name, f := range p.Funcs {
		g := &FuncCode{
			Name:      f.Name,
			Instrs:    make([]Instr, len(f.Instrs)),
			NumRegs:   f.NumRegs,
			FrameSize: f.FrameSize,
			NumParams: f.NumParams,
		}
		copy(g.Instrs, f.Instrs)
		for i := range g.Instrs {
			if ar := g.Instrs[i].ArgRegs; ar != nil {
				g.Instrs[i].ArgRegs = append([]int(nil), ar...)
			}
			if fr := g.Instrs[i].FloatRs; fr != nil {
				g.Instrs[i].FloatRs = append([]bool(nil), fr...)
			}
		}
		q.Funcs[name] = g
	}
	return q
}
