package oracle_test

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/machine/oracle"
)

// The oracle is checked against hand-computed numbers of the paper's
// model, so the differential tests compare the production engine with
// something that is itself pinned.

func prog(instrs []machine.Instr, numRegs, globSize int) *machine.Program {
	return &machine.Program{
		Funcs:      map[string]*machine.FuncCode{"main": {Name: "main", Instrs: instrs, NumRegs: numRegs}},
		GlobSize:   globSize,
		GlobalInit: map[int]uint64{},
	}
}

// TestSerialAndPipelinedCycles: two independent loads feeding an add.
// Serially every latency adds up; pipelined, the second load issues
// while the first is in flight.
func TestSerialAndPipelinedCycles(t *testing.T) {
	p := prog([]machine.Instr{
		{Op: machine.OpLEA, Rd: 0, Imm: 0},
		{Op: machine.OpLd, Rd: 1, Rs: 0},
		{Op: machine.OpLdF, Rd: 2, Rs: 0},
		{Op: machine.OpAdd, Rd: 3, Rs: 1, Rt: 2},
		{Op: machine.OpRet, Rs: 3},
	}, 4, 4)
	d := machine.Defaults()
	serial, err := oracle.Run(p, nil, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// call overhead, lea, int load, fp load, add, ret
	want := int64(d.CallOverhead + 1 + d.IntLoadLat + d.FPLoadLat + 1 + 1)
	if serial.Counters.Cycles != want || serial.Counters.DataAccessCycles != int64(d.IntLoadLat+d.FPLoadLat) {
		t.Errorf("serial counters %+v, want %d cycles", serial.Counters, want)
	}
	piped, err := oracle.Run(p, nil, machine.Config{Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	// lea issues at 2, the loads at 3 and 4, the add waits for the FP
	// load (4+9), the ret issues one cycle later and retires at 15
	if want := int64(d.CallOverhead + 2 + d.FPLoadLat + 2); piped.Counters.Cycles != want {
		t.Errorf("pipelined cycles %d, want %d", piped.Counters.Cycles, want)
	}
}

// TestCheckMissAndFaults: a conflicting store makes the check reload at
// full load latency plus the miss penalty, and limit faults carry the
// machine's messages.
func TestCheckMissAndFaults(t *testing.T) {
	p := prog([]machine.Instr{
		{Op: machine.OpLEA, Rd: 0, Imm: 1},
		{Op: machine.OpLdA, Rd: 1, Rs: 0},
		{Op: machine.OpSt, Rd: 0, Rs: 0},
		{Op: machine.OpLdC, Rd: 1, Rs: 0},
		{Op: machine.OpRet, Rs: 1},
	}, 2, 4)
	res, err := oracle.Run(p, nil, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := machine.Defaults()
	c := res.Counters
	if res.Ret != 1 || c.CheckLoads != 1 || c.FailedChecks != 1 || c.AdvLoads != 1 {
		t.Errorf("ret %d, counters %+v", res.Ret, c)
	}
	if want := int64(d.IntLoadLat + d.StoreLat + d.IntLoadLat + d.CheckMissPen); c.DataAccessCycles != want {
		t.Errorf("data cycles %d, want %d", c.DataAccessCycles, want)
	}
	if f := res.PerFunc["main"]; f != (machine.FuncCounters{CheckLoads: 1, FailedChecks: 1, AdvLoads: 1}) {
		t.Errorf("per-function counters %+v", f)
	}
	if _, err := oracle.Run(p, nil, machine.Config{MaxSteps: 3}); err == nil || err.Error() != "machine: step limit exceeded" {
		t.Errorf("step limit: %v", err)
	}
	p.Funcs["main"].Instrs[0].Imm = -5
	if _, err := oracle.Run(p, nil, machine.Config{}); err == nil || !strings.Contains(err.Error(), "load from invalid address -5 in main") {
		t.Errorf("invalid load: %v", err)
	}
}
