package codegen

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/par"
)

// ScheduleWorkers performs latency-driven list scheduling inside each basic block
// of an (out-of-SSA) function — the "instruction scheduling" client of the
// paper's Fig. 3. Loads are issued as early as their dependences allow so
// that their latency overlaps with independent work; the pipelined VM
// timing model (machine.Config.Pipelined) rewards the overlap.
//
// The scheduler is conservative about memory: stores act as barriers
// against other memory operations (the speculative load-vs-store
// reordering the paper cites from Ju et al. [17] is already realized at a
// higher level by speculative PRE, which removes or hoists the loads
// outright). Calls and prints are full barriers. Register dependences
// (flow, anti, output) are honoured exactly.
//
// It schedules with at most workers functions in flight
// (0 = all cores, 1 = serial). Scheduling touches only the function's own
// blocks, so the result is independent of the worker count.
func ScheduleWorkers(prog *ir.Program, workers int) {
	par.Each(workers, len(prog.Funcs), func(i int) error {
		alat := alatTemps(prog.Funcs[i])
		for _, b := range prog.Funcs[i].Blocks {
			b.Stmts = scheduleBlock(b.Stmts, alat)
		}
		return nil
	})
}

// alatTemps collects the symbols whose register is an ALAT pairing key:
// destinations of advanced and check loads. A copy out of such a register
// is the point where the original (unhoisted) load conceptually happens,
// so it must stay ordered with stores and barriers — moving an aliasing
// store between a check and the copy that consumes its value would let a
// stale speculative value escape unchecked.
func alatTemps(fn *ir.Func) map[*ir.Sym]bool {
	var temps map[*ir.Sym]bool
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			if a, ok := s.(*ir.Assign); ok && (a.Spec.AdvLoad || a.Spec.CheckLoad) {
				if temps == nil {
					temps = map[*ir.Sym]bool{}
				}
				temps[a.Dst.Sym] = true
			}
		}
	}
	return temps
}

// stmtLatency estimates the result latency of a statement, mirroring the
// VM's cycle model.
func stmtLatency(s ir.Stmt) int {
	switch t := s.(type) {
	case *ir.Assign:
		switch t.RK {
		case ir.RHSLoad:
			if t.LoadsFrom != nil && t.LoadsFrom.IsFloat() {
				return 9
			}
			return 2
		case ir.RHSCopy:
			if r, ok := t.A.(*ir.Ref); ok && r.Sym.InMemory() {
				if r.Sym.Type.IsFloat() {
					return 9
				}
				return 2
			}
			return 1
		case ir.RHSBinary, ir.RHSUnary:
			aFloat := operandFloat(t.A)
			if t.B != nil {
				aFloat = aFloat || operandFloat(t.B)
			}
			switch t.Op {
			case ir.OpDiv, ir.OpMod:
				if aFloat {
					return 20
				}
				return 15
			case ir.OpMul:
				if aFloat {
					return 4
				}
				return 2
			default:
				if aFloat {
					return 4
				}
				return 1
			}
		}
	case *ir.Call:
		return 4
	}
	return 1
}

func operandFloat(op ir.Operand) bool {
	return op != nil && op.Type() != nil && op.Type().IsFloat()
}

// stmtDefs returns the register symbols defined by a statement.
func stmtDefs(s ir.Stmt) []*ir.Sym {
	switch t := s.(type) {
	case *ir.Assign:
		if !t.Dst.Sym.InMemory() {
			return []*ir.Sym{t.Dst.Sym}
		}
	case *ir.Call:
		if t.Dst != nil {
			return []*ir.Sym{t.Dst.Sym}
		}
	}
	return nil
}

// stmtUses returns the register symbols read by a statement.
func stmtUses(s ir.Stmt) []*ir.Sym {
	var out []*ir.Sym
	ir.EachUse(s, func(op ir.Operand) {
		if r, ok := op.(*ir.Ref); ok && !r.Sym.InMemory() {
			out = append(out, r.Sym)
		}
	})
	return out
}

// memClass classifies a statement's memory behaviour for dependence edges.
type memClass int

const (
	memNone memClass = iota
	memLoad
	memStore
	memBarrier // calls, prints, allocations
)

func stmtMemClass(s ir.Stmt, alat map[*ir.Sym]bool) memClass {
	switch t := s.(type) {
	case *ir.Assign:
		if t.Dst.Sym.InMemory() {
			return memStore
		}
		switch t.RK {
		case ir.RHSLoad:
			return memLoad
		case ir.RHSAlloc:
			return memBarrier
		case ir.RHSCopy:
			if r, ok := t.A.(*ir.Ref); ok && r.Sym.InMemory() {
				return memLoad
			}
			// a copy out of an ALAT register consumes a speculative
			// value at its original program point: treat it as a load so
			// no store or barrier can slide between the check and the
			// consumption (see alatTemps)
			if r, ok := t.A.(*ir.Ref); ok && alat[r.Sym] {
				return memLoad
			}
		}
		return memNone
	case *ir.IStore:
		return memStore
	case *ir.Call, *ir.Print:
		return memBarrier
	}
	return memNone
}

// scheduleBlock reorders one block's statements.
func scheduleBlock(stmts []ir.Stmt, alat map[*ir.Sym]bool) []ir.Stmt {
	n := len(stmts)
	if n < 3 {
		return stmts
	}
	succs := make([][]int, n)
	npreds := make([]int, n)
	addEdge := func(from, to int) {
		succs[from] = append(succs[from], to)
		npreds[to]++
	}

	lastDef := map[*ir.Sym]int{}
	lastUses := map[*ir.Sym][]int{}
	lastStore := -1
	lastBarrier := -1
	var memOps []int // loads and stores since the last barrier

	for i, s := range stmts {
		// register dependences
		for _, u := range stmtUses(s) {
			if d, ok := lastDef[u]; ok {
				addEdge(d, i) // RAW
			}
		}
		for _, d := range stmtDefs(s) {
			if prev, ok := lastDef[d]; ok {
				addEdge(prev, i) // WAW
			}
			for _, u := range lastUses[d] {
				addEdge(u, i) // WAR
			}
		}
		// memory dependences
		switch stmtMemClass(s, alat) {
		case memLoad:
			if lastStore >= 0 {
				addEdge(lastStore, i)
			}
			if lastBarrier >= 0 {
				addEdge(lastBarrier, i)
			}
			memOps = append(memOps, i)
		case memStore:
			for _, m := range memOps {
				addEdge(m, i)
			}
			if lastBarrier >= 0 {
				addEdge(lastBarrier, i)
			}
			memOps = memOps[:0]
			memOps = append(memOps, i)
			lastStore = i
		case memBarrier:
			for _, m := range memOps {
				addEdge(m, i)
			}
			if lastBarrier >= 0 {
				addEdge(lastBarrier, i)
			}
			if lastStore >= 0 && lastStore != i {
				addEdge(lastStore, i)
			}
			memOps = memOps[:0]
			lastStore = -1
			lastBarrier = i
		}
		// bookkeeping
		for _, u := range stmtUses(s) {
			lastUses[u] = append(lastUses[u], i)
		}
		for _, d := range stmtDefs(s) {
			lastDef[d] = i
			lastUses[d] = nil
		}
	}

	// de-duplicate edges (cheap: small blocks)
	for i := range succs {
		seen := map[int]bool{}
		var uniq []int
		for _, t := range succs[i] {
			if !seen[t] && t != i {
				seen[t] = true
				uniq = append(uniq, t)
			}
		}
		// recompute preds below
		succs[i] = uniq
	}
	for i := range npreds {
		npreds[i] = 0
	}
	for i := range succs {
		for _, t := range succs[i] {
			npreds[t]++
		}
	}

	// priority: longest latency path to the end of the block
	prio := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		best := 0
		for _, t := range succs[i] {
			if prio[t] > best {
				best = prio[t]
			}
		}
		prio[i] = best + stmtLatency(stmts[i])
	}

	// greedy list scheduling: among ready statements pick the highest
	// priority (ties: original order, keeping the schedule stable)
	var ready []int
	for i := 0; i < n; i++ {
		if npreds[i] == 0 {
			ready = append(ready, i)
		}
	}
	out := make([]ir.Stmt, 0, n)
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool {
			if prio[ready[a]] != prio[ready[b]] {
				return prio[ready[a]] > prio[ready[b]]
			}
			return ready[a] < ready[b]
		})
		pick := ready[0]
		ready = ready[1:]
		out = append(out, stmts[pick])
		for _, t := range succs[pick] {
			npreds[t]--
			if npreds[t] == 0 {
				ready = append(ready, t)
			}
		}
	}
	if len(out) != n {
		// cycle would indicate a dependence bug; fall back to the
		// original order rather than drop statements
		return stmts
	}
	return out
}
