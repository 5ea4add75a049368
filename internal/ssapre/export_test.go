package ssapre

import "sync/atomic"

// Test helpers shared with the external test package (ssapre_test),
// whose tests compile whole workloads through package repro — an import
// package ssapre's own tests cannot make without a cycle.

// WebVisits runs f and returns how many blocks and statements the web
// phases (Φ-insertion, rename, down-safety, finalize) of every function
// SSAPRE optimized during f visited. Only one WebVisits may run at a
// time.
func WebVisits(f func()) (blocks, stmts int64) {
	var nb, ns atomic.Int64
	countVisits = func(b, s int) {
		nb.Add(int64(b))
		ns.Add(int64(s))
	}
	defer func() { countVisits = nil }()
	f()
	return nb.Load(), ns.Load()
}
