// Package binfmttest holds the allocation oracle the decoder regression
// and fuzz tests share.
package binfmttest

import "runtime"

// AllocatedBy returns the heap bytes allocated while f runs (by any
// goroutine, so leave slack for the runtime's own). Unlike
// testing.AllocsPerRun it sees one huge make as what it is.
func AllocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
