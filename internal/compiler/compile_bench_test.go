package compiler_test

import (
	"runtime"
	"testing"
)

// BenchmarkCompileTable8 compiles the 36 distinct programs Table 8
// times: the six transformable programs, original and transformed,
// under each distinct platform EvalOptions. One op is all 36; B/compile
// and allocs/compile are the per-compile means.
func BenchmarkCompileTable8(b *testing.B) {
	keys, progs, trans, opts := compileVariants()
	var idx []int
	for i := range keys {
		if progs[i].Transformable {
			idx = append(idx, i)
		}
	}
	if len(idx) != 36 {
		b.Fatalf("%d distinct Table 8 compiles, want 36", len(idx))
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		for _, i := range idx {
			if _, err := progs[i].Compile(trans[i], opts[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(b.N * len(idx))
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/compile")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/compile")
}
