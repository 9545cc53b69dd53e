package bioperfload

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation. Each benchmark regenerates its artifact
// end to end (compile -> simulate -> analyze) at the test input size;
// cmd/experiments runs the same generators at the class-B/C sizes and
// prints the paper-style rows recorded in EXPERIMENTS.md.

import (
	"context"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/experiments"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/runner"
)

// Each generator runs on a fresh parallel session, so every iteration
// pays for its own compiles and simulations.

func benchProfiles(b *testing.B) []*experiments.ProgramProfile {
	b.Helper()
	profiles, err := runner.NewSession(0).CharacterizeAll(context.Background(), bio.SizeTest)
	if err != nil {
		b.Fatal(err)
	}
	return profiles
}

func benchTable8() ([]experiments.Table8Cell, error) {
	return experiments.Table8SessionFidelity(context.Background(), runner.NewSession(0), bio.SizeTest, pipeline.FidelityFull)
}

// BenchmarkFig1InstructionMix regenerates Figure 1 (instruction
// profile of the nine applications).
func BenchmarkFig1InstructionMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1(benchProfiles(b))
		if len(rows) != 9 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable1Counts regenerates Table 1 (instruction counts and
// floating-point fractions).
func BenchmarkTable1Counts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(benchProfiles(b))
		if len(rows) != 9 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFig2Coverage regenerates Figure 2 (static-load coverage,
// BioPerf vs SPEC CPU2000 analogs).
func BenchmarkFig2Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig2Session(context.Background(), runner.NewSession(0), bio.SizeTest)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 6 {
			b.Fatal("bad series count")
		}
	}
}

// BenchmarkTable2Cache regenerates Table 2 (cache performance under
// the Table 3 configuration).
func BenchmarkTable2Cache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(benchProfiles(b))
		if len(rows) != 9 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable4Sequences regenerates Table 4 (load-to-branch and
// branch-to-load sequences under the hybrid predictor).
func BenchmarkTable4Sequences(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4(benchProfiles(b))
		if len(rows) != 9 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable5HotLoads regenerates Table 5 (hmmsearch's hot-load
// profile with source attribution).
func BenchmarkTable5HotLoads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5Session(context.Background(), runner.NewSession(0), bio.SizeTest, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable8Runtimes regenerates Table 8 (original vs
// load-transformed cycles on the four platform models).
func BenchmarkTable8Runtimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := benchTable8()
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 24 {
			b.Fatal("bad cell count")
		}
	}
}

// BenchmarkFig9Speedups regenerates Figure 9 (per-platform speedups
// with harmonic means).
func BenchmarkFig9Speedups(b *testing.B) {
	cells, err := benchTable8()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9(cells)
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkCompileHmmsearch measures toolchain speed on the largest
// kernel source.
func BenchmarkCompileHmmsearch(b *testing.B) {
	p, err := Program("hmmsearch")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.Compile(true, DefaultCompiler()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateHmmsearch measures bare functional-simulation
// throughput (instructions reported via b.ReportMetric).
func BenchmarkSimulateHmmsearch(b *testing.B) {
	p, err := Program("hmmsearch")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := p.Compile(false, DefaultCompiler())
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Bind(m, SizeTest); err != nil {
			b.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
