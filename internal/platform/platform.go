// Package platform encodes the paper's four evaluation machines
// (Table 7) as timing-model and compiler configurations: Alpha 21264,
// PowerPC G5, Pentium 4, and Itanium 2. Each platform couples a
// pipeline.Config (widths, window, latencies, cache geometry) with the
// compiler-visible register budget; the Pentium 4's eight logical
// registers are what the paper blames for its small speedups (register
// spills eat the benefit of the added temporaries), and we reproduce
// that by restricting the register allocator on that platform.
package platform

import (
	"fmt"

	"bioperfload/internal/cache"
	"bioperfload/internal/compiler"
	"bioperfload/internal/pipeline"
)

// Platform couples the microarchitectural model with the compilation
// target parameters for one evaluation machine.
type Platform struct {
	Name string
	// Pipeline is the timing-model configuration.
	Pipeline pipeline.Config
	// IntRegs and FPRegs are the Table 7 "Register" row (documentation).
	IntRegs int
	FPRegs  int
	// AllocIntRegs/AllocFPRegs are the compiler's allocatable-register
	// budget on this platform (0 = the toolchain default pool). The
	// Pentium 4 compiles with 8; the Itanium 2 with its large file.
	AllocIntRegs int
	AllocFPRegs  int
	// Description summarizes the Table 7 row.
	Description string
}

// Alpha21264 returns the paper's reference machine: 833 MHz Alpha
// 21264, 64 KB 2-way L1D with 3-cycle integer load-to-use latency,
// 4 MB direct-mapped L2, out-of-order, 32 GPR + 32 FPR.
func Alpha21264() Platform {
	return Platform{
		Name: "alpha21264",
		Pipeline: pipeline.Config{
			Name: "alpha21264", InOrder: false,
			FetchWidth: 4, IssueWidth: 4, RetireWidth: 8,
			WindowSize: 80, LoadPorts: 2,
			FrontEndDepth: 4, MispredictPenalty: 7,
			IntALULat: 1, IntMulLat: 7, IntDivLat: 20,
			FPALULat: 4, FPMulLat: 4, FPDivLat: 15, BranchLat: 1,
			Cache: cache.HierarchyConfig{
				L1:  cache.Config{Name: "L1D", Size: 64 << 10, Assoc: 2, Block: 64, WriteBack: true},
				L2:  cache.Config{Name: "L2", Size: 4 << 20, Assoc: 1, Block: 64, WriteBack: true},
				Lat: cache.Latencies{L1: 3, L2: 5, Mem: 72},
			},
		},
		IntRegs: 32, FPRegs: 32,
		Description: "Alpha 21264, 833 MHz, 64KB 2-way L1D (3-cycle), 4MB DM L2, OoO",
	}
}

// PowerPCG5 returns the 2.7 GHz PowerPC G5 configuration: 32 KB 2-way
// L1D with 3-cycle integer latency, 512 KB 8-way L2, deep out-of-order
// pipeline, 32 GPR + 32 FPR.
func PowerPCG5() Platform {
	return Platform{
		Name: "ppcg5",
		Pipeline: pipeline.Config{
			Name: "ppcg5", InOrder: false,
			FetchWidth: 4, IssueWidth: 4, RetireWidth: 5,
			WindowSize: 100, LoadPorts: 2,
			FrontEndDepth: 8, MispredictPenalty: 13,
			IntALULat: 1, IntMulLat: 7, IntDivLat: 36,
			FPALULat: 6, FPMulLat: 6, FPDivLat: 33, BranchLat: 1,
			Cache: cache.HierarchyConfig{
				L1:  cache.Config{Name: "L1D", Size: 32 << 10, Assoc: 2, Block: 128, WriteBack: true},
				L2:  cache.Config{Name: "L2", Size: 512 << 10, Assoc: 8, Block: 128, WriteBack: true},
				Lat: cache.Latencies{L1: 3, L2: 8, Mem: 200},
			},
		},
		IntRegs: 32, FPRegs: 32,
		Description: "PowerPC G5, 2.7 GHz, 32KB 2-way L1D (3-cycle), 512KB 8-way L2, OoO",
	}
}

// Pentium4 returns the 2.0 GHz Pentium 4 configuration: 8 KB 4-way
// L1D with 2-cycle integer latency, deep pipeline with a large
// misprediction penalty, and — crucially for the paper's analysis —
// only 8 allocatable integer and 8 FP registers.
func Pentium4() Platform {
	return Platform{
		Name: "pentium4",
		Pipeline: pipeline.Config{
			Name: "pentium4", InOrder: false,
			FetchWidth: 3, IssueWidth: 4, RetireWidth: 3,
			WindowSize: 126, LoadPorts: 2,
			FrontEndDepth: 10, MispredictPenalty: 20,
			IntALULat: 1, IntMulLat: 14, IntDivLat: 60,
			FPALULat: 5, FPMulLat: 7, FPDivLat: 38, BranchLat: 1,
			Cache: cache.HierarchyConfig{
				L1:  cache.Config{Name: "L1D", Size: 8 << 10, Assoc: 4, Block: 64, WriteBack: true},
				L2:  cache.Config{Name: "L2", Size: 512 << 10, Assoc: 8, Block: 64, WriteBack: true},
				Lat: cache.Latencies{L1: 2, L2: 16, Mem: 250},
			},
		},
		IntRegs: 8, FPRegs: 8, AllocIntRegs: 8, AllocFPRegs: 8,
		Description: "Pentium 4, 2.0 GHz, 8KB 4-way L1D (2-cycle), 8 GPR/8 FPR, deep OoO",
	}
}

// Itanium2 returns the 1.6 GHz Itanium 2 configuration: in-order
// 6-issue, 16 KB 4-way L1D with single-cycle integer latency, 128
// integer and 128 FP registers.
func Itanium2() Platform {
	return Platform{
		Name: "itanium2",
		Pipeline: pipeline.Config{
			Name: "itanium2", InOrder: true,
			FetchWidth: 6, IssueWidth: 6, RetireWidth: 6,
			WindowSize: 48, LoadPorts: 2,
			FrontEndDepth: 5, MispredictPenalty: 6,
			IntALULat: 1, IntMulLat: 4, IntDivLat: 24,
			FPALULat: 4, FPMulLat: 4, FPDivLat: 24, BranchLat: 1,
			Cache: cache.HierarchyConfig{
				L1:  cache.Config{Name: "L1D", Size: 16 << 10, Assoc: 4, Block: 64, WriteBack: true},
				L2:  cache.Config{Name: "L2", Size: 256 << 10, Assoc: 8, Block: 128, WriteBack: true},
				Lat: cache.Latencies{L1: 1, L2: 5, Mem: 150},
			},
		},
		IntRegs: 128, FPRegs: 128, AllocIntRegs: 48, AllocFPRegs: 48,
		Description: "Itanium 2, 1.6 GHz, 16KB 4-way L1D (1-cycle), in-order 6-issue, 128 GPR/128 FPR",
	}
}

// EvalOptions returns the compiler options a timing evaluation uses
// on this platform: the default optimization level under the
// platform's allocatable-register budget. Platforms with equal
// EvalOptions compile to identical programs, which is what lets the
// fast tier share one functional run across them.
func (p Platform) EvalOptions() compiler.Options {
	return compiler.Options{
		Opt:          compiler.Default().Opt,
		AllocIntRegs: p.AllocIntRegs,
		AllocFPRegs:  p.AllocFPRegs,
	}
}

// WithFidelity returns a copy of the platform with the timing tier
// set — the tier-selection hook callers (service, CLIs) use to route
// a platform's evaluations to the sampled fast tier or the full stream.
func (p Platform) WithFidelity(f pipeline.Fidelity) Platform {
	p.Pipeline.Fidelity = f
	return p
}

// All returns the four platforms in the paper's Table 7/8 order.
func All() []Platform {
	return []Platform{Alpha21264(), PowerPCG5(), Pentium4(), Itanium2()}
}

// ByName returns the named platform.
func ByName(name string) (Platform, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Platform{}, fmt.Errorf("platform: unknown machine %q", name)
}

// Names lists the platform names in order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.Name
	}
	return out
}
