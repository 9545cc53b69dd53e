// Package compiler is the MiniC toolchain driver: parse, type-check,
// lay out the data segment, lower to IR, optimize, and generate
// VRISC64 code. It is the single entry point the benchmark kernels,
// experiments, and tools compile through.
package compiler

import (
	"encoding/binary"
	"math"

	"bioperfload/internal/codegen"
	"bioperfload/internal/ir"
	"bioperfload/internal/isa"
	"bioperfload/internal/minic"
)

// Options selects the optimization level and the register budget of
// the target machine.
type Options struct {
	// Opt is the pass configuration; use ir.O2() for the paper's
	// "-O3" baseline and ir.O0() for unoptimized code.
	Opt ir.OptOptions
	// AllocIntRegs/AllocFPRegs cap the register allocator (0 =
	// full pool). The Pentium 4 platform compiles with 8/8.
	AllocIntRegs int
	AllocFPRegs  int
}

// Default returns the standard optimizing configuration.
func Default() Options { return Options{Opt: ir.O2()} }

// Compile builds a MiniC source file into an executable program.
func Compile(name, src string, opts Options) (*isa.Program, error) {
	file, err := minic.Parse(name, src)
	if err != nil {
		return nil, err
	}
	info, err := minic.Check(file)
	if err != nil {
		return nil, err
	}

	// Data-segment layout, in declaration order.
	layout := make(map[string]ir.GlobalLayout, len(file.Globals))
	var syms []isa.Symbol
	var inits []isa.DataInit
	addr := uint64(isa.DataBase)
	for i, g := range file.Globals {
		addr = (addr + 7) &^ 7
		size := uint64(g.Ty.Base.ElemSize())
		if g.Ty.IsArray {
			size = uint64(g.Ty.ArrayN) * uint64(g.Ty.Base.ElemSize())
		}
		layout[g.Name] = ir.GlobalLayout{Addr: addr, Index: int32(i), Ty: g.Ty}
		syms = append(syms, isa.Symbol{
			Name: g.Name, Addr: addr, Size: size,
			Elem: g.Ty.Base.ElemSize(), IsFP: g.Ty.Base == minic.TypeDouble,
		})
		if g.HasInit {
			var buf []byte
			switch {
			case g.Ty.Base == minic.TypeDouble:
				buf = make([]byte, 8)
				binary.LittleEndian.PutUint64(buf, math.Float64bits(g.InitFloat))
			case g.Ty.Base == minic.TypeChar:
				buf = []byte{byte(g.InitInt)}
			default:
				buf = make([]byte, 8)
				binary.LittleEndian.PutUint64(buf, uint64(g.InitInt))
			}
			inits = append(inits, isa.DataInit{Addr: addr, Bytes: buf})
		}
		addr += size
	}

	irp, err := ir.Lower(file, info, layout)
	if err != nil {
		return nil, err
	}
	passes := opts.Opt
	if opts.AllocIntRegs > 0 && opts.AllocIntRegs <= 12 {
		// Register-starved target (the Pentium 4's 8 logical
		// registers): speculative code motion would only add spill
		// traffic, so disable the global hoist and tighten the
		// scheduler's pressure budget — the same throttling real
		// compilers apply.
		passes.GlobalHoist = false
		passes.PressureLimit = opts.AllocIntRegs - 2
		if passes.PressureLimit < 4 {
			passes.PressureLimit = 4
		}
	}
	for _, f := range irp.Funcs {
		ir.Optimize(f, passes)
		if err := f.Validate(); err != nil {
			return nil, err
		}
	}
	prog, err := codegen.Generate(irp, syms, inits, addr, codegen.Options{
		AllocIntRegs: opts.AllocIntRegs,
		AllocFPRegs:  opts.AllocFPRegs,
	})
	if err != nil {
		return nil, err
	}
	prog.Name = name
	return prog, nil
}
