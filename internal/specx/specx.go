package specx

import (
	"fmt"

	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// Analog is one SPEC-like comparison program.
type Analog struct {
	Name   string
	source func(small bool) string
	// Bind injects the driver iteration count.
	bind func(m *sim.Machine, small bool) error
}

// Source returns the MiniC source for the given scale.
func (a *Analog) Source(small bool) string { return a.source(small) }

// Compile builds the analog.
func (a *Analog) Compile(small bool, opts compiler.Options) (*isa.Program, error) {
	return compiler.Compile(a.Name+".mc", a.Source(small), opts)
}

// Machine compiles the analog and returns a machine with its driver
// iteration count bound, ready to run.
func (a *Analog) Machine(small bool, opts compiler.Options) (*sim.Machine, error) {
	prog, err := a.Compile(small, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	m, err := sim.New(prog)
	if err != nil {
		return nil, err
	}
	if a.bind != nil {
		if err := a.bind(m, small); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Run compiles and executes, returning the printed output.
func (a *Analog) Run(small bool, opts compiler.Options) (*sim.Result, error) {
	m, err := a.Machine(small, opts)
	if err != nil {
		return nil, err
	}
	defer m.Release()
	res, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return res, nil
}

// All returns the three Figure 2 comparison programs.
func All() []*Analog {
	return []*Analog{Crafty(), Vortex(), Gcc()}
}

// Crafty returns the crafty analog.
func Crafty() *Analog {
	return &Analog{
		Name:   "craftyx",
		source: func(bool) string { return CraftySource },
		bind: func(m *sim.Machine, small bool) error {
			return m.WriteSymbolInt64s("positions", []int64{CraftyPositions(small)})
		},
	}
}

// Vortex returns the vortex analog.
func Vortex() *Analog {
	return &Analog{
		Name:   "vortexx",
		source: func(bool) string { return VortexSource },
		bind: func(m *sim.Machine, small bool) error {
			return m.WriteSymbolInt64s("nops", []int64{VortexOps(small)})
		},
	}
}

// Gcc returns the synthesized gcc-scale analog.
func Gcc() *Analog {
	return &Analog{
		Name:   "gccx",
		source: func(small bool) string { return Synthesize(GccConfig(small)) },
	}
}
