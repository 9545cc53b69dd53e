package bio

import (
	"context"
	"testing"

	"bioperfload/internal/compiler"
	"bioperfload/internal/ir"
)

// runVariant compiles one variant of p with opts and runs it at sz
// through Run, which validates the output.
func runVariant(p *Program, transformed bool, sz Size, opts compiler.Options) error {
	prog, err := p.Compile(transformed, opts)
	if err != nil {
		return err
	}
	_, err = p.Run(context.Background(), prog, sz, nil)
	return err
}

// implemented returns the programs that are already ported (stubs
// panic); once all nine exist this is All().
func implemented() []*Program { return All() }

// TestProgramsValidate runs every program at test size, original and
// (where available) transformed, across compiler configurations, and
// checks the output against the Go reference.
func TestProgramsValidate(t *testing.T) {
	for _, p := range implemented() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			configs := []compiler.Options{
				{Opt: ir.O2()},
				{Opt: ir.O0()},
				{Opt: ir.O2(), AllocIntRegs: 8, AllocFPRegs: 8},
				{Opt: ir.O2(), AllocIntRegs: 48, AllocFPRegs: 48},
			}
			for ci, opts := range configs {
				if err := runVariant(p, false, SizeTest, opts); err != nil {
					t.Errorf("config %d original: %v", ci, err)
				}
				if p.Transformable {
					if err := runVariant(p, true, SizeTest, opts); err != nil {
						t.Errorf("config %d transformed: %v", ci, err)
					}
				}
			}
		})
	}
}
