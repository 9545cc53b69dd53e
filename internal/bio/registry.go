// Package bio contains the nine BioPerf benchmark programs the paper
// studies, re-implemented twice each: a pure-Go reference (the ground
// truth the simulated runs are validated against) and MiniC sources
// compiled onto the simulated machine. The six programs the paper
// load-transforms (Section 3.3, Table 6) additionally carry a
// transformed MiniC source whose hot loops apply the paper's
// source-level load scheduling — hmmsearch and hmmcalibrate use the
// paper's Figure 6(c) code verbatim, predator uses Figure 8(b), and
// dnapenny/hmmpfam/clustalw follow the same recipe on their own hot
// loops.
package bio

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// Size selects the input scale. The paper profiles with class-B and
// times with class-C inputs; our sizes are scaled-down equivalents
// (millions rather than billions of dynamic instructions), applied
// identically to original and transformed code.
type Size int

// Input sizes.
const (
	// SizeTest is for unit tests (well under a million instructions).
	SizeTest Size = iota
	// SizeB is the characterization input (class-B analog).
	SizeB
	// SizeC is the timing input (class-C analog).
	SizeC
)

func (s Size) String() string {
	switch s {
	case SizeTest:
		return "test"
	case SizeB:
		return "classB"
	default:
		return "classC"
	}
}

// ParseSize is the inverse of Size.String. It also accepts the short
// spellings b/B and c/C for classB and classC.
func ParseSize(s string) (Size, error) {
	switch s {
	case "test":
		return SizeTest, nil
	case "classB", "b", "B":
		return SizeB, nil
	case "classC", "c", "C":
		return SizeC, nil
	}
	return 0, fmt.Errorf("unknown size %q (test|classB|classC)", s)
}

// Binder receives a program's input dataset. Both the functional
// simulator's machine and the MiniC AST interpreter implement it, so
// the same Bind function can feed either execution engine.
type Binder interface {
	WriteSymbolInt64s(name string, vals []int64) error
	WriteSymbolFloat64s(name string, vals []float64) error
	WriteSymbol(name string, b []byte) error
}

// Expected is a program's reference output, computed in Go.
type Expected struct {
	Ints   []int64
	Floats []float64
}

// Program describes one BioPerf application. Its Name identifies its
// Bind and Reference: both are pure functions of the size, and Run
// memoizes their results per (Name, Size) for the life of the process
// (see runInputs), so two programs of one name must bind the same
// inputs and expect the same output.
type Program struct {
	Name string
	// Area is the bioinformatics domain (sequence analysis,
	// molecular phylogeny, protein structure — Section 2).
	Area string
	// Transformable marks the six applications amenable to
	// source-level load scheduling (Section 3.3).
	Transformable bool
	// LoadsConsidered and LinesInvolved reproduce Table 6.
	LoadsConsidered int
	LinesInvolved   int

	// Source holds the MiniC code: Source[false] original,
	// Source[true] load-transformed (empty if !Transformable).
	source      string
	transformed string

	// Bind injects the input dataset for the given size into an
	// execution engine's global symbols.
	Bind func(m Binder, sz Size) error
	// Reference computes the expected printed output in Go.
	Reference func(sz Size) Expected
}

// Source returns the MiniC source; transformed selects the
// load-scheduled variant.
func (p *Program) Source(transformed bool) string {
	if transformed {
		if !p.Transformable {
			return p.source
		}
		return p.transformed
	}
	return p.source
}

// Compile builds the program with the given compiler options.
func (p *Program) Compile(transformed bool, opts compiler.Options) (*isa.Program, error) {
	suffix := ""
	if transformed && p.Transformable {
		suffix = "-lt" // load-transformed
	}
	return compiler.Compile(p.Name+suffix+".mc", p.Source(transformed), opts)
}

// Run is the one functional run of a compiled program: it loads prog
// into a fresh machine, binds the inputs for sz, lets attach wire the
// caller's chunk sink (and, for a sampled run, SetSampling), runs under
// ctx and validates the output against the Go reference. attach may be
// nil. Every caller that simulates a BioPerf program goes through Run.
//
// The run allocates only its own simulation state: the inputs are
// replayed from the (program, size) memo, the reference is read from
// it, and the machine is released once the output is validated, so
// its memory pages and chunk-sink buffers serve the next run.
func (p *Program) Run(ctx context.Context, prog *isa.Program, sz Size, attach func(*sim.Machine)) (*sim.Result, error) {
	m, err := sim.New(prog)
	if err != nil {
		return nil, err
	}
	defer m.Release()
	if err := p.memo(sz).bind(p, sz, m); err != nil {
		return nil, fmt.Errorf("%s: bind: %w", p.Name, err)
	}
	if attach != nil {
		attach(m)
	}
	res, err := m.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	if err := p.Validate(res, sz); err != nil {
		return nil, err
	}
	return res, nil
}

// Validate compares simulated output with the Go reference.
func (p *Program) Validate(res *sim.Result, sz Size) error {
	want := p.memo(sz).reference(p, sz)
	if len(res.IntOutput) != len(want.Ints) {
		return fmt.Errorf("%s/%s: %d int outputs, want %d (%v vs %v)",
			p.Name, sz, len(res.IntOutput), len(want.Ints), res.IntOutput, want.Ints)
	}
	for i := range want.Ints {
		if res.IntOutput[i] != want.Ints[i] {
			return fmt.Errorf("%s/%s: int[%d] = %d, want %d",
				p.Name, sz, i, res.IntOutput[i], want.Ints[i])
		}
	}
	if len(res.FPOutput) != len(want.Floats) {
		return fmt.Errorf("%s/%s: %d fp outputs, want %d",
			p.Name, sz, len(res.FPOutput), len(want.Floats))
	}
	for i := range want.Floats {
		got, exp := res.FPOutput[i], want.Floats[i]
		if math.Abs(got-exp) > 1e-9*(1+math.Abs(exp)) {
			return fmt.Errorf("%s/%s: fp[%d] = %v, want %v", p.Name, sz, i, got, exp)
		}
	}
	return nil
}

// runInputs is the memo of one (program, size): the symbol writes its
// Bind makes, recorded on the first run and replayed into every later
// machine, and its Go reference output. Both are built at most once
// and then only read; the process keeps them, at most one per program
// and size (27).
type runInputs struct {
	bindOnce sync.Once
	writes   []func(Binder) error
	bindErr  error // Bind's own error, after the writes it made

	refOnce sync.Once
	ref     Expected
}

type inputsKey struct {
	name string
	sz   Size
}

// memos maps an inputsKey to its *runInputs. It is package-level rather
// than per Program because callers such as bioperfd look programs up
// by name per request (ByName), which returns new Programs.
var memos sync.Map

// memo returns the memo entry of (p.Name, sz).
func (p *Program) memo(sz Size) *runInputs {
	k := inputsKey{p.Name, sz}
	v, ok := memos.Load(k)
	if !ok {
		v, _ = memos.LoadOrStore(k, new(runInputs))
	}
	return v.(*runInputs)
}

// bind writes the recorded inputs into b, recording them through p's
// Bind first if no run has yet. It fails where a direct Bind into b
// would: at the first write b refuses, or with Bind's own error. b is
// handed the memo's own slices, so it must only read them, as a
// sim.Machine does (it copies them into simulated memory).
func (in *runInputs) bind(p *Program, sz Size, b Binder) error {
	in.bindOnce.Do(func() {
		var r recorder
		in.bindErr = p.Bind(&r, sz)
		in.writes = r.writes
	})
	for _, write := range in.writes {
		if err := write(b); err != nil {
			return err
		}
	}
	return in.bindErr
}

// reference returns p's Go reference output at sz, computing it on
// the first call.
func (in *runInputs) reference(p *Program, sz Size) Expected {
	in.refOnce.Do(func() { in.ref = p.Reference(sz) })
	return in.ref
}

// recorder is the Binder a first run binds through. It keeps each
// write as a closure that replays it over a copy of the written slice,
// so a Bind that reuses a buffer between writes, or changes one after
// it returns, cannot change what is replayed.
type recorder struct{ writes []func(Binder) error }

func (r *recorder) WriteSymbol(name string, b []byte) error {
	b = slices.Clone(b)
	r.writes = append(r.writes, func(m Binder) error { return m.WriteSymbol(name, b) })
	return nil
}

func (r *recorder) WriteSymbolInt64s(name string, vals []int64) error {
	vals = slices.Clone(vals)
	r.writes = append(r.writes, func(m Binder) error { return m.WriteSymbolInt64s(name, vals) })
	return nil
}

func (r *recorder) WriteSymbolFloat64s(name string, vals []float64) error {
	vals = slices.Clone(vals)
	r.writes = append(r.writes, func(m Binder) error { return m.WriteSymbolFloat64s(name, vals) })
	return nil
}

// All returns the nine programs in the paper's order (Table 1).
func All() []*Program {
	return []*Program{
		Blast(), Clustalw(), Dnapenny(), Fasta(),
		Hmmcalibrate(), Hmmpfam(), Hmmsearch(),
		Predator(), Promlk(),
	}
}

// ByName returns the named program.
func ByName(name string) (*Program, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("bio: unknown program %q", name)
}

// Transformed returns the six programs the paper load-transforms.
func Transformed() []*Program {
	var out []*Program
	for _, p := range All() {
		if p.Transformable {
			out = append(out, p)
		}
	}
	return out
}
