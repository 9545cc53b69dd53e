package isa

import (
	"fmt"
	"sort"
	"sync"
)

// Memory layout constants shared by the compiler, loader, and
// simulator. Globals live in a data segment; the stack grows down from
// StackTop. There is no heap: MiniC programs allocate statically, like
// the paper's kernels allocate their DP arrays once.
const (
	DataBase  = 0x0001_0000
	StackTop  = 0x7FFF_0000
	StackSize = 0x0040_0000 // 4 MiB of simulated stack
)

// Symbol describes one global object in the data segment.
type Symbol struct {
	Name string
	Addr uint64
	Size uint64 // bytes
	Elem int    // element size in bytes (1, or 8)
	IsFP bool   // elements are float64
}

// FuncInfo describes one compiled function for profiling reports.
type FuncInfo struct {
	Name  string
	Entry int32 // first instruction index
	End   int32 // one past the last instruction index
}

// Program is a loadable VRISC64 executable image plus the metadata the
// characterization framework needs: symbol table, function table,
// source file names, and static data initializers.
type Program struct {
	Name    string
	Insts   []Inst
	Entry   int32 // index of the first instruction to execute
	DataEnd uint64

	Files   []string // file table indexed by SrcPos.File
	Funcs   []FuncInfo
	Symbols []Symbol

	// Init holds static initial values for the data segment,
	// applied by the loader before execution.
	Init []DataInit

	symOnce  sync.Once
	symIndex map[string]int
}

// DataInit is a chunk of initialized data.
type DataInit struct {
	Addr  uint64
	Bytes []byte
}

// Symbol returns the named global, or false when absent. The lazy
// index is built under a sync.Once: a compiled Program is immutable
// and may be shared by machines running on several goroutines.
func (p *Program) Symbol(name string) (Symbol, bool) {
	p.symOnce.Do(func() {
		p.symIndex = make(map[string]int, len(p.Symbols))
		for i, s := range p.Symbols {
			p.symIndex[s.Name] = i
		}
	})
	i, ok := p.symIndex[name]
	if !ok {
		return Symbol{}, false
	}
	return p.Symbols[i], true
}

// FuncAt returns the function containing instruction index pc, or nil.
func (p *Program) FuncAt(pc int32) *FuncInfo {
	i := sort.Search(len(p.Funcs), func(i int) bool {
		return p.Funcs[i].End > pc
	})
	if i < len(p.Funcs) && p.Funcs[i].Entry <= pc && pc < p.Funcs[i].End {
		return &p.Funcs[i]
	}
	return nil
}

// FileName returns the file table entry for idx, or "?".
func (p *Program) FileName(idx int32) string {
	if idx >= 0 && int(idx) < len(p.Files) {
		return p.Files[idx]
	}
	return "?"
}

// StaticLoads returns the instruction indices of every static load in
// the program, in program order.
func (p *Program) StaticLoads() []int32 {
	var out []int32
	for i := range p.Insts {
		if IsLoad(p.Insts[i].Op) {
			out = append(out, int32(i))
		}
	}
	return out
}

// Validate checks structural invariants: branch targets in range,
// register numbers in range, HALT reachable as the last resort.
func (p *Program) Validate() error {
	n := int32(len(p.Insts))
	if p.Entry < 0 || p.Entry >= n {
		return fmt.Errorf("isa: entry %d out of range [0,%d)", p.Entry, n)
	}
	for i, in := range p.Insts {
		if in.Rd >= NumIntRegs || in.Ra >= NumIntRegs || in.Rb >= NumIntRegs {
			return fmt.Errorf("isa: inst %d (%s): register out of range", i, in)
		}
		switch {
		case in.Op == OpBr || IsCondBranch(in.Op) || in.Op == OpJsr:
			if in.Target < 0 || in.Target >= n {
				return fmt.Errorf("isa: inst %d (%s): target %d out of range", i, in, in.Target)
			}
		case in.Op >= numOps:
			return fmt.Errorf("isa: inst %d: bad opcode %d", i, in.Op)
		}
	}
	return nil
}
