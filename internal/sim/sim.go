// Package sim is the VRISC64 functional simulator. It plays the role
// ATOM played in the paper: it executes a compiled program and hands
// out every committed instruction (instruction pointer, opcode,
// effective address, branch outcome), from which the characterization
// framework builds instruction mixes, load-coverage curves, cache and
// branch-predictor simulations, and dependence-chain analyses.
//
// A run hands out its stream in one of two shapes. Every production
// consumer — characterization, trace recording and both timing tiers —
// takes run chunks (runstream.Chunk) that the interpreter builds
// itself (SetChunkSink). Event slabs (AddBatchObserver) serve observers
// a caller supplies and tests; Builder turns such slabs into the same
// chunks for streams the interpreter did not produce.
package sim

import (
	"context"
	"errors"
	"fmt"

	"bioperfload/internal/isa"
	"bioperfload/internal/mem"
	"bioperfload/internal/runstream"
)

// Event describes one committed dynamic instruction. Events are
// delivered in slabs whose storage is recycled as soon as the batch
// callback returns: observers must not retain the slab slice or any
// *Event pointing into it past the callback — copy out whatever must
// survive. TestBatchSlabRecycling pins this contract.
type Event struct {
	Seq    uint64 // dynamic instruction number, starting at 0
	PC     int32  // static instruction index
	Inst   *isa.Inst
	Addr   uint64 // effective address for loads/stores, else 0
	Taken  bool   // for conditional branches
	Target int32  // next PC actually executed
}

// BatchSize is the slab capacity: committed instructions accumulate
// into fixed-size slabs of this many events before observers run, so
// the per-instruction interface-dispatch cost is paid once per slab
// rather than once per instruction.
const BatchSize = 4096

// BatchObserver receives committed-instruction events a slab at a
// time, in commit order. The slab is reused for the next batch the
// moment ObserveBatch returns (see Event).
type BatchObserver interface {
	ObserveBatch(evs []Event)
}

// ErrFuelExhausted is returned when the instruction budget runs out
// before the program halts.
var ErrFuelExhausted = errors.New("sim: instruction budget exhausted")

// Trap describes a runtime fault (divide by zero, bad PC).
type Trap struct {
	PC  int32
	Msg string
}

func (t *Trap) Error() string { return fmt.Sprintf("sim: trap at pc=%d: %s", t.PC, t.Msg) }

// Result summarizes a completed run.
type Result struct {
	Instructions uint64
	IntOutput    []int64   // values emitted by PRINT
	FPOutput     []float64 // values emitted by PRINTF
	ExitCode     int64     // r0 at HALT
}

// Machine executes one program. Create with New, then Run.
type Machine struct {
	prog *isa.Program
	Mem  *mem.Memory
	R    [isa.NumIntRegs]int64
	F    [isa.NumFPRegs]float64
	PC   int32

	// Fuel is the maximum number of instructions to execute; 0 means
	// DefaultFuel. Run returns ErrFuelExhausted when it is consumed.
	Fuel uint64

	observers []BatchObserver
	slab      []Event // recycled event slab shared by all observers

	sink *chunkSink // SetChunkSink; nil when no sink is set

	// Sampling window (SetSampling): when smpPeriod > 0, only the
	// first smpObserve committed instructions of every smpPeriod-sized
	// window are delivered to observers and the chunk sink.
	smpObserve uint64
	smpPeriod  uint64
}

// DefaultFuel bounds runaway programs (10 billion instructions).
const DefaultFuel = 10_000_000_000

// New creates a machine with the program loaded: data initializers are
// applied, the stack pointer is set, and the PC is at the entry point.
func New(p *isa.Program) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{prog: p, Mem: mem.New(), PC: p.Entry}
	for _, di := range p.Init {
		m.Mem.StoreBytes(di.Addr, di.Bytes)
	}
	m.R[isa.RegSP] = isa.StackTop
	// The entry's return address points at a HALT we rely on the
	// compiler to place; hand-built programs must HALT explicitly.
	return m, nil
}

// Program returns the loaded program.
func (m *Machine) Program() *isa.Program { return m.prog }

// AddBatchObserver registers a slab-at-a-time observer.
func (m *Machine) AddBatchObserver(o BatchObserver) {
	m.observers = append(m.observers, o)
}

// SetChunkSink makes the interpreter itself build the run chunks a
// Builder would build from this machine's event slabs, and hand every
// finished chunk of chunkEvents events to emit. It builds no events:
// per committed instruction the loop looks up the PC's kind, appends
// an address for a load or store and a bit for a conditional branch,
// and closes a run only at a control transfer. The final partial
// chunk is emitted on every exit — HALT, trap, fuel exhaustion and
// cancellation — so emit sees the whole committed prefix. The emitted
// chunk is reused once emit returns, as a Builder's is.
//
// A sink streams the one run of a new machine. Under SetSampling it
// sees only the observe windows: each window's chunks start at the
// window's first sequence number, so a chunk's Base jumps over every
// skipped stretch. Slab observers may be attached alongside.
func (m *Machine) SetChunkSink(chunkEvents int, emit func(*runstream.Chunk)) {
	m.sink = &chunkSink{chunker: newChunker(m.prog, chunkEvents, emit)}
}

// Release returns the machine's memory pages and its chunk sink's
// buffers to package pools that later machines draw from. Call it once
// the run's Result has been read; the machine must not be used
// afterwards. Release is optional: the pools only recycle storage, so
// a machine that is never released is collected as usual.
func (m *Machine) Release() {
	m.Mem.Release()
	if m.sink != nil {
		m.sink.release()
		m.sink = nil
	}
}

// WriteSymbol copies raw bytes into the named global. It is how Go
// test harnesses inject input datasets (sequences, HMM parameters)
// into the simulated address space before Run.
func (m *Machine) WriteSymbol(name string, b []byte) error {
	s, ok := m.prog.Symbol(name)
	if !ok {
		return fmt.Errorf("sim: no symbol %q in %s", name, m.prog.Name)
	}
	if uint64(len(b)) > s.Size {
		return fmt.Errorf("sim: %d bytes exceed symbol %q size %d", len(b), name, s.Size)
	}
	m.Mem.StoreBytes(s.Addr, b)
	return nil
}

// WriteSymbolInt64s stores vs into the named int64-element global.
func (m *Machine) WriteSymbolInt64s(name string, vs []int64) error {
	s, ok := m.prog.Symbol(name)
	if !ok {
		return fmt.Errorf("sim: no symbol %q in %s", name, m.prog.Name)
	}
	if uint64(len(vs))*8 > s.Size {
		return fmt.Errorf("sim: %d int64s exceed symbol %q size %d", len(vs), name, s.Size)
	}
	for i, v := range vs {
		m.Mem.WriteInt64(s.Addr+uint64(i)*8, v)
	}
	return nil
}

// WriteSymbolFloat64s stores vs into the named float64-element global.
func (m *Machine) WriteSymbolFloat64s(name string, vs []float64) error {
	s, ok := m.prog.Symbol(name)
	if !ok {
		return fmt.Errorf("sim: no symbol %q in %s", name, m.prog.Name)
	}
	if uint64(len(vs))*8 > s.Size {
		return fmt.Errorf("sim: %d float64s exceed symbol %q size %d", len(vs), name, s.Size)
	}
	for i, v := range vs {
		m.Mem.WriteFloat64(s.Addr+uint64(i)*8, v)
	}
	return nil
}

// Run executes until HALT, a trap, or fuel exhaustion.
func (m *Machine) Run() (*Result, error) {
	return m.RunContext(context.Background())
}

// SetSampling restricts delivery, to slab observers and the chunk
// sink alike, to the first observe committed instructions of every
// period-instruction window, aligned to the committed-instruction
// count. The gate toggles only at window boundaries of the chunked
// execution loop, so the skipped stretches run at bare functional
// speed with zero per-instruction cost — this is what lets a sampled
// timing model ride a full-length functional run. Result.Instructions
// still counts every committed instruction.
//
// Sampling silently drops events, so only sampling-aware timing models
// opt in; a trace Writer refuses the gapped chunk stream.
// observe == 0, period == 0, or observe >= period disables sampling.
func (m *Machine) SetSampling(observe, period uint64) {
	if observe == 0 || period == 0 || observe >= period {
		m.smpObserve, m.smpPeriod = 0, 0
		return
	}
	m.smpObserve, m.smpPeriod = observe, period
}

// CancelCheckInterval is how many instructions execute between
// context-cancellation checks in RunContext. The check lives outside
// the per-instruction hot loop — execution proceeds in chunks of this
// many instructions — so cancellation support costs nothing per
// instruction while a canceled run still stops within one chunk.
const CancelCheckInterval = 1 << 16

// RunContext executes until HALT, a trap, fuel exhaustion, or context
// cancellation. Cancellation is detected within CancelCheckInterval
// committed instructions; the returned error wraps ctx.Err(), and the
// event slab and chunk sink are flushed first so observers see the
// full committed prefix, exactly as on the trap path.
func (m *Machine) RunContext(ctx context.Context) (*Result, error) {
	// cs holds all chunk state behind one pointer: the sink while it
	// is open, nil without a sink or inside a skip window.
	var cs *chunkSink
	fuel := m.Fuel
	if fuel == 0 {
		fuel = DefaultFuel
	}
	res := &Result{}
	insts := m.prog.Insts
	n := int32(len(insts))
	hasObs := len(m.observers) > 0
	if hasObs && m.slab == nil {
		m.slab = make([]Event, 0, BatchSize)
	}
	// flush hands the accumulated slab to every observer, then
	// truncates it for reuse: the backing array is recycled, which is
	// why observers must not retain events past the callback.
	flush := func() {
		if len(m.slab) == 0 {
			return
		}
		for _, o := range m.observers {
			o.ObserveBatch(m.slab)
		}
		m.slab = m.slab[:0]
	}
	// fail flushes events committed before the fault so observers see
	// the complete committed-instruction prefix.
	fail := func(err error) (*Result, error) {
		flush()
		if cs != nil {
			cs.flush(res.Instructions, m.PC)
		}
		return res, err
	}

	for {
		// seen gates delivery for this chunk. With sampling active,
		// the chunk is additionally clipped to the current observe/skip
		// window boundary so the gate only toggles here, never inside
		// the hot loop.
		seen := true
		stop := res.Instructions + CancelCheckInterval
		if m.smpPeriod > 0 {
			pos := res.Instructions % m.smpPeriod
			var boundary uint64
			if pos < m.smpObserve {
				boundary = res.Instructions + (m.smpObserve - pos)
			} else {
				seen = false
				boundary = res.Instructions + (m.smpPeriod - pos)
			}
			if stop > boundary {
				stop = boundary
			}
		}
		obs := hasObs && seen
		if !seen {
			// Entering a skip window: hand observers and the sink the
			// tail of the previous observed window first, in order.
			flush()
			if cs != nil {
				cs.flush(res.Instructions, m.PC)
				cs = nil
			}
		} else if cs == nil && m.sink != nil {
			// Open a fresh chunk and run here.
			cs = m.sink
			cs.ch.Base, cs.runPC, cs.runStart = res.Instructions, m.PC, res.Instructions
		}
		if cs != nil {
			// The sink's open chunk also ends a stretch, and is
			// emitted after it.
			stop = min(stop, cs.ch.Base+uint64(cs.chunkEvents))
		}
		if stop > fuel {
			stop = fuel
		}
		// hook gates all per-instruction delivery, so the bare loop
		// tests one flag and keeps its values in registers.
		hook := obs || cs != nil
		for res.Instructions < stop {
			pc := m.PC
			if pc < 0 || pc >= n {
				return fail(&Trap{PC: pc, Msg: "pc out of range"})
			}
			in := &insts[pc]
			next := pc + 1
			var addr uint64
			taken := false

			switch in.Op {
			case isa.OpNop:
			case isa.OpAdd:
				m.setR(in.Rd, m.R[in.Ra]+m.src2(in))
			case isa.OpSub:
				m.setR(in.Rd, m.R[in.Ra]-m.src2(in))
			case isa.OpMul:
				m.setR(in.Rd, m.R[in.Ra]*m.src2(in))
			case isa.OpDiv:
				d := m.src2(in)
				if d == 0 {
					return fail(&Trap{PC: pc, Msg: "integer divide by zero"})
				}
				m.setR(in.Rd, m.R[in.Ra]/d)
			case isa.OpRem:
				d := m.src2(in)
				if d == 0 {
					return fail(&Trap{PC: pc, Msg: "integer remainder by zero"})
				}
				m.setR(in.Rd, m.R[in.Ra]%d)
			case isa.OpAnd:
				m.setR(in.Rd, m.R[in.Ra]&m.src2(in))
			case isa.OpOr:
				m.setR(in.Rd, m.R[in.Ra]|m.src2(in))
			case isa.OpXor:
				m.setR(in.Rd, m.R[in.Ra]^m.src2(in))
			case isa.OpSll:
				m.setR(in.Rd, m.R[in.Ra]<<(uint64(m.src2(in))&63))
			case isa.OpSrl:
				m.setR(in.Rd, int64(uint64(m.R[in.Ra])>>(uint64(m.src2(in))&63)))
			case isa.OpSra:
				m.setR(in.Rd, m.R[in.Ra]>>(uint64(m.src2(in))&63))
			case isa.OpCmpEq:
				m.setR(in.Rd, b2i(m.R[in.Ra] == m.src2(in)))
			case isa.OpCmpLt:
				m.setR(in.Rd, b2i(m.R[in.Ra] < m.src2(in)))
			case isa.OpCmpLe:
				m.setR(in.Rd, b2i(m.R[in.Ra] <= m.src2(in)))
			case isa.OpCmpUlt:
				m.setR(in.Rd, b2i(uint64(m.R[in.Ra]) < uint64(m.src2(in))))
			case isa.OpS8Add:
				m.setR(in.Rd, m.R[in.Ra]*8+m.src2(in))
			case isa.OpLda:
				m.setR(in.Rd, m.R[in.Ra]+in.Imm)
			case isa.OpLdiq:
				m.setR(in.Rd, in.Imm)
			case isa.OpCmovEq:
				if m.R[in.Ra] == 0 {
					m.setR(in.Rd, m.R[in.Rb])
				}
			case isa.OpCmovNe:
				if m.R[in.Ra] != 0 {
					m.setR(in.Rd, m.R[in.Rb])
				}
			case isa.OpCmovLt:
				if m.R[in.Ra] < 0 {
					m.setR(in.Rd, m.R[in.Rb])
				}
			case isa.OpCmovLe:
				if m.R[in.Ra] <= 0 {
					m.setR(in.Rd, m.R[in.Rb])
				}
			case isa.OpCmovGt:
				if m.R[in.Ra] > 0 {
					m.setR(in.Rd, m.R[in.Rb])
				}
			case isa.OpCmovGe:
				if m.R[in.Ra] >= 0 {
					m.setR(in.Rd, m.R[in.Rb])
				}
			case isa.OpLdq:
				addr = uint64(m.R[in.Ra] + in.Imm)
				m.setR(in.Rd, m.Mem.ReadInt64(addr))
			case isa.OpLdbu:
				addr = uint64(m.R[in.Ra] + in.Imm)
				m.setR(in.Rd, int64(m.Mem.LoadByte(addr)))
			case isa.OpStq:
				addr = uint64(m.R[in.Ra] + in.Imm)
				m.Mem.WriteInt64(addr, m.R[in.Rb])
			case isa.OpStb:
				addr = uint64(m.R[in.Ra] + in.Imm)
				m.Mem.StoreByte(addr, byte(m.R[in.Rb]))
			case isa.OpLdt:
				addr = uint64(m.R[in.Ra] + in.Imm)
				m.setF(in.Rd, m.Mem.ReadFloat64(addr))
			case isa.OpStt:
				addr = uint64(m.R[in.Ra] + in.Imm)
				m.Mem.WriteFloat64(addr, m.F[in.Rb])
			case isa.OpAddt:
				m.setF(in.Rd, m.F[in.Ra]+m.F[in.Rb])
			case isa.OpSubt:
				m.setF(in.Rd, m.F[in.Ra]-m.F[in.Rb])
			case isa.OpMult:
				m.setF(in.Rd, m.F[in.Ra]*m.F[in.Rb])
			case isa.OpDivt:
				m.setF(in.Rd, m.F[in.Ra]/m.F[in.Rb])
			case isa.OpCmpTeq:
				m.setR(in.Rd, b2i(m.F[in.Ra] == m.F[in.Rb]))
			case isa.OpCmpTlt:
				m.setR(in.Rd, b2i(m.F[in.Ra] < m.F[in.Rb]))
			case isa.OpCmpTle:
				m.setR(in.Rd, b2i(m.F[in.Ra] <= m.F[in.Rb]))
			case isa.OpCvtQT:
				m.setF(in.Rd, float64(m.R[in.Ra]))
			case isa.OpCvtTQ:
				m.setR(in.Rd, int64(m.F[in.Ra]))
			case isa.OpFMov:
				m.setF(in.Rd, m.F[in.Ra])
			case isa.OpFNeg:
				m.setF(in.Rd, -m.F[in.Ra])
			case isa.OpBr:
				next = in.Target
				taken = true
			case isa.OpBeq:
				taken = m.R[in.Ra] == 0
				if taken {
					next = in.Target
				}
			case isa.OpBne:
				taken = m.R[in.Ra] != 0
				if taken {
					next = in.Target
				}
			case isa.OpBlt:
				taken = m.R[in.Ra] < 0
				if taken {
					next = in.Target
				}
			case isa.OpBle:
				taken = m.R[in.Ra] <= 0
				if taken {
					next = in.Target
				}
			case isa.OpBgt:
				taken = m.R[in.Ra] > 0
				if taken {
					next = in.Target
				}
			case isa.OpBge:
				taken = m.R[in.Ra] >= 0
				if taken {
					next = in.Target
				}
			case isa.OpJsr:
				m.setR(in.Rd, int64(pc+1))
				next = in.Target
				taken = true
			case isa.OpRet:
				next = int32(m.R[in.Ra])
				taken = true
			case isa.OpPrint:
				res.IntOutput = append(res.IntOutput, m.R[in.Ra])
			case isa.OpPrintF:
				res.FPOutput = append(res.FPOutput, m.F[in.Ra])
			case isa.OpHalt:
				res.Instructions++
				res.ExitCode = m.R[0]
				if obs {
					m.slab = append(m.slab, Event{Seq: res.Instructions - 1, PC: pc, Inst: in, Target: next})
				}
				flush()
				if cs != nil {
					cs.flush(res.Instructions, next)
				}
				return res, nil
			default:
				return fail(&Trap{PC: pc, Msg: "illegal opcode " + in.Op.String()})
			}

			if hook {
				if obs {
					m.slab = append(m.slab, Event{
						Seq: res.Instructions, PC: pc, Inst: in,
						Addr: addr, Taken: taken, Target: next,
					})
					if len(m.slab) == BatchSize {
						flush()
					}
				}
				if cs != nil {
					switch cs.kind[pc] {
					case kindCond:
						cs.branch(taken)
					case kindMem:
						cs.ch.Addrs = append(cs.ch.Addrs, addr)
					}
					if next != pc+1 {
						cs.endRun(res.Instructions+1, next)
					}
				}
			}
			res.Instructions++
			m.PC = next
		}
		if cs != nil && res.Instructions == cs.ch.Base+uint64(cs.chunkEvents) {
			cs.flush(res.Instructions, m.PC)
		}
		if res.Instructions >= fuel {
			return fail(ErrFuelExhausted)
		}
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("sim: %s: %w", m.prog.Name, err))
		}
	}
}

func (m *Machine) setR(rd uint8, v int64) {
	if rd != isa.RZero {
		m.R[rd] = v
	}
	m.R[isa.RZero] = 0
}

func (m *Machine) setF(rd uint8, v float64) {
	if rd != isa.FZero {
		m.F[rd] = v
	}
	m.F[isa.FZero] = 0
}

func (m *Machine) src2(in *isa.Inst) int64 {
	if in.HasImm {
		return in.Imm
	}
	return m.R[in.Rb]
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
