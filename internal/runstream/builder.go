package runstream

import (
	"fmt"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// Per-PC instruction kinds the Builder dispatches on.
const (
	kindOther = iota
	kindCond
	kindUncond
	kindMem
)

// Builder turns committed-event slabs into dictionary-backed chunks,
// so the run-native consumers (loadchar's run engine and the v4 trace
// encoder) characterize each straight-line run once instead of
// re-scanning every event. It implements sim.BatchObserver.
//
// Chunks hold exactly chunkEvents events (the final one may hold
// fewer); runs split where the next PC is not PC+1 and at chunk ends,
// and back-to-back repeats of a run merge into one token. The
// dictionary grows in commit order and is shared by every chunk.
//
// Every event must be run-representable, as the v4 trace format
// requires: its PC lies inside the program, its target is the next
// event's PC (within a chunk), an unconditional branch is taken, a
// non-branch is not, and only loads and stores carry an address. The
// first violation is kept as a sticky error (Err) and later events
// are dropped.
//
// The emitted *Chunk and its slices are reused for the next chunk the
// moment emit returns; consumers must not retain them.
type Builder struct {
	kind        []byte
	chunkEvents int
	emit        func(*Chunk)

	dict *Dict
	ids  map[uint64]int32
	// hint caches, per run start PC, the id+1 of the last run interned
	// from it, so closing a hot run skips the map.
	hint []int32

	ch     Chunk
	runPC  int32
	runN   int32
	target int32 // target of the chunk's last event
	nbr    int   // conditional branches in the chunk so far
	total  uint64
	err    error
}

var _ sim.BatchObserver = (*Builder)(nil)

// NewBuilder returns a Builder over prog's instruction stream that
// hands every finished chunk of chunkEvents events to emit.
func NewBuilder(prog *isa.Program, chunkEvents int, emit func(*Chunk)) *Builder {
	if chunkEvents <= 0 {
		panic("runstream: chunkEvents must be positive")
	}
	b := &Builder{
		kind:        make([]byte, len(prog.Insts)),
		chunkEvents: chunkEvents,
		emit:        emit,
		dict:        &Dict{},
		ids:         make(map[uint64]int32),
		hint:        make([]int32, len(prog.Insts)),
	}
	// Size the columns for a typical chunk up front (runs average
	// several events; well under half of all events touch memory), so
	// the first chunk does not grow them by repeated doubling.
	b.ch.Tokens = make([]Token, 0, chunkEvents/8+1)
	b.ch.BrTaken = make([]byte, 0, chunkEvents/8+1)
	b.ch.Addrs = make([]uint64, 0, chunkEvents/2+1)
	for pc := range prog.Insts {
		switch isa.ClassOf(prog.Insts[pc].Op) {
		case isa.ClassCondBranch:
			b.kind[pc] = kindCond
		case isa.ClassUncondBranch:
			b.kind[pc] = kindUncond
		case isa.ClassLoad, isa.ClassStore:
			b.kind[pc] = kindMem
		}
	}
	return b
}

// Err returns the first representability violation, if any.
func (b *Builder) Err() error { return b.err }

// Events returns how many events have been accepted, including those
// of the partial chunk not yet emitted.
func (b *Builder) Events() uint64 { return b.total }

// ObserveBatch implements sim.BatchObserver.
func (b *Builder) ObserveBatch(evs []sim.Event) {
	for len(evs) > 0 && b.err == nil {
		n := min(b.chunkEvents-b.ch.N, len(evs))
		b.fill(evs[:n])
		evs = evs[n:]
		if b.ch.N == b.chunkEvents {
			b.Flush()
		}
	}
}

// fill appends evs, which fit in the open chunk, keeping the hot
// per-event state in locals.
func (b *Builder) fill(evs []sim.Event) {
	kind := b.kind
	ni := uint32(len(kind))
	ch := &b.ch
	brTaken, addrs, nbr := ch.BrTaken, ch.Addrs, b.nbr
	runPC, runN, target := b.runPC, b.runN, b.target
	open := ch.N > 0
	for i := range evs {
		ev := &evs[i]
		pc := ev.PC
		if uint32(pc) >= ni {
			b.fail(i, "pc %d outside program (%d insts)", pc, ni)
			return
		}
		ok := true
		switch kind[pc] {
		case kindCond:
			if nbr&7 == 0 {
				brTaken = append(brTaken, 0)
			}
			if ev.Taken {
				brTaken[nbr>>3] |= 1 << (nbr & 7)
			}
			nbr++
			ok = ev.Addr == 0
		case kindUncond:
			ok = ev.Taken && ev.Addr == 0
		case kindMem:
			addrs = append(addrs, ev.Addr)
			ok = !ev.Taken
		default:
			ok = !ev.Taken && ev.Addr == 0
		}
		if !ok {
			b.reject(i, ev)
			return
		}
		switch {
		case !open:
			runPC, runN, open = pc, 1, true
		case target != pc:
			b.fail(i, "previous target %d is not this pc %d", target, pc)
			return
		case pc == runPC+runN:
			runN++
		default:
			b.closeRun(runPC, runN)
			runPC, runN = pc, 1
		}
		target = ev.Target
	}
	ch.BrTaken, ch.Addrs, b.nbr = brTaken, addrs, nbr
	b.runPC, b.runN, b.target = runPC, runN, target
	ch.N += len(evs)
	b.total += uint64(len(evs))
}

// reject records why evs[i] of the current fill is not
// run-representable, given that its taken flag or address is wrong for
// its instruction kind.
func (b *Builder) reject(i int, ev *sim.Event) {
	switch k := b.kind[ev.PC]; {
	case k == kindUncond && !ev.Taken:
		b.fail(i, "unconditional branch at pc %d not taken", ev.PC)
	case k != kindCond && k != kindUncond && ev.Taken:
		b.fail(i, "non-branch at pc %d marked taken", ev.PC)
	default:
		b.fail(i, "non-memory instruction at pc %d carries address %#x", ev.PC, ev.Addr)
	}
}

// fail records the sticky error for the i-th event of the current fill.
func (b *Builder) fail(i int, format string, args ...any) {
	b.err = fmt.Errorf("runstream: event %d: "+format+" — stream is not run-representable",
		append([]any{b.total + uint64(i)}, args...)...)
}

// closeRun interns the run [pc, pc+n) and appends its token, merging
// a back-to-back repeat into the previous token.
func (b *Builder) closeRun(pc, n int32) {
	id := b.hint[pc] - 1
	if id < 0 || b.dict.Runs[id].N != n {
		key := uint64(uint32(pc))<<32 | uint64(uint32(n))
		var ok bool
		if id, ok = b.ids[key]; !ok {
			id = int32(len(b.dict.Runs))
			b.ids[key] = id
			b.dict.Runs = append(b.dict.Runs, Run{PC: pc, N: n})
		}
		b.hint[pc] = id + 1
	}
	toks := b.ch.Tokens
	if k := len(toks); k > 0 && toks[k-1].ID == id {
		toks[k-1].Rep++
	} else {
		b.ch.Tokens = append(toks, Token{ID: id, Rep: 1})
	}
}

// Flush emits the partial chunk, if any. A stream may be flushed at
// any event boundary: the open run closes there and the next event
// starts a new chunk.
func (b *Builder) Flush() {
	ch := &b.ch
	if b.err != nil || ch.N == 0 {
		return
	}
	b.closeRun(b.runPC, b.runN)
	ch.Dict = b.dict
	ch.Target = b.target
	b.emit(ch)
	ch.Base += uint64(ch.N)
	ch.N = 0
	ch.Tokens = ch.Tokens[:0]
	ch.BrTaken = ch.BrTaken[:0]
	ch.Addrs = ch.Addrs[:0]
	b.nbr = 0
}
