package sim

import (
	"fmt"
	"slices"
	"sync"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
)

// Per-PC instruction kinds the chunk builders dispatch on.
const (
	kindOther = iota
	kindCond
	kindUncond
	kindMem
)

// chunker is the chunking core shared by the machine's chunk sink
// (SetChunkSink) and the slab Builder: the per-PC kind table, the run
// dictionary with its per-PC hint table, and the open chunk's columns.
//
// Chunks hold exactly chunkEvents events (the final one may hold
// fewer); runs split where the next PC is not PC+1 and at chunk ends,
// and back-to-back repeats of a run merge into one token. The
// dictionary grows in commit order and is shared by every chunk. The
// emitted *runstream.Chunk and its slices are reused for the next
// chunk the moment emit returns; consumers must not retain them.
type chunker struct {
	kind        []byte
	chunkEvents int
	emit        func(*runstream.Chunk)

	dict *runstream.Dict
	ids  map[uint64]int32
	// hint caches, per run start PC, the id+1 of the last run interned
	// from it, so closing a hot run skips the map.
	hint []int32

	ch  runstream.Chunk
	nbr int // conditional branches in the open chunk so far
}

// chunkBuffers are the storage a chunker leaves behind when its run
// ends (release): the kind and hint tables, the run-ID map and the
// column buffers. None of it carries state into the next chunker:
// newChunker rewrites every kind entry, clears the hint table, and
// truncates the columns, and release clears the map.
//
// The dictionary is never recycled. A consumer may keep it past the
// run (it is shared by every chunk), and loadchar's run engine
// recognizes a dictionary by its pointer, so a recycled one would be
// taken for the previous run's and its interned runs reused.
type chunkBuffers struct {
	kind    []byte
	hint    []int32
	ids     map[uint64]int32
	tokens  []runstream.Token
	brTaken []byte
	addrs   []uint64
}

// chunkBufs recycles the buffers of released machines' chunk sinks.
var chunkBufs sync.Pool

func newChunker(prog *isa.Program, chunkEvents int, emit func(*runstream.Chunk)) chunker {
	if chunkEvents <= 0 {
		panic("sim: chunkEvents must be positive")
	}
	b, _ := chunkBufs.Get().(*chunkBuffers)
	if b == nil {
		// Size the columns for a typical chunk up front (runs average
		// several events; well under half of all events touch memory),
		// so the first chunk does not grow them by repeated doubling.
		b = &chunkBuffers{
			ids:     make(map[uint64]int32),
			tokens:  make([]runstream.Token, 0, chunkEvents/8+1),
			brTaken: make([]byte, 0, chunkEvents/8+1),
			addrs:   make([]uint64, 0, chunkEvents/2+1),
		}
	}
	n := len(prog.Insts)
	c := chunker{
		kind:        resize(b.kind, n),
		chunkEvents: chunkEvents,
		emit:        emit,
		dict:        &runstream.Dict{},
		ids:         b.ids,
		hint:        resize(b.hint, n),
	}
	clear(c.hint)
	c.ch.Tokens = b.tokens[:0]
	c.ch.BrTaken = b.brTaken[:0]
	c.ch.Addrs = b.addrs[:0]
	for pc := range prog.Insts {
		k := byte(kindOther)
		switch isa.ClassOf(prog.Insts[pc].Op) {
		case isa.ClassCondBranch:
			k = kindCond
		case isa.ClassUncondBranch:
			k = kindUncond
		case isa.ClassLoad, isa.ClassStore:
			k = kindMem
		}
		c.kind[pc] = k
	}
	return c
}

// resize returns s with length n, reusing its storage when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release returns the chunker's buffers to chunkBufs and leaves it
// empty; it must not be used afterwards.
func (c *chunker) release() {
	clear(c.ids)
	chunkBufs.Put(&chunkBuffers{
		kind: c.kind, hint: c.hint, ids: c.ids,
		tokens: c.ch.Tokens, brTaken: c.ch.BrTaken, addrs: c.ch.Addrs,
	})
	*c = chunker{}
}

// branch appends one conditional-branch outcome to the taken bitmap.
func (c *chunker) branch(taken bool) {
	if c.nbr&7 == 0 {
		c.ch.BrTaken = append(c.ch.BrTaken, 0)
	}
	if taken {
		c.ch.BrTaken[c.nbr>>3] |= 1 << (c.nbr & 7)
	}
	c.nbr++
}

// closeRun interns the run [pc, pc+n) and appends its token, merging
// a back-to-back repeat into the previous token.
func (c *chunker) closeRun(pc, n int32) {
	id := c.hint[pc] - 1
	if id < 0 || c.dict.Runs[id].N != n {
		key := uint64(uint32(pc))<<32 | uint64(uint32(n))
		var ok bool
		if id, ok = c.ids[key]; !ok {
			id = int32(len(c.dict.Runs))
			c.ids[key] = id
			c.dict.Runs = append(c.dict.Runs, runstream.Run{PC: pc, N: n})
		}
		c.hint[pc] = id + 1
	}
	toks := c.ch.Tokens
	if k := len(toks); k > 0 && toks[k-1].ID == id {
		toks[k-1].Rep++
	} else {
		c.ch.Tokens = append(toks, runstream.Token{ID: id, Rep: 1})
	}
}

// emitChunk hands the open chunk, whose runs are all closed and whose
// N is set, to emit, then opens the next one.
func (c *chunker) emitChunk(target int32) {
	ch := &c.ch
	ch.Dict = c.dict
	ch.Target = target
	c.emit(ch)
	ch.Base += uint64(ch.N)
	ch.N = 0
	ch.Tokens = ch.Tokens[:0]
	ch.BrTaken = ch.BrTaken[:0]
	ch.Addrs = ch.Addrs[:0]
	c.nbr = 0
}

// chunkSink is the interpreter's front end to the chunker: RunContext
// appends taken bits and addresses itself and closes a run at every
// control transfer, taking its length from the sequence count.
type chunkSink struct {
	chunker
	runPC    int32
	runStart uint64 // sequence number of the open run's first event
}

// endRun closes the open run one event before seq; the next run
// starts at pc.
func (s *chunkSink) endRun(seq uint64, pc int32) {
	s.closeRun(s.runPC, int32(seq-s.runStart))
	s.runPC, s.runStart = pc, seq
}

// flush closes the open run and emits the open chunk, which ends just
// before seq; target is the next PC the program executes.
func (s *chunkSink) flush(seq uint64, target int32) {
	if seq > s.runStart {
		s.closeRun(s.runPC, int32(seq-s.runStart))
	}
	s.runPC, s.runStart = target, seq
	if seq > s.ch.Base {
		s.ch.N = int(seq - s.ch.Base)
		s.emitChunk(target)
	}
}

// Builder turns committed-event slabs into the chunks a chunk sink
// emits, for event streams this machine did not produce live: rebuilt
// recordings and test oracles. It implements BatchObserver.
//
// Every event must be run-representable, as the trace format
// requires: its PC lies inside the program, its target is the next
// event's PC (within a chunk), an unconditional branch is taken, a
// non-branch is not, and only loads and stores carry an address. The
// first violation is kept as a sticky error (Err) and later events
// are dropped.
type Builder struct {
	chunker
	runPC  int32
	runN   int32
	target int32 // target of the chunk's last event
	total  uint64
	err    error
}

var _ BatchObserver = (*Builder)(nil)

// NewBuilder returns a Builder over prog's instruction stream that
// hands every finished chunk of chunkEvents events to emit.
func NewBuilder(prog *isa.Program, chunkEvents int, emit func(*runstream.Chunk)) *Builder {
	return &Builder{chunker: newChunker(prog, chunkEvents, emit)}
}

// Err returns the first representability violation, if any.
func (b *Builder) Err() error { return b.err }

// Events returns how many events have been accepted, including those
// of the partial chunk not yet emitted.
func (b *Builder) Events() uint64 { return b.total }

// ObserveBatch implements BatchObserver.
func (b *Builder) ObserveBatch(evs []Event) {
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
func (b *Builder) fill(evs []Event) {
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
func (b *Builder) reject(i int, ev *Event) {
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
	b.err = fmt.Errorf("sim: event %d: "+format+" — stream is not run-representable",
		append([]any{b.total + uint64(i)}, args...)...)
}

// Flush emits the partial chunk, if any. A stream may be flushed at
// any event boundary: the open run closes there and the next event
// starts a new chunk.
func (b *Builder) Flush() {
	if b.err != nil || b.ch.N == 0 {
		return
	}
	b.closeRun(b.runPC, b.runN)
	b.emitChunk(b.target)
}

// AppendEvents is the inverse of a Builder: it appends to dst exactly
// the events ch stands for and returns the extended slice. Seq counts
// up from ch.Base and Inst points into prog; a conditional branch
// reads its bit of ch.BrTaken, an unconditional branch is taken, a
// load or store takes the next entry of ch.Addrs, and each Target is
// the next event's PC, ch.Target for the last. ch must be a whole
// chunk over prog, as a chunk sink, a Builder and the trace column
// decode emit.
func AppendEvents(dst []Event, prog *isa.Program, ch *runstream.Chunk) []Event {
	insts := prog.Insts
	dst = slices.Grow(dst, ch.N)
	first := len(dst)
	seq := ch.Base
	nbr, nmem := 0, 0
	for _, t := range ch.Tokens {
		r := ch.Dict.Runs[t.ID]
		for rep := int32(0); rep < t.Rep; rep++ {
			for pc := r.PC; pc < r.PC+r.N; pc++ {
				ev := Event{Seq: seq, PC: pc, Inst: &insts[pc]}
				switch isa.ClassOf(insts[pc].Op) {
				case isa.ClassCondBranch:
					ev.Taken = ch.BrTaken[nbr>>3]&(1<<(nbr&7)) != 0
					nbr++
				case isa.ClassUncondBranch:
					ev.Taken = true
				case isa.ClassLoad, isa.ClassStore:
					ev.Addr = ch.Addrs[nmem]
					nmem++
				}
				dst = append(dst, ev)
				seq++
			}
		}
	}
	evs := dst[first:]
	for i := 1; i < len(evs); i++ {
		evs[i-1].Target = evs[i].PC
	}
	if len(evs) > 0 {
		evs[len(evs)-1].Target = ch.Target
	}
	return dst
}
