package sim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// chunkLog digests one chunk stream as it is emitted (emitted chunks
// are reused, and a per-event chunk stream is too large to keep).
type chunkLog struct {
	h      hash.Hash
	buf    []byte
	chunks int
	lastN  int
	events uint64
	dict   *runstream.Dict
}

func (l *chunkLog) emit(ch *runstream.Chunk) {
	if l.h == nil {
		l.h = sha256.New()
	}
	b := l.buf[:0]
	for _, v := range []uint64{ch.Base, uint64(ch.N), uint64(ch.Target), uint64(len(ch.Tokens)), uint64(len(ch.BrTaken)), uint64(len(ch.Addrs))} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, tk := range ch.Tokens {
		b = binary.LittleEndian.AppendUint32(b, uint32(tk.ID))
		b = binary.LittleEndian.AppendUint32(b, uint32(tk.Rep))
	}
	b = append(b, ch.BrTaken...)
	for _, a := range ch.Addrs {
		b = binary.LittleEndian.AppendUint64(b, a)
	}
	l.h.Write(b)
	l.buf = b
	l.chunks++
	l.lastN = ch.N
	l.events = ch.Base + uint64(ch.N)
	l.dict = ch.Dict
}

func (l *chunkLog) sum() []byte {
	if l.h == nil {
		return nil
	}
	return l.h.Sum(nil)
}

// sinkRun attaches a slab Builder and a chunk sink of the same chunk
// size to m, runs it under ctx, and checks both produced the same
// chunk stream over exactly the committed prefix. It returns the run's
// result and error, and the sink's log.
func sinkRun(t *testing.T, ctx context.Context, name string, m *sim.Machine, chunk int, onChunk func()) (*sim.Result, error, *chunkLog) {
	t.Helper()
	var slab, sink chunkLog
	b := sim.NewBuilder(m.Program(), chunk, slab.emit)
	m.AddBatchObserver(b)
	m.SetChunkSink(chunk, func(ch *runstream.Chunk) {
		sink.emit(ch)
		if onChunk != nil {
			onChunk()
		}
	})
	res, err := m.RunContext(ctx)
	b.Flush()
	if berr := b.Err(); berr != nil {
		t.Fatalf("%s chunk=%d: slab builder: %v", name, chunk, berr)
	}
	if sink.events != res.Instructions || b.Events() != res.Instructions {
		t.Fatalf("%s chunk=%d: sink streamed %d events, builder %d, run committed %d",
			name, chunk, sink.events, b.Events(), res.Instructions)
	}
	if sink.chunks != slab.chunks || !bytes.Equal(sink.sum(), slab.sum()) {
		t.Fatalf("%s chunk=%d: the sink's %d chunks differ from the builder's %d", name, chunk, sink.chunks, slab.chunks)
	}
	if sink.chunks > 0 && !reflect.DeepEqual(sink.dict.Runs, slab.dict.Runs) {
		t.Fatalf("%s chunk=%d: run dictionaries differ", name, chunk)
	}
	return res, err, &sink
}

func bioMachine(t *testing.T, p *bio.Program) *sim.Machine {
	t.Helper()
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Bind(m, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestChunkSinkMatchesBuilder: on every program at test size and at
// chunk sizes from one event to the trace chunk size, the
// interpreter's own chunks equal a slab Builder's over the same run.
func TestChunkSinkMatchesBuilder(t *testing.T) {
	for _, p := range bio.All() {
		for _, chunk := range []int{1, 7, 4096, 16384} {
			res, err, _ := sinkRun(t, context.Background(), p.Name, bioMachine(t, p), chunk, nil)
			if err != nil {
				t.Fatalf("%s chunk=%d: %v", p.Name, chunk, err)
			}
			if err := p.Validate(res, bio.SizeTest); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestChunkSinkHaltOnBoundary: a HALT that commits the last event of a
// full chunk emits that chunk once, with HALT's fall-through target.
func TestChunkSinkHaltOnBoundary(t *testing.T) {
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	res, err := bioMachine(t, p).Run()
	if err != nil {
		t.Fatal(err)
	}
	n := int(res.Instructions)
	f := 2
	for n%f != 0 {
		f++
	}
	for _, chunk := range []int{n, n / f} {
		_, err, log := sinkRun(t, context.Background(), p.Name, bioMachine(t, p), chunk, nil)
		if err != nil {
			t.Fatal(err)
		}
		if log.chunks != n/chunk || log.lastN != chunk {
			t.Fatalf("chunk=%d: %d chunks for %d events, the last of %d", chunk, log.chunks, n, log.lastN)
		}
	}
}

// loopTrap loops iters times over a load, a store and a conditional
// branch, then divides by zero.
func loopTrap(iters int64) *isa.Program {
	b := isa.NewBuilder("looptrap")
	addr := b.Global("buf", 64, 8, false)
	b.Ldiq(1, 0)
	b.Ldiq(2, iters)
	b.Ldiq(4, int64(addr))
	b.Label("loop")
	b.Load(isa.OpLdq, 3, 4, 0)
	b.Store(isa.OpStq, 1, 4, 8)
	b.OpI(isa.OpAdd, 1, 1, 1)
	b.Op3(isa.OpCmpLt, 5, 1, 2)
	b.Branch(isa.OpBne, 5, "loop")
	b.Op3(isa.OpDiv, 6, 1, isa.RZero)
	b.Halt()
	return b.MustProgram()
}

// TestChunkSinkPrefixes: after a trap, fuel exhaustion and a cancel,
// the sink has emitted exactly the committed prefix, as the slab
// Builder has.
func TestChunkSinkPrefixes(t *testing.T) {
	for _, chunk := range []int{1, 7, 4096} {
		m, err := sim.New(loopTrap(5000))
		if err != nil {
			t.Fatal(err)
		}
		var trap *sim.Trap
		if _, err, _ := sinkRun(t, context.Background(), "looptrap", m, chunk, nil); !errors.As(err, &trap) {
			t.Fatalf("chunk=%d: want a trap, got %v", chunk, err)
		}

		p, err := bio.ByName("hmmsearch")
		if err != nil {
			t.Fatal(err)
		}
		m = bioMachine(t, p)
		m.Fuel = 3*16384 + 1234
		if _, err, _ := sinkRun(t, context.Background(), p.Name, m, chunk, nil); !errors.Is(err, sim.ErrFuelExhausted) {
			t.Fatalf("chunk=%d: want fuel exhaustion, got %v", chunk, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		emitted := 0
		res, err, _ := sinkRun(t, ctx, p.Name, bioMachine(t, p), chunk, func() {
			if emitted++; emitted == 3 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) || res.Instructions == 0 {
			t.Fatalf("chunk=%d: want a canceled prefix, got %v after %d events", chunk, err, res.Instructions)
		}
	}
}

// sampledEvents records the Seq, PC and address of every event a
// sampled slab observer sees.
type sampledEvents struct{ seqs, pcs, addrs []uint64 }

func (r *sampledEvents) ObserveBatch(evs []sim.Event) {
	for _, ev := range evs {
		r.seqs = append(r.seqs, ev.Seq)
		r.pcs = append(r.pcs, uint64(ev.PC))
		if c := isa.ClassOf(ev.Inst.Op); c == isa.ClassLoad || c == isa.ClassStore {
			r.addrs = append(r.addrs, ev.Addr)
		}
	}
}

// TestChunkSinkSampling is the sampled sink's contract: under
// SetSampling the chunks cover exactly the observe windows, each
// within one window, and expanding them gives the PCs and addresses
// that sampled slab delivery gives.
func TestChunkSinkSampling(t *testing.T) {
	const observe, period = 1000, 7919
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 300, 4096} {
		m := bioMachine(t, p)
		var slab sampledEvents
		m.AddBatchObserver(&slab)
		m.SetSampling(observe, period)
		var seqs, pcs, addrs []uint64
		m.SetChunkSink(chunk, func(ch *runstream.Chunk) {
			if w := ch.Base % period; ch.N > chunk || w+uint64(ch.N) > observe {
				t.Fatalf("chunk=%d: chunk [%d, +%d) leaves its observe window", chunk, ch.Base, ch.N)
			}
			for i := range ch.N {
				seqs = append(seqs, ch.Base+uint64(i))
			}
			for _, tk := range ch.Tokens {
				r := ch.Dict.Runs[tk.ID]
				for range tk.Rep {
					for pc := r.PC; pc < r.PC+r.N; pc++ {
						pcs = append(pcs, uint64(pc))
					}
				}
			}
			addrs = append(addrs, ch.Addrs...)
		})
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for seq := uint64(0); seq < res.Instructions; seq++ {
			if seq%period < observe {
				want = append(want, seq)
			}
		}
		if res.Instructions < 10*period || !reflect.DeepEqual(seqs, want) {
			t.Fatalf("chunk=%d: chunks cover %d of %d events, want the %d in observe windows", chunk, len(seqs), res.Instructions, len(want))
		}
		if !reflect.DeepEqual(slab.seqs, want) || !reflect.DeepEqual(pcs, slab.pcs) || !reflect.DeepEqual(addrs, slab.addrs) {
			t.Fatalf("chunk=%d: expanded chunks differ from sampled slab delivery", chunk)
		}
	}
}

// eventMatcher compares two event streams fed in any interleaving —
// the interpreter hands out slabs and chunks at different boundaries —
// holding only the stretch one side is ahead by.
type eventMatcher struct {
	t         *testing.T
	what      string
	ahead     []sim.Event
	sinkAhead bool
	matched   uint64
}

func (m *eventMatcher) feed(fromSink bool, evs []sim.Event) {
	m.t.Helper()
	if len(m.ahead) == 0 || m.sinkAhead == fromSink {
		m.ahead = append(m.ahead, evs...)
		m.sinkAhead = fromSink
		return
	}
	n := min(len(m.ahead), len(evs))
	for i := range n {
		if evs[i] != m.ahead[i] {
			m.t.Fatalf("%s: event %d: expanded and slab events differ: %+v vs %+v", m.what, m.matched+uint64(i), evs[i], m.ahead[i])
		}
	}
	m.matched += uint64(n)
	m.ahead = append(m.ahead[:0], m.ahead[n:]...)
	if len(evs) > n {
		m.ahead, m.sinkAhead = append(m.ahead, evs[n:]...), fromSink
	}
}

// ObserveBatch feeds the matcher the slab side.
func (m *eventMatcher) ObserveBatch(evs []sim.Event) { m.feed(false, evs) }

// TestAppendEventsMatchesSlabs: on every program at test size, the
// events AppendEvents expands from the machine's own chunks equal, word
// for word, the slabs the interpreter hands a slab observer on the same
// run, at chunk sizes from one event to the trace chunk size, with and
// without the fast timing tier's sampling (1<<16 of every 1<<21).
func TestAppendEventsMatchesSlabs(t *testing.T) {
	for _, p := range bio.All() {
		for _, sampled := range []bool{false, true} {
			for _, chunk := range []int{1, 7, 16384} {
				m := bioMachine(t, p)
				match := &eventMatcher{t: t, what: fmt.Sprintf("%s chunk=%d sampled=%v", p.Name, chunk, sampled)}
				m.AddBatchObserver(match)
				if sampled {
					m.SetSampling(1<<16, 1<<21)
				}
				var expanded []sim.Event
				m.SetChunkSink(chunk, func(ch *runstream.Chunk) {
					expanded = sim.AppendEvents(expanded[:0], m.Program(), ch)
					match.feed(true, expanded)
				})
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(match.ahead) != 0 || match.matched == 0 || !sampled && match.matched != res.Instructions {
					t.Fatalf("%s: matched %d of %d events, %d left over", match.what, match.matched, res.Instructions, len(match.ahead))
				}
			}
		}
	}
}

var benchSize = flag.String("sim.size", "test", "input size for BenchmarkEmission (test|classB|classC)")

// BenchmarkEmission reports the interpreter's ns per committed
// instruction over the nine programs for each way a run can hand out
// its stream: bare (no consumer), slab + Builder (event slabs rebuilt
// into chunks) and chunk sink (chunks built by the interpreter).
//
//	go test ./internal/sim -run '^$' -bench Emission -sim.size classB
func BenchmarkEmission(b *testing.B) {
	sz, err := bio.ParseSize(*benchSize)
	if err != nil {
		b.Fatal(err)
	}
	progs := bio.All()
	isas := make([]*isa.Program, len(progs))
	for i, p := range progs {
		if isas[i], err = p.Compile(false, compiler.Default()); err != nil {
			b.Fatal(err)
		}
	}
	noop := func(*runstream.Chunk) {}
	for _, mode := range []struct {
		name   string
		attach func(m *sim.Machine)
	}{
		{"bare", func(*sim.Machine) {}},
		{"slab+builder", func(m *sim.Machine) { m.AddBatchObserver(sim.NewBuilder(m.Program(), 16384, noop)) }},
		{"sink", func(m *sim.Machine) { m.SetChunkSink(16384, noop) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var events uint64
			for range b.N {
				for i, p := range progs {
					b.StopTimer()
					m, err := sim.New(isas[i])
					if err != nil {
						b.Fatal(err)
					}
					if err := p.Bind(m, sz); err != nil {
						b.Fatal(err)
					}
					mode.attach(m)
					b.StartTimer()
					res, err := m.Run()
					if err != nil {
						b.Fatal(err)
					}
					events += res.Instructions
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
