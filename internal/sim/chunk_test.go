package sim

import (
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
)

// loopProgram is a six-instruction loop body (add, load, cond branch,
// add, store, jump back) followed by two adds.
func loopProgram() *isa.Program {
	ops := []isa.Op{isa.OpAdd, isa.OpLdq, isa.OpBeq, isa.OpAdd, isa.OpStq, isa.OpBr, isa.OpAdd, isa.OpAdd}
	insts := make([]isa.Inst, len(ops))
	for i, op := range ops {
		insts[i].Op = op
	}
	return &isa.Program{Name: "loop", Insts: insts}
}

// loopStream runs the loop body iters times; the last jump falls
// through to the tail.
func loopStream(prog *isa.Program, iters int) []Event {
	var evs []Event
	for it := 0; it < iters; it++ {
		for pc := int32(0); pc < 6; pc++ {
			ev := Event{Seq: uint64(len(evs)), PC: pc, Inst: &prog.Insts[pc], Target: pc + 1}
			switch pc {
			case 1, 4:
				ev.Addr = uint64(0x1000 + 8*it + int(pc))
			case 2:
				ev.Taken = it%3 == 0
			case 5:
				ev.Taken = true
				if it+1 < iters {
					ev.Target = 0
				}
			}
			evs = append(evs, ev)
		}
	}
	for pc := int32(6); pc < 8; pc++ {
		evs = append(evs, Event{Seq: uint64(len(evs)), PC: pc, Inst: &prog.Insts[pc], Target: pc + 1})
	}
	return evs
}

// TestBuilderChunksReproduceStream expands every emitted chunk against
// the dictionary and checks it reproduces the stream exactly — PCs,
// conditional-branch outcomes, addresses, and the final target — with
// exact chunk sizes, canonical tokens, and stable dictionary ids.
func TestBuilderChunksReproduceStream(t *testing.T) {
	prog := loopProgram()
	evs := loopStream(prog, 9)
	for _, size := range []int{1, 5, 6, 13, len(evs), 4096} {
		var got []Event
		var dict *runstream.Dict
		b := NewBuilder(prog, size, func(ch *runstream.Chunk) {
			if dict != nil && ch.Dict != dict {
				t.Fatalf("size %d: dictionary changed between chunks", size)
			}
			dict = ch.Dict
			if ch.Base != uint64(len(got)) {
				t.Fatalf("size %d: chunk base %d after %d events", size, ch.Base, len(got))
			}
			if ch.N != min(size, len(evs)-len(got)) {
				t.Fatalf("size %d: chunk of %d events", size, ch.N)
			}
			br, mem := 0, 0
			for i, tk := range ch.Tokens {
				if i > 0 && ch.Tokens[i-1].ID == tk.ID {
					t.Fatalf("size %d: adjacent tokens share run %d", size, tk.ID)
				}
				r := ch.Dict.Runs[tk.ID]
				for rep := int32(0); rep < tk.Rep; rep++ {
					for pc := r.PC; pc < r.PC+r.N; pc++ {
						ev := Event{PC: pc, Target: pc + 1}
						switch isa.ClassOf(prog.Insts[pc].Op) {
						case isa.ClassCondBranch:
							ev.Taken = ch.BrTaken[br>>3]&(1<<(br&7)) != 0
							br++
						case isa.ClassUncondBranch:
							ev.Taken = true
						case isa.ClassLoad, isa.ClassStore:
							ev.Addr = ch.Addrs[mem]
							mem++
						}
						if n := len(got); n > int(ch.Base) {
							got[n-1].Target = ev.PC
						}
						got = append(got, ev)
					}
				}
			}
			if n := len(got); n > int(ch.Base) {
				got[n-1].Target = ch.Target
			}
			if (br+7)/8 != len(ch.BrTaken) || mem != len(ch.Addrs) {
				t.Fatalf("size %d: columns hold %d taken bytes and %d addresses for %d branches and %d memory events",
					size, len(ch.BrTaken), len(ch.Addrs), br, mem)
			}
		})
		b.ObserveBatch(evs[:len(evs)/2])
		b.ObserveBatch(evs[len(evs)/2:])
		b.Flush()
		if err := b.Err(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if b.Events() != uint64(len(evs)) || len(got) != len(evs) {
			t.Fatalf("size %d: %d events accepted, %d rebuilt, want %d", size, b.Events(), len(got), len(evs))
		}
		for i := range evs {
			want := evs[i]
			want.Seq, want.Inst = 0, nil
			if got[i] != want {
				t.Fatalf("size %d: event %d rebuilt as %+v, want %+v", size, i, got[i], want)
			}
		}
	}
}

// TestBuilderMergesRepeats: a loop body that is one straight-line run
// becomes a single token with the repeat count.
func TestBuilderMergesRepeats(t *testing.T) {
	prog := loopProgram()
	evs := loopStream(prog, 9)
	var toks []runstream.Token
	b := NewBuilder(prog, 4096, func(ch *runstream.Chunk) { toks = append(toks, ch.Tokens...) })
	b.ObserveBatch(evs)
	b.Flush()
	// Eight jumps back to pc 0, then the last body falls through into
	// the tail: [0,6)×8 and [0,8)×1.
	if len(toks) != 2 || toks[0].Rep != 8 || toks[1].Rep != 1 {
		t.Fatalf("tokens %+v, want [0,6)x8 then [0,8)x1", toks)
	}
}
