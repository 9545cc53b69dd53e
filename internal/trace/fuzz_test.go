package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// FuzzCodec drives both directions of the codec from one input:
//
//  1. The raw bytes are decoded as a chunk and as a full trace stream.
//     Arbitrary input must produce an error or a clean decode — never a
//     panic, and never an oversized allocation.
//  2. The bytes are also deterministically reinterpreted as an event
//     slab, encoded, and decoded again; the round trip must be
//     lossless.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(appendChunk(nil, 0, []Record{{PC: 1, Target: 2, Addr: 64, Taken: true}}, 1))
	f.Add(appendChunk(nil, 9, []Record{{PC: 3, Target: 4}, {PC: 4, Target: 5, Addr: 8}}, 2))
	f.Add(appendChunk(nil, 9, []Record{{PC: 3, Target: 4}, {PC: 4, Target: 5, Addr: 8}}, 3))
	var full bytes.Buffer
	tw := NewWriter(&full, Meta{Program: "fuzz", ChunkEvents: 2}, nil)
	tw.ObserveBatch(eventsFromBytes([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}))
	if err := tw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	// v4 seeds: a full run-native trace (footer dictionary included)
	// and one bare v4 chunk payload, so the fuzzer starts with valid
	// dictionary structure to mutate.
	progMix := testProgramMixed(1 << 12)
	seedEvs := simEventsFromBytes(progMix, seedStreamBytes())
	var fullV4 bytes.Buffer
	twV4 := NewWriterVersion(&fullV4, Meta{Program: "fuzz", ChunkEvents: 8}, progMix, 4)
	twV4.ObserveBatch(seedEvs)
	if err := twV4.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(fullV4.Bytes())
	{
		chunk, err := encodeV4Chunk(progMix, 0, seedEvs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(chunk)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1a: arbitrary bytes as a chunk payload under both
		// sparse encodings, decoded by both the reference decoder and the
		// fused event decoder; the fused path must accept exactly the
		// chunks the reference does (minus PCs outside the binding
		// program) and agree on every field.
		prog := testProgram(1 << 12)
		for version := 1; version <= 3; version++ {
			base, recs, err := decodeChunk(data, nil, version)
			baseE, evsE, errE := decodeChunkEvents(data, prog, nil, version)
			if err == nil {
				// A clean decode must re-encode to an equivalent chunk.
				re := appendChunk(nil, base, recs, version)
				base2, recs2, err := decodeChunk(re, nil, version)
				if err != nil {
					t.Fatalf("v%d: re-decode of re-encoded chunk failed: %v", version, err)
				}
				if base2 != base || len(recs2) != len(recs) {
					t.Fatalf("v%d: re-encode changed shape: base %d->%d, n %d->%d", version, base, base2, len(recs), len(recs2))
				}
				for i := range recs {
					if recs[i] != recs2[i] {
						t.Fatalf("v%d: re-encode changed record %d: %+v -> %+v", version, i, recs[i], recs2[i])
					}
				}
				if errE != nil {
					// The fused decoder may only add the PC-in-program check.
					inRange := true
					for _, r := range recs {
						if r.PC < 0 || int(r.PC) >= len(prog.Insts) {
							inRange = false
							break
						}
					}
					if inRange {
						t.Fatalf("v%d: fused decoder rejected a reference-valid chunk: %v", version, errE)
					}
				} else {
					if baseE != base || len(evsE) != len(recs) {
						t.Fatalf("v%d: fused decode shape: base %d->%d, n %d->%d", version, base, baseE, len(recs), len(evsE))
					}
					for i := range recs {
						ev := evsE[i]
						if ev.PC != recs[i].PC || ev.Target != recs[i].Target ||
							ev.Addr != recs[i].Addr || ev.Taken != recs[i].Taken {
							t.Fatalf("v%d: fused decode record %d: got %+v want %+v", version, i, ev, recs[i])
						}
						if ev.Seq != base+uint64(i) || ev.Inst != &prog.Insts[ev.PC] {
							t.Fatalf("v%d: fused decode record %d: bad binding %+v", version, i, ev)
						}
					}
				}
			} else if errE == nil {
				t.Fatalf("v%d: fused decoder accepted a chunk the reference rejects: %v", version, err)
			}
		}

		// Direction 1c: arbitrary bytes as a v4 chunk payload, decoded
		// against a fresh growing dictionary, must error or decode
		// cleanly — never panic. A clean decode must re-encode (with a
		// fresh dictionary) and decode back to the same events.
		{
			dict := newV4Dict()
			var sc v4Scratch
			base4, evs4, err := decodeChunkEventsV4(data, progMix, dict, true, nil, &sc)
			if err == nil {
				re, err := encodeV4Chunk(progMix, base4, evs4)
				if err != nil {
					t.Fatalf("v4: re-encode of decoded chunk failed: %v", err)
				}
				dict2 := newV4Dict()
				var sc2 v4Scratch
				base2, evs2, err := decodeChunkEventsV4(re, progMix, dict2, true, nil, &sc2)
				if err != nil {
					t.Fatalf("v4: re-decode of re-encoded chunk failed: %v", err)
				}
				if base2 != base4 || len(evs2) != len(evs4) {
					t.Fatalf("v4: re-encode changed shape: base %d->%d, n %d->%d", base4, base2, len(evs4), len(evs2))
				}
				for i := range evs4 {
					if evs4[i] != evs2[i] {
						t.Fatalf("v4: re-encode changed event %d: %+v -> %+v", i, evs4[i], evs2[i])
					}
				}
			}
		}

		// Direction 1b: arbitrary bytes as a full trace stream. A v4
		// stream threads the reader's growing dictionary through the
		// fused decoder; older versions use the reference decoder.
		if tr, err := NewReader(bytes.NewReader(data)); err == nil {
			dec := &decoder{version: tr.version, dict: tr.dict, grow: true}
			for {
				fr, err := tr.nextFrame(false)
				if err != nil {
					break
				}
				if tr.version >= 4 {
					if _, _, err := dec.decodeFrameEvents(fr, progMix, nil); err != nil {
						break
					}
				} else if _, _, err := decodeFrame(fr, nil, tr.version); err != nil {
					break
				}
			}
		}

		// Direction 2: bytes -> synthetic slab -> encode -> decode.
		evs := eventsFromBytes(data)
		var buf bytes.Buffer
		w := NewWriter(&buf, Meta{Program: "fuzz", ChunkEvents: 16}, nil)
		w.ObserveBatch(evs)
		if err := w.Close(); err != nil {
			t.Fatalf("write synthetic trace: %v", err)
		}
		tr, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("read synthetic trace: %v", err)
		}
		i := 0
		for {
			fr, err := tr.nextFrame(false)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("synthetic trace frame: %v", err)
			}
			_, recs, err := decodeFrame(fr, nil, tr.version)
			if err != nil {
				t.Fatalf("synthetic trace chunk: %v", err)
			}
			for _, rec := range recs {
				want := evs[i]
				if rec.PC != want.PC || rec.Target != want.Target || rec.Addr != want.Addr || rec.Taken != want.Taken {
					t.Fatalf("event %d: got %+v want %+v", i, rec, want)
				}
				i++
			}
		}
		if i != len(evs) {
			t.Fatalf("decoded %d events, wrote %d", i, len(evs))
		}

		// Direction 2b: bytes -> run-representable slab -> v4 encode ->
		// decode; the round trip must be lossless.
		evsR := simEventsFromBytes(progMix, data)
		var bufV4 bytes.Buffer
		w4 := NewWriterVersion(&bufV4, Meta{Program: "fuzz", ChunkEvents: 16}, progMix, 4)
		w4.ObserveBatch(evsR)
		if err := w4.Close(); err != nil {
			t.Fatalf("write v4 trace: %v", err)
		}
		tr4, err := NewReader(bytes.NewReader(bufV4.Bytes()))
		if err != nil {
			t.Fatalf("read v4 trace: %v", err)
		}
		src := tr4.Events(progMix)
		j := 0
		for {
			got, release, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("v4 trace chunk: %v", err)
			}
			for _, ev := range got {
				if ev != evsR[j] {
					t.Fatalf("v4 event %d: got %+v want %+v", j, ev, evsR[j])
				}
				j++
			}
			release()
		}
		src.Close()
		if j != len(evsR) {
			t.Fatalf("v4 decoded %d events, wrote %d", j, len(evsR))
		}
	})
}

// seedStreamBytes is a fixed byte string long enough for
// simEventsFromBytes to cross several chunk boundaries in the v4 fuzz
// seeds.
func seedStreamBytes() []byte {
	b := make([]byte, 120)
	for i := range b {
		b[i] = byte(i*37 + 11)
	}
	return b
}

// encodeV4Chunk encodes evs as one bare v4 chunk payload starting at
// event base, through a runstream.Builder and a fresh dictionary.
func encodeV4Chunk(prog *isa.Program, base uint64, evs []sim.Event) ([]byte, error) {
	vw := newV4Writer(prog)
	var out []byte
	var err error
	b := runstream.NewBuilder(prog, len(evs), func(ch *runstream.Chunk) {
		out, _, err = vw.appendChunk(nil, base, ch)
	})
	b.ObserveBatch(evs)
	b.Flush()
	if b.Err() != nil {
		return nil, b.Err()
	}
	return out, err
}

// simEventsFromBytes deterministically shreds bytes into a
// run-representable event stream bound to prog: every non-final target
// names the next committed PC, and the taken and address fields
// respect each PC's class, so the slab is encodable at every format
// version including v4.
func simEventsFromBytes(prog *isa.Program, data []byte) []sim.Event {
	var evs []sim.Event
	ni := int32(len(prog.Insts))
	pc := int32(0)
	for i := 0; len(data) >= 3; i++ {
		b0, b1, b2 := data[0], data[1], data[2]
		data = data[3:]
		ev := sim.Event{Seq: uint64(i), PC: pc, Inst: &prog.Insts[pc]}
		switch isa.ClassOf(prog.Insts[pc].Op) {
		case isa.ClassLoad, isa.ClassStore:
			ev.Addr = uint64(b1)<<8 | uint64(b2)
		case isa.ClassCondBranch:
			ev.Taken = b1&1 == 1
		case isa.ClassUncondBranch:
			ev.Taken = true
		}
		next := pc + 1
		if b0&7 == 0 || next >= ni {
			next = int32(uint32(b1)<<8|uint32(b2)) % ni
		}
		ev.Target = next
		evs = append(evs, ev)
		pc = next
	}
	return evs
}

// eventsFromBytes deterministically shreds bytes into an event slab so
// the fuzzer explores the encoder's value space.
func eventsFromBytes(data []byte) []sim.Event {
	var evs []sim.Event
	for len(data) >= 12 {
		pc := int32(binary.LittleEndian.Uint32(data))
		target := int32(binary.LittleEndian.Uint32(data[4:]))
		addr := uint64(binary.LittleEndian.Uint32(data[8:]))
		evs = append(evs, sim.Event{
			PC:     pc,
			Target: target,
			Addr:   addr,
			Taken:  data[8]&1 == 1,
		})
		data = data[12:]
	}
	return evs
}
