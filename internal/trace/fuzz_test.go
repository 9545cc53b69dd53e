package trace

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// FuzzCodec drives both directions of the chunk codec from one input:
//
//  1. The raw bytes are column-decoded as a chunk payload against a
//     dictionary holding the entries the chunk itself defines.
//     Arbitrary input must produce an error or a clean decode — never
//     a panic, and never an oversized allocation — and a clean decode
//     must re-encode and decode back to the same columns, base and
//     final target.
//  2. The bytes are also deterministically reinterpreted as a
//     run-representable event slab, recorded as a whole trace, and read
//     back through the indexed reader; the round trip must be lossless.
//
// Whole arbitrary files go through FuzzIndexedReader.
func FuzzCodec(f *testing.F) {
	progMix := testProgramMixed(1 << 12)
	seedEvs := simEventsFromBytes(progMix, seedStreamBytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	// Retired-format files must be rejected, so their bytes are
	// mutation seeds too.
	for v := 1; v <= 3; v++ {
		f.Add(legacyFixture(f, v))
	}
	// Two full traces (footer dictionary included), at two chunk sizes,
	// and one bare chunk payload, so the fuzzer starts with valid
	// dictionary structure to mutate.
	for _, chunk := range []int{2, 8} {
		var full bytes.Buffer
		tw := NewWriter(&full, Meta{Program: "fuzz", ChunkEvents: chunk}, progMix)
		tw.ObserveBatch(seedEvs)
		if err := tw.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(full.Bytes())
	}
	chunk, _, err := encodeChunk(progMix, 0, seedEvs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chunk)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: arbitrary bytes as a chunk payload.
		var sc v4Scratch
		var ch runstream.Chunk
		if dict := chunkOwnDict(data); dict.bindShared(progMix) == nil && decodeChunkColumnsV4(data, dict, &ch, &sc) == nil {
			vw := newV4Writer(progMix)
			re, _, err := vw.appendChunk(nil, ch.Base, &ch)
			if err != nil {
				t.Fatalf("re-encode of decoded chunk failed: %v", err)
			}
			dict2, err := parseDictPayload(appendDictPayload(nil, vw.dict.runs))
			if err == nil {
				err = dict2.bindShared(progMix)
			}
			if err != nil {
				t.Fatalf("re-encoded dictionary: %v", err)
			}
			var ch2 runstream.Chunk
			if err := decodeChunkColumnsV4(re, dict2, &ch2, &sc); err != nil {
				t.Fatalf("re-decode of re-encoded chunk failed: %v", err)
			}
			if !reflect.DeepEqual(ch2, ch) {
				t.Fatalf("re-encode changed the chunk:\n got %+v\nwant %+v", ch2, ch)
			}
		}

		// Direction 2: bytes -> run-representable slab -> trace ->
		// indexed read back, as events and as columns.
		evsR := simEventsFromBytes(progMix, data)
		var buf bytes.Buffer
		w := NewWriter(&buf, Meta{Program: "fuzz", ChunkEvents: 16}, progMix)
		w.ObserveBatch(evsR)
		if err := w.Close(); err != nil {
			t.Fatalf("write trace: %v", err)
		}
		ir := openTestTrace(t, buf.Bytes())
		src := ir.Range(progMix, 0, ir.Chunks())
		checkEvents(t, drain(t, src), evsR)
		src.Close()
		checkColumns(t, ir.Columns(context.Background(), progMix, 0, ir.Chunks(), 2), evsR, progMix)
	})
}

// chunkOwnDict returns a reader dictionary holding exactly the entries
// a chunk payload defines for itself when it starts the dictionary
// (dictBase 0), so an arbitrary bare chunk can be decoded as the first
// chunk of a trace. Anything else yields an empty dictionary.
func chunkOwnDict(data []byte) *v4Dict {
	pos := 0
	var hdr [4]uint64 // base, n, dictBase, newRuns
	for i := range hdr {
		u, next, err := uvarintAt(data, pos)
		if err != nil {
			return newV4Dict()
		}
		hdr[i], pos = u, next
	}
	if hdr[2] != 0 || hdr[3] > 64 {
		return newV4Dict()
	}
	var runs []dictRun
	prev := int64(0)
	for i := uint64(0); i < hdr[3]; i++ {
		zz, next, err := uvarintAt(data, pos)
		if err != nil {
			return newV4Dict()
		}
		n, next, err := uvarintAt(data, next)
		if err != nil || n > 1<<20 {
			return newV4Dict()
		}
		pc := prev + unzigzag(zz)
		if pc < 0 || pc >= 1<<30 {
			return newV4Dict()
		}
		runs = append(runs, dictRun{pc: int32(pc), n: int32(n)})
		prev, pos = pc, next
	}
	dict, err := parseDictPayload(appendDictPayload(nil, runs))
	if err != nil {
		return newV4Dict()
	}
	return dict
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

// simEventsFromBytes deterministically shreds bytes into a
// run-representable event stream bound to prog: every non-final target
// names the next committed PC, and the taken and address fields
// respect each PC's class, so the slab is run-representable.
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
