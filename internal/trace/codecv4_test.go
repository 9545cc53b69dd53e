package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// buildV4Chunk assembles a v4 chunk payload from explicit parts so the
// corruption sweep can lie about any field. The reference layout (for
// testProgramMixed(64), run [0,8) twice): classes inside the run are
// pc1 load, pc3 cond branch, pc5 store, pc6 uncond branch, so nbr=1
// and nmem=2 per repetition.
type v4parts struct {
	base     uint64
	n        uint64
	dictBase uint64
	newRuns  [][2]int64 // {pc, len}; pc is delta-chained at encode
	tokens   [][2]uint64
	final    int64
	bitmap   []byte
	addrs    []int64 // zigzag deltas
	trailing []byte
}

func (p *v4parts) encode() []byte {
	var b []byte
	u := func(v uint64) { b = binary.AppendUvarint(b, v) }
	u(p.base)
	u(p.n)
	u(p.dictBase)
	u(uint64(len(p.newRuns)))
	prev := int64(0)
	for _, r := range p.newRuns {
		u(zigzag(r[0] - prev))
		u(uint64(r[1]))
		prev = r[0]
	}
	u(uint64(len(p.tokens)))
	for _, t := range p.tokens {
		u(t[0])
		u(t[1])
	}
	u(zigzag(p.final))
	b = append(b, p.bitmap...)
	for _, d := range p.addrs {
		u(zigzag(d))
	}
	return append(b, p.trailing...)
}

// validV4Parts is the pristine reference chunk: 16 events, run [0,8)
// repeated twice, all addresses zero, both conditional branches not
// taken, final target 0.
func validV4Parts() v4parts {
	return v4parts{
		n:       16,
		newRuns: [][2]int64{{0, 8}},
		tokens:  [][2]uint64{{0, 2}},
		final:   -8, // last PC 7, target 0
		bitmap:  []byte{0x00},
		addrs:   []int64{0, 0, 0, 0},
	}
}

// TestV4ChunkCorruptionSweep feeds structurally corrupted dictionary
// chunks to both v4 decoders: every lie — out-of-range run ids,
// wrong dictBase, duplicate or overlapping dictionary entries, run
// lengths that disagree with the chunk's event count, runs outside
// the program, truncated or over-long columns — must be rejected with
// an error, never a panic or a silent mis-decode.
func TestV4ChunkCorruptionSweep(t *testing.T) {
	prog := testProgramMixed(64)

	decodeGrow := func(payload []byte) error {
		var sc v4Scratch
		_, _, err := decodeChunkEventsV4(payload, prog, newV4Dict(), true, nil, &sc)
		return err
	}
	// Sanity: the pristine chunk decodes.
	base := validV4Parts()
	if err := decodeGrow(base.encode()); err != nil {
		t.Fatalf("pristine reference chunk rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(p *v4parts)
	}{
		{"token id out of dictionary range", func(p *v4parts) { p.tokens = [][2]uint64{{1, 2}} }},
		{"adjacent tokens share an id", func(p *v4parts) { p.tokens = [][2]uint64{{0, 1}, {0, 1}} }},
		{"zero repeat count", func(p *v4parts) { p.tokens = [][2]uint64{{0, 0}} }},
		{"token stream overruns event count", func(p *v4parts) { p.tokens = [][2]uint64{{0, 3}} }},
		{"token stream undershoots event count", func(p *v4parts) { p.tokens = [][2]uint64{{0, 1}} }},
		{"dictBase ahead of grown dictionary", func(p *v4parts) { p.dictBase = 1 }},
		{"duplicate dictionary entry", func(p *v4parts) {
			p.newRuns = [][2]int64{{0, 8}, {0, 8}}
		}},
		{"zero-length dictionary run", func(p *v4parts) { p.newRuns = [][2]int64{{0, 8}, {9, 0}} }},
		{"run outside the program", func(p *v4parts) {
			// Structurally fine (60+8 < 2^31) but past the 64-inst
			// program: the bind step must reject it.
			p.newRuns = [][2]int64{{60, 8}}
		}},
		{"truncated taken bitmap", func(p *v4parts) { p.bitmap, p.addrs = nil, nil }},
		{"nonzero bitmap padding", func(p *v4parts) { p.bitmap = []byte{0xF0} }},
		{"truncated address column", func(p *v4parts) { p.addrs = p.addrs[:2] }},
		{"trailing bytes", func(p *v4parts) { p.trailing = []byte{0} }},
		{"event count zero", func(p *v4parts) { p.n = 0 }},
		{"newRuns exceeds event count", func(p *v4parts) {
			p.dictBase = 0
			p.n = 1
			p.newRuns = [][2]int64{{0, 1}, {2, 1}}
			p.tokens = [][2]uint64{{0, 1}}
			p.final = 0
			p.bitmap, p.addrs = nil, nil
		}},
	}
	for _, tc := range cases {
		p := validV4Parts()
		tc.mut(&p)
		payload := p.encode()
		if err := decodeGrow(payload); err == nil {
			t.Errorf("%s: grow-mode event decode accepted the corruption", tc.name)
		}
	}

	// Verify mode: the same chunk against a footer dictionary that
	// disagrees, or that is too small for the chunk's claimed entries.
	footer, err := parseDictPayload(appendDictPayload(nil, []dictRun{{pc: 0, n: 8}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := footer.bindShared(prog); err != nil {
		t.Fatal(err)
	}
	var sc v4Scratch
	ch := new(runstream.Chunk)
	if err := decodeChunkColumnsV4(base.encode(), footer, ch, &sc); err != nil {
		t.Fatalf("pristine chunk rejected in verify mode: %v", err)
	}
	lie := validV4Parts()
	lie.newRuns = [][2]int64{{0, 7}} // disagrees with the footer's [0,8)
	lie.tokens = [][2]uint64{{0, 2}}
	lie.n = 14
	lie.final = -7
	lie.addrs = lie.addrs[:2] // wrong either way; entry check fires first
	if err := decodeChunkColumnsV4(lie.encode(), footer, ch, &sc); err == nil {
		t.Error("verify mode accepted a chunk entry disagreeing with the footer dictionary")
	}
	over := validV4Parts()
	over.dictBase = 1 // chunk claims runs the footer doesn't have
	if err := decodeChunkColumnsV4(over.encode(), footer, ch, &sc); err == nil {
		t.Error("verify mode accepted a dictBase past the footer dictionary")
	}
}

// TestV4RoundTripByteIdentity decodes a v4 trace at several worker
// counts and re-encodes the decoded stream: the decoded events must
// match the originals exactly and the re-encoded file must be
// byte-identical, at every worker count.
func TestV4RoundTripByteIdentity(t *testing.T) {
	const n, chunk = 20000, 512
	data, evs, prog := writeTestTraceVersion(t, n, chunk, 4)
	for _, workers := range []int{1, 4, 8} {
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		src := tr.ParallelEvents(prog, workers)
		got := drain(t, src)
		src.Close()
		checkEvents(t, got, evs)

		var buf bytes.Buffer
		tw := NewWriterVersion(&buf, Meta{Program: prog.Name, Size: "test", ChunkEvents: chunk}, prog, 4)
		tw.ObserveBatch(got)
		if err := tw.Close(); err != nil {
			t.Fatalf("workers=%d: re-encode: %v", workers, err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("workers=%d: re-encoded trace is not byte-identical (%d vs %d bytes)",
				workers, buf.Len(), len(data))
		}
	}
}

// TestCrossVersionEventsIdentical is the cross-version golden matrix
// at the event level: one stream written at every format version must
// decode — through both the sequential and the indexed reader — to
// exactly the same events.
func TestCrossVersionEventsIdentical(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	evs := testEventStream(12000, prog)
	for version := 1; version <= FormatVersion; version++ {
		var buf bytes.Buffer
		tw := NewWriterVersion(&buf, Meta{Program: prog.Name, ChunkEvents: 256}, prog, version)
		tw.ObserveBatch(evs)
		if err := tw.Close(); err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		data := buf.Bytes()

		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if tr.Version() != version {
			t.Fatalf("v%d: reader reports version %d", version, tr.Version())
		}
		src := tr.Events(prog)
		got := drain(t, src)
		src.Close()
		checkEvents(t, got, evs)

		if version >= 2 {
			ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatalf("v%d: indexed: %v", version, err)
			}
			rsrc := ir.Range(prog, 0, ir.Chunks())
			got := drain(t, rsrc)
			rsrc.Close()
			checkEvents(t, got, evs)
		}
	}
}

// TestScanRunTokensCompresses pins the point of the token scan: on a
// loop-dominated v4 trace the repeats come off the token stream, so
// the scan reports far fewer callbacks than run instances while still
// spanning every event; and on v2/v3 traces every callback reports
// rep == 1, matching ScanPCRuns exactly.
func TestScanRunTokensCompresses(t *testing.T) {
	prog := testProgramMixed(256)
	// A tight 16-instruction loop: one run, thousands of repeats.
	n := 16 * 2000
	evs := make([]sim.Event, n)
	for i := range evs {
		pc := int32(i % 16)
		evs[i] = sim.Event{Seq: uint64(i), PC: pc, Inst: &prog.Insts[pc], Target: (pc + 1) % 16}
		switch isa.ClassOf(prog.Insts[pc].Op) {
		case isa.ClassLoad, isa.ClassStore:
			evs[i].Addr = uint64(0x100 + i)
		case isa.ClassCondBranch:
			evs[i].Taken = i%3 == 0
		case isa.ClassUncondBranch:
			evs[i].Taken = true
		}
	}
	var buf bytes.Buffer
	tw := NewWriterVersion(&buf, Meta{Program: prog.Name, ChunkEvents: 4096}, prog, 4)
	tw.ObserveBatch(evs)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	calls, span, maxRep := 0, int64(0), int64(0)
	err = ir.ScanRunTokens(context.Background(), prog, 0, ir.Chunks(), func(pc, rn int32, rep int64) {
		calls++
		span += int64(rn) * rep
		if rep > maxRep {
			maxRep = rep
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if span != int64(n) {
		t.Fatalf("token scan spans %d events, want %d", span, n)
	}
	if maxRep < 2 {
		t.Fatalf("loop-dominated trace scanned with max repeat %d; token compression is not engaging", maxRep)
	}
	if calls*16 >= n {
		t.Fatalf("token scan made %d callbacks for %d events; repeats are being expanded", calls, n)
	}
}

// TestV4WriterRejectsUnrepresentable: every way an event stream can
// fall outside the run-native encoding becomes the Writer's sticky
// error — visible from the batch that carried it, returned by Close,
// and with no later input accepted.
func TestV4WriterRejectsUnrepresentable(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	find := func(evs []sim.Event, cls isa.Class) int {
		for i := 1; i < len(evs)-1; i++ {
			if isa.ClassOf(prog.Insts[evs[i].PC].Op) == cls {
				return i
			}
		}
		t.Fatalf("stream has no class %v event", cls)
		return 0
	}
	cases := []struct {
		name string
		mut  func(evs []sim.Event)
	}{
		{"target is not the next pc", func(evs []sim.Event) { evs[100].Target = evs[101].PC + 1 }},
		{"untaken unconditional branch", func(evs []sim.Event) { evs[find(evs, isa.ClassUncondBranch)].Taken = false }},
		{"taken non-branch", func(evs []sim.Event) { evs[find(evs, isa.ClassOther)].Taken = true }},
		{"address on a non-memory op", func(evs []sim.Event) { evs[find(evs, isa.ClassCondBranch)].Addr = 64 }},
		{"pc outside the program", func(evs []sim.Event) { evs[100].PC = int32(len(prog.Insts)) }},
	}
	for _, tc := range cases {
		evs := testEventStream(2000, prog)
		tc.mut(evs)
		var buf bytes.Buffer
		tw := NewWriterVersion(&buf, Meta{Program: prog.Name, ChunkEvents: 256}, prog, 4)
		tw.ObserveBatch(evs[:1000])
		if tw.Err() == nil {
			t.Errorf("%s: accepted by ObserveBatch", tc.name)
			continue
		}
		n := tw.Events()
		tw.ObserveBatch(evs[1000:])
		if tw.Events() != n {
			t.Errorf("%s: writer kept accepting events after its error", tc.name)
		}
		if err := tw.Close(); err == nil {
			t.Errorf("%s: Close succeeded", tc.name)
		}
	}
}
