package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
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

// assembleTrace frames payloads raw (frame kind 0, as the Writer
// frames a chunk flate does not shrink) under the Writer's header:
// chunk i's frame is recorded in the index with events[i] events, and
// dict is the footer's run dictionary. Frames and footer carry valid CRCs,
// so a reader sees exactly the payloads' content.
func assembleTrace(payloads [][]byte, events []uint64, dict []dictRun) []byte {
	meta, err := json.Marshal(Meta{Program: "synthetic", ChunkEvents: 16, Compression: "flate"})
	if err != nil {
		panic(err)
	}
	b := []byte(headerMagic)
	b = binary.AppendUvarint(b, uint64(len(meta)))
	b = append(b, meta...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(meta))
	idx := binary.AppendUvarint(nil, uint64(len(payloads)))
	prev, total := 0, uint64(0)
	for i, p := range payloads {
		off := len(b)
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, compressionNone)
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(p))
		b = append(b, p...)
		idx = binary.AppendUvarint(idx, uint64(off-prev))
		idx = binary.AppendUvarint(idx, events[i])
		prev = off
		total += events[i]
	}
	b = append(b, 0) // terminator
	dp := appendDictPayload(nil, dict)
	b = append(b, dp...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(dp))
	b = append(b, idx...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(idx))
	var tail [tailLen]byte
	binary.LittleEndian.PutUint64(tail[0:8], uint64(len(idx)))
	binary.LittleEndian.PutUint64(tail[8:16], total)
	binary.LittleEndian.PutUint64(tail[16:24], uint64(len(payloads)))
	binary.LittleEndian.PutUint64(tail[24:32], uint64(len(dp)))
	b = append(b, tail[:]...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(tail[:]))
	return append(b, footerMagic...)
}

// TestAssembleTraceMatchesWriter pins the test file assembler to the
// Writer: the same chunk framed both ways gives identical bytes, so the
// corruption sweeps below exercise exactly the production layout. The
// chunk is too small for flate to shrink, so the Writer frames it raw.
func TestAssembleTraceMatchesWriter(t *testing.T) {
	prog := testProgramMixed(64)
	evs := make([]sim.Event, 16)
	for i := range evs {
		pc := int32(i % 8)
		evs[i] = sim.Event{Seq: uint64(i), PC: pc, Inst: &prog.Insts[pc], Target: (pc + 1) % 8}
		if isa.ClassOf(prog.Insts[pc].Op) == isa.ClassUncondBranch {
			evs[i].Taken = true
		}
	}
	var buf bytes.Buffer
	tw := NewWriter(&buf, Meta{Program: "synthetic", ChunkEvents: 16}, prog)
	tw.ObserveBatch(evs)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	p := validV4Parts()
	want := assembleTrace([][]byte{p.encode()}, []uint64{p.n}, []dictRun{{pc: 0, n: 8}})
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("assembled trace differs from the Writer's (%d vs %d bytes)", len(want), buf.Len())
	}
}

// TestV4ChunkCorruptionSweep embeds structurally corrupted chunks in
// otherwise valid trace files and reads them through every path: every
// lie — out-of-range run ids, wrong dictBase, duplicate or overlapping
// dictionary entries, run lengths that disagree with the chunk's event
// count, runs outside the program, truncated or over-long columns —
// must be rejected by both full decoders (Range and Columns), never
// panic or silently mis-decode. Damage inside the token stream must
// also stop the token scan, which never reads the columns after it.
// Each chunk is tried against the pristine footer dictionary and
// against a footer that agrees with the chunk's own entries.
func TestV4ChunkCorruptionSweep(t *testing.T) {
	prog := testProgramMixed(64)
	pristineDict := []dictRun{{pc: 0, n: 8}}
	base := validV4Parts()
	pristine := assembleTrace([][]byte{base.encode()}, []uint64{base.n}, pristineDict)
	if r, c, s := readAll(pristine, prog); r != nil || c != nil || s != nil {
		t.Fatalf("pristine reference chunk rejected: %v / %v / %v", r, c, s)
	}

	cases := []struct {
		name    string
		columns bool // damage confined to the columns after the token stream
		mut     func(p *v4parts)
	}{
		{"token id out of dictionary range", false, func(p *v4parts) { p.tokens = [][2]uint64{{1, 2}} }},
		{"adjacent tokens share an id", false, func(p *v4parts) { p.tokens = [][2]uint64{{0, 1}, {0, 1}} }},
		{"zero repeat count", false, func(p *v4parts) { p.tokens = [][2]uint64{{0, 0}} }},
		{"token stream overruns event count", false, func(p *v4parts) { p.tokens = [][2]uint64{{0, 3}} }},
		{"token stream undershoots event count", false, func(p *v4parts) { p.tokens = [][2]uint64{{0, 1}} }},
		{"dictBase past the dictionary", false, func(p *v4parts) { p.dictBase = 1 }},
		{"duplicate dictionary entry", false, func(p *v4parts) {
			p.newRuns = [][2]int64{{0, 8}, {0, 8}}
		}},
		{"zero-length dictionary run", false, func(p *v4parts) { p.newRuns = [][2]int64{{0, 8}, {9, 0}} }},
		{"run outside the program", false, func(p *v4parts) {
			// Structurally fine (60+8 < 2^31) but past the 64-inst
			// program: binding the footer dictionary must reject it.
			p.newRuns = [][2]int64{{60, 8}}
		}},
		{"truncated taken bitmap", true, func(p *v4parts) { p.bitmap, p.addrs = nil, nil }},
		{"nonzero bitmap padding", true, func(p *v4parts) { p.bitmap = []byte{0xF0} }},
		{"truncated address column", true, func(p *v4parts) { p.addrs = p.addrs[:2] }},
		{"trailing bytes", true, func(p *v4parts) { p.trailing = []byte{0} }},
		{"event count zero", false, func(p *v4parts) { p.n = 0 }},
		{"newRuns exceeds event count", false, func(p *v4parts) {
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
		events := p.n
		if events == 0 {
			events = base.n // the index cannot record an empty chunk
		}
		own := make([]dictRun, len(p.newRuns))
		for i, r := range p.newRuns {
			own[i] = dictRun{pc: int32(r[0]), n: int32(r[1])}
		}
		for footer, dict := range map[string][]dictRun{"pristine footer": pristineDict, "chunk's own footer": own} {
			data := assembleTrace([][]byte{p.encode()}, []uint64{events}, dict)
			rangeErr, colErr, scanErr := readAll(data, prog)
			if rangeErr == nil {
				t.Errorf("%s (%s): accepted by Range", tc.name, footer)
			}
			if colErr == nil {
				t.Errorf("%s (%s): accepted by Columns", tc.name, footer)
			}
			if !tc.columns && scanErr == nil {
				t.Errorf("%s (%s): accepted by ScanRunTokens", tc.name, footer)
			}
		}
	}

	// A chunk entry that disagrees with the footer dictionary, or that
	// claims runs past its end, is rejected by the column decoder too.
	footer, err := parseDictPayload(appendDictPayload(nil, pristineDict))
	if err != nil {
		t.Fatal(err)
	}
	if err := footer.bindShared(prog); err != nil {
		t.Fatal(err)
	}
	var sc v4Scratch
	ch := new(runstream.Chunk)
	if err := decodeChunkColumnsV4(base.encode(), footer, ch, &sc); err != nil {
		t.Fatalf("pristine chunk rejected by the column decoder: %v", err)
	}
	lie := validV4Parts()
	lie.newRuns = [][2]int64{{0, 7}} // disagrees with the footer's [0,8)
	lie.tokens = [][2]uint64{{0, 2}}
	lie.n = 14
	lie.final = -7
	lie.addrs = lie.addrs[:2] // wrong either way; entry check fires first
	if err := decodeChunkColumnsV4(lie.encode(), footer, ch, &sc); err == nil {
		t.Error("column decoder accepted a chunk entry disagreeing with the footer dictionary")
	}
	over := validV4Parts()
	over.dictBase = 1 // chunk claims runs the footer doesn't have
	if err := decodeChunkColumnsV4(over.encode(), footer, ch, &sc); err == nil {
		t.Error("column decoder accepted a dictBase past the footer dictionary")
	}
}

// TestV4RoundTripByteIdentity decodes a trace through the column
// source at several worker counts and through Range, then re-encodes
// the decoded events: the columns and events must match the originals
// exactly and the re-encoded file must be byte-identical.
func TestV4RoundTripByteIdentity(t *testing.T) {
	const n, chunk = 20000, 512
	data, evs, prog := writeTestTrace(t, n, chunk)
	ir := openTestTrace(t, data)
	for _, workers := range []int{1, 4, 8} {
		checkColumns(t, ir.Columns(context.Background(), prog, 0, ir.Chunks(), workers), evs, prog)
	}
	src := ir.Range(prog, 0, ir.Chunks())
	got := drain(t, src)
	src.Close()
	checkEvents(t, got, evs)

	var buf bytes.Buffer
	tw := NewWriter(&buf, Meta{Program: prog.Name, Size: "test", ChunkEvents: chunk}, prog)
	tw.ObserveBatch(got)
	if err := tw.Close(); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("re-encoded trace is not byte-identical (%d vs %d bytes)", buf.Len(), len(data))
	}
}

// TestScanRunTokensCompresses pins the point of the token scan: on a
// loop-dominated trace the repeats come off the token stream, so the
// scan reports far fewer callbacks than run instances while still
// spanning every event.
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
	tw := NewWriter(&buf, Meta{Program: prog.Name, ChunkEvents: 4096}, prog)
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
		tw := NewWriter(&buf, Meta{Program: prog.Name, ChunkEvents: 256}, prog)
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
