package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
)

// Format v4 is the run-native encoding: the dynamic stream of a
// simulator run is a small static vocabulary of straight-line PC runs
// repeated, so v4 stores the vocabulary once — a trace-wide run
// dictionary, grown chunk by chunk and repeated verbatim in the footer
// — and each chunk becomes a stream of (run-id, repeat) tokens. The
// per-event columns shrink to exactly the bits the program text cannot
// predict: one taken bit per conditional-branch instance and one
// address varint per memory instance (delta-coded per static load/
// store site, where strides make the deltas self-similar). Everything
// else — PCs, targets, classes, the taken flag of unconditional
// branches — is a dictionary lookup, so the column decode the
// block-characterized replay consumes does zero per-event varint work
// outside the address column.
//
// Chunk payload (after the shared uvarint base / uvarint n header):
//
//	uvarint dictBase       dictionary size before this chunk
//	uvarint newRuns        entries this chunk appends
//	newRuns × {
//	    zigzag pcDelta     run start PC, delta-chained within the group
//	    uvarint len        run length (≥ 1)
//	}
//	uvarint nTokens
//	nTokens × {
//	    uvarint runID      < dictBase + newRuns
//	    uvarint rep        ≥ 1; adjacent tokens never share an ID
//	}
//	zigzag finalTargetDelta   last event's Target minus (lastPC + 1)
//	--- split-compression cut ---
//	⌈nbr/8⌉ bytes          taken bitmap over the chunk's conditional-
//	                       branch instances in commit order, where
//	                       nbr = Σ condCount(run) × rep
//	nmem zigzag varints    address deltas, one per memory-class
//	                       instance in commit order, each delta-chained
//	                       against the previous address of the same
//	                       static PC (chains reset to 0 per chunk)
//
// Every other event field is implied: PCs and intra-run targets come
// from the dictionary, run-final targets are the next instance's start
// PC (the explicit finalTargetDelta covers the chunk's last event),
// conditional branches read the bitmap, unconditional branches are
// always taken, and non-branches never are. A stream is representable
// exactly when it satisfies those invariants — which every
// simulator-produced stream does; the writer verifies them and fails
// sticky rather than emit a lossy chunk.
//
// The footer repeats the full dictionary (same pcDelta/len encoding,
// CRC-guarded) so a random-access reader can decode any chunk without
// replaying the prefix that grew the dictionary; chunks then carry
// dictBase + their own entries purely as cross-checks.

// maxDictRuns caps the run-dictionary allocation a corrupted stream
// can request. Real programs intern a few thousand runs.
const maxDictRuns = 1 << 22

// Footer geometry. After the terminator byte (a zero raw-length frame
// prefix) the trailer is:
//
//	dict payload:
//	    uvarint runCount
//	    runCount × { zigzag pcDelta, uvarint len }
//	uint32 LE   CRC-32 (IEEE) of the dict payload
//	index payload:
//	    uvarint chunkCount
//	    chunkCount × { uvarint offsetDelta, uvarint events }
//	        offsetDelta: frame-start file offset, delta-coded against
//	        the previous frame start (first entry is absolute)
//	uint32 LE   CRC-32 (IEEE) of the index payload
//	fixed tail (tailLen bytes):
//	    uint64 LE indexLen
//	    uint64 LE totalEvents
//	    uint64 LE chunkCount
//	    uint64 LE dictLen      length of the dict payload in bytes
//	uint32 LE   CRC-32 (IEEE) of the fixed tail
//	[8]byte     footer magic "BPTREND4"
//
// The fixed-size suffix (tail + CRC + magic = tailFixedLen bytes) lets
// a reader locate the index and the dictionary from the end of the
// file.
const (
	tailLen      = 32
	tailFixedLen = tailLen + 4 + 8
)

// dictRun is one run-dictionary entry: the straight-line run
// [pc, pc+n).
type dictRun struct {
	pc int32
	n  int32
}

func dictKey(pc, n int32) uint64 {
	return uint64(uint32(pc))<<32 | uint64(uint32(n))
}

// v4Dict is the reader- and writer-side run dictionary plus the
// class tables derived from the program at bind time. The raw entries
// (runs, ids) are maintained while parsing — grown chunk by chunk by
// the writer, loaded whole from the footer by the reader — and are
// structurally validated without a program. The bound tables need the
// program and are built by bind/bindShared before any taken/address
// column is encoded or decoded.
type v4Dict struct {
	runs []dictRun
	ids  map[uint64]int32 // dictKey → id, for duplicate rejection

	// Bound tables. condStart and memStart are prefix sums over runs
	// (len(runs)+1 entries) of their conditional-branch and memory
	// instructions; run id's memory offsets are
	// memOff[memStart[id]:memStart[id+1]]. rsDict mirrors runs in the
	// shape runstream consumers share.
	bound     int // runs bound so far
	ni        int32
	isCond    []bool // per PC
	isMem     []bool
	condStart []int32
	memStart  []int32
	memOff    []int32
	rsDict    *runstream.Dict

	bindOnce sync.Once
	bindErr  error
}

func newV4Dict() *v4Dict {
	return &v4Dict{ids: make(map[uint64]int32)}
}

// add validates and appends one entry, rejecting malformed or
// duplicate runs. It performs only program-independent checks; the
// pc+n ≤ len(prog.Insts) bound is enforced at bind time.
func (d *v4Dict) add(pc int32, n int64) error {
	if n < 1 || n > maxChunkEvents {
		return fmt.Errorf("trace: dictionary run length %d out of range", n)
	}
	if pc < 0 || int64(pc)+n > 1<<31 {
		return fmt.Errorf("trace: dictionary run [%d,%d) out of PC range", pc, int64(pc)+n)
	}
	if len(d.runs) >= maxDictRuns {
		return fmt.Errorf("trace: run dictionary exceeds %d entries", maxDictRuns)
	}
	key := dictKey(pc, int32(n))
	if _, dup := d.ids[key]; dup {
		return fmt.Errorf("trace: duplicate dictionary run [%d,%d)", pc, int64(pc)+n)
	}
	d.ids[key] = int32(len(d.runs))
	d.runs = append(d.runs, dictRun{pc: pc, n: int32(n)})
	return nil
}

// bind extends the class tables over entries [d.bound, len(d.runs)).
// Not safe for concurrent use; the writer calls it as its dictionary
// grows, the reader exactly once via bindShared.
func (d *v4Dict) bind(prog *isa.Program) error {
	if d.isCond == nil {
		ni := len(prog.Insts)
		d.ni = int32(ni)
		d.isCond = make([]bool, ni)
		d.isMem = make([]bool, ni)
		for pc := range prog.Insts {
			switch isa.ClassOf(prog.Insts[pc].Op) {
			case isa.ClassCondBranch:
				d.isCond[pc] = true
			case isa.ClassLoad, isa.ClassStore:
				d.isMem[pc] = true
			}
		}
		d.condStart = append(d.condStart, 0)
		d.memStart = append(d.memStart, 0)
		d.rsDict = &runstream.Dict{}
	}
	for ; d.bound < len(d.runs); d.bound++ {
		r := d.runs[d.bound]
		if int64(r.pc)+int64(r.n) > int64(d.ni) {
			return fmt.Errorf("trace: dictionary run [%d,%d) outside program (%d insts)",
				r.pc, int64(r.pc)+int64(r.n), d.ni)
		}
		nc := d.condStart[d.bound]
		for off := int32(0); off < r.n; off++ {
			pc := r.pc + off
			switch {
			case d.isCond[pc]:
				nc++
			case d.isMem[pc]:
				d.memOff = append(d.memOff, off)
			}
		}
		d.condStart = append(d.condStart, nc)
		d.memStart = append(d.memStart, int32(len(d.memOff)))
		d.rsDict.Runs = append(d.rsDict.Runs, runstream.Run{PC: r.pc, N: r.n})
	}
	return nil
}

// bindShared is bind for the reader's immutable, footer-loaded
// dictionary: many shard workers may race to the first
// column decode, so the (one-shot) bind runs under a sync.Once.
func (d *v4Dict) bindShared(prog *isa.Program) error {
	d.bindOnce.Do(func() { d.bindErr = d.bind(prog) })
	return d.bindErr
}

func (d *v4Dict) condCount(id int32) int32 {
	return d.condStart[id+1] - d.condStart[id]
}

func (d *v4Dict) memCount(id int32) int32 {
	return d.memStart[id+1] - d.memStart[id]
}

// appendDictPayload encodes the dictionary's footer payload.
func appendDictPayload(dst []byte, runs []dictRun) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(runs)))
	prev := int64(0)
	for _, r := range runs {
		dst = binary.AppendUvarint(dst, zigzag(int64(r.pc)-prev))
		dst = binary.AppendUvarint(dst, uint64(r.n))
		prev = int64(r.pc)
	}
	return dst
}

// parseDictPayload decodes a footer dict payload into a fresh
// dictionary, with the same structural validation chunk-carried
// entries get.
func parseDictPayload(data []byte) (*v4Dict, error) {
	d := newV4Dict()
	pos := 0
	count, pos, err := uvarintAt(data, pos)
	if err != nil {
		return nil, fmt.Errorf("trace: read dictionary count: %w", err)
	}
	if count > maxDictRuns {
		return nil, fmt.Errorf("trace: dictionary claims %d runs (max %d)", count, maxDictRuns)
	}
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		var u uint64
		if u, pos, err = uvarintAt(data, pos); err != nil {
			return nil, err
		}
		pc := prev + unzigzag(u)
		if u, pos, err = uvarintAt(data, pos); err != nil {
			return nil, err
		}
		if pc < 0 || pc >= 1<<31 {
			return nil, fmt.Errorf("trace: dictionary run PC %d out of range", pc)
		}
		if err := d.add(int32(pc), int64(u)); err != nil {
			return nil, err
		}
		prev = pc
	}
	if pos != len(data) {
		return nil, fmt.Errorf("trace: %d trailing bytes after dictionary", len(data)-pos)
	}
	return d, nil
}

// v4Scratch holds the per-decoder chunk-local address chains: one
// previous-address slot per static PC, epoch-stamped so resetting
// between chunks is a counter bump, not a clear.
type v4Scratch struct {
	prevAddr []uint64
	epoch    []uint32
	cur      uint32
	tokens   []runstream.Token
}

func (sc *v4Scratch) nextEpoch(ni int) {
	if len(sc.prevAddr) < ni {
		sc.prevAddr = make([]uint64, ni)
		sc.epoch = make([]uint32, ni)
		sc.cur = 0
	}
	sc.cur++
	if sc.cur == 0 { // epoch counter wrapped: clear and restart
		for i := range sc.epoch {
			sc.epoch[i] = 0
		}
		sc.cur = 1
	}
}

func (sc *v4Scratch) prev(pc int32) uint64 {
	if sc.epoch[pc] != sc.cur {
		return 0
	}
	return sc.prevAddr[pc]
}

func (sc *v4Scratch) set(pc int32, a uint64) {
	sc.epoch[pc] = sc.cur
	sc.prevAddr[pc] = a
}

// v4Hdr is the parsed token stream of one chunk (everything before
// the split-compression cut).
type v4Hdr struct {
	base       uint64
	n          int
	tokens     []runstream.Token
	finalDelta int64
	pos        int // offset just past finalTargetDelta
}

// parseChunkV4 parses and validates a chunk's token stream against
// dict, the dictionary loaded whole from the footer: the entries the
// chunk defines must match the footer's at the same ids. data may be
// a stream-1 prefix: parsing stops at the cut.
func parseChunkV4(data []byte, dict *v4Dict, sc *v4Scratch) (v4Hdr, error) {
	var h v4Hdr
	pos := 0
	base, pos, err := uvarintAt(data, pos)
	if err != nil {
		return h, err
	}
	n64, pos, err := uvarintAt(data, pos)
	if err != nil {
		return h, err
	}
	if n64 == 0 || n64 > maxChunkEvents {
		return h, fmt.Errorf("trace: chunk claims %d records (max %d)", n64, maxChunkEvents)
	}
	dictBase64, pos, err := uvarintAt(data, pos)
	if err != nil {
		return h, err
	}
	newRuns64, pos, err := uvarintAt(data, pos)
	if err != nil {
		return h, err
	}
	if dictBase64 > maxDictRuns || newRuns64 > n64 {
		return h, fmt.Errorf("trace: chunk dictionary section out of range (base %d, new %d)", dictBase64, newRuns64)
	}
	dictBase, newRuns := int(dictBase64), int(newRuns64)
	if dictBase+newRuns > len(dict.runs) {
		return h, fmt.Errorf("trace: chunk defines runs %d..%d, footer dictionary has %d",
			dictBase, dictBase+newRuns, len(dict.runs))
	}
	prev := int64(0)
	for i := 0; i < newRuns; i++ {
		var u uint64
		if u, pos, err = uvarintAt(data, pos); err != nil {
			return h, err
		}
		pc := prev + unzigzag(u)
		if u, pos, err = uvarintAt(data, pos); err != nil {
			return h, err
		}
		if pc < 0 || pc >= 1<<31 {
			return h, fmt.Errorf("trace: dictionary run PC %d out of range", pc)
		}
		prev = pc
		if u < 1 || u > maxChunkEvents || int64(pc)+int64(u) > 1<<31 {
			return h, fmt.Errorf("trace: dictionary run [%d,%d) out of range", pc, int64(pc)+int64(u))
		}
		if r := (dictRun{pc: int32(pc), n: int32(u)}); dict.runs[dictBase+i] != r {
			return h, fmt.Errorf("trace: chunk dictionary entry %d ([%d,%d)) disagrees with footer",
				dictBase+i, r.pc, int64(r.pc)+int64(r.n))
		}
	}
	nTok64, pos, err := uvarintAt(data, pos)
	if err != nil {
		return h, err
	}
	if nTok64 > n64 {
		return h, fmt.Errorf("trace: chunk claims %d tokens for %d events", nTok64, n64)
	}
	limit := dictBase + newRuns
	sc.tokens = sc.tokens[:0]
	var sum int64
	prevID := int32(-1)
	for i := 0; i < int(nTok64); i++ {
		var u uint64
		if u, pos, err = uvarintAt(data, pos); err != nil {
			return h, err
		}
		if u >= uint64(limit) {
			return h, fmt.Errorf("trace: token %d references run %d outside dictionary (%d runs)", i, u, limit)
		}
		id := int32(u)
		if id == prevID {
			return h, fmt.Errorf("trace: token %d repeats run %d (non-canonical stream)", i, id)
		}
		prevID = id
		if u, pos, err = uvarintAt(data, pos); err != nil {
			return h, err
		}
		if u < 1 || u > n64 {
			return h, fmt.Errorf("trace: token %d repeat count %d out of range", i, u)
		}
		sum += int64(dict.runs[id].n) * int64(u)
		if sum > int64(n64) {
			return h, fmt.Errorf("trace: token stream spans %d+ events, chunk claims %d", sum, n64)
		}
		sc.tokens = append(sc.tokens, runstream.Token{ID: id, Rep: int32(u)})
	}
	if sum != int64(n64) {
		return h, fmt.Errorf("trace: token stream spans %d events, chunk claims %d", sum, n64)
	}
	var u uint64
	if u, pos, err = uvarintAt(data, pos); err != nil {
		return h, err
	}
	h = v4Hdr{
		base:       base,
		n:          int(n64),
		tokens:     sc.tokens,
		finalDelta: unzigzag(u),
		pos:        pos,
	}
	return h, nil
}

// v4ColumnCounts sums the bitmap and address-column geometry of a
// parsed token stream; it needs a bound dictionary.
func v4ColumnCounts(dict *v4Dict, tokens []runstream.Token) (nbr, nmem int) {
	for _, t := range tokens {
		nbr += int(dict.condCount(t.ID)) * int(t.Rep)
		nmem += int(dict.memCount(t.ID)) * int(t.Rep)
	}
	return nbr, nmem
}

// decodeChunkColumnsV4 decodes one v4 chunk payload into the
// dictionary-backed column form: tokens stay tokens (the run engine
// multiplies per token, not per event), the taken bitmap is copied
// verbatim, only the address column is expanded — one value per
// memory instance — and Target is the last run's end plus the final
// target delta. It is the only decoder of a whole chunk payload; Range
// expands its chunks into events with sim.AppendEvents. dict must be
// bound.
func decodeChunkColumnsV4(data []byte, dict *v4Dict, ch *runstream.Chunk, sc *v4Scratch) error {
	h, err := parseChunkV4(data, dict, sc)
	if err != nil {
		return err
	}
	last := dict.runs[h.tokens[len(h.tokens)-1].ID]
	target := int64(last.pc) + int64(last.n) + h.finalDelta
	if target < math.MinInt32 || target > math.MaxInt32 {
		return fmt.Errorf("trace: target %d out of int32 range", target)
	}
	ch.Base = h.base
	ch.N = h.n
	ch.Dict = dict.rsDict
	ch.Tokens = append(ch.Tokens[:0], h.tokens...)
	ch.Target = int32(target)
	ch.Addrs = ch.Addrs[:0]

	nbr, nmem := v4ColumnCounts(dict, h.tokens)
	nbb := (nbr + 7) / 8
	pos := h.pos
	if pos+nbb > len(data) {
		return fmt.Errorf("trace: chunk truncated at offset %d (need %d bytes)", pos, nbb)
	}
	bm := data[pos : pos+nbb]
	pos += nbb
	if nbr%8 != 0 && bm[nbb-1]>>(nbr%8) != 0 {
		return fmt.Errorf("trace: nonzero padding bits in chunk bitmap")
	}
	ch.BrTaken = append(ch.BrTaken[:0], bm...)

	if cap(ch.Addrs) < nmem {
		ch.Addrs = make([]uint64, 0, nmem+nmem/4)
	}
	sc.nextEpoch(int(dict.ni))
	for _, t := range h.tokens {
		id := t.ID
		mOffs := dict.memOff[dict.memStart[id]:dict.memStart[id+1]]
		pcBase := dict.runs[id].pc
		for rep := int32(0); rep < t.Rep; rep++ {
			for _, off := range mOffs {
				if uint(pos) >= uint(len(data)) {
					return errTruncatedVarint
				}
				u := uint64(data[pos])
				pos++
				if u >= 0x80 {
					if uint(pos) < uint(len(data)) && data[pos] < 0x80 {
						u = u&0x7f | uint64(data[pos])<<7
						pos++
					} else if u, pos, err = uvarintAt(data, pos-1); err != nil {
						return err
					}
				}
				pc := pcBase + off
				a := sc.prev(pc) + uint64(unzigzag(u))
				sc.set(pc, a)
				ch.Addrs = append(ch.Addrs, a)
			}
		}
	}
	if pos != len(data) {
		return fmt.Errorf("trace: %d trailing bytes after chunk payload", len(data)-pos)
	}
	return nil
}

// scanChunkTokensV4 parses only the token stream of a v4 chunk
// (structural and dictionary validation included) and reports it
// through fn. data may be a stream-1 prefix (framePCColumn's
// contract); the final target and trailing-byte validation of the
// full payload are the column decoder's job.
func scanChunkTokensV4(data []byte, dict *v4Dict, sc *v4Scratch, fn func(pc, n int32, rep int64)) (uint64, int, error) {
	h, err := parseChunkV4(data, dict, sc)
	if err != nil {
		return 0, 0, err
	}
	for _, t := range h.tokens {
		r := dict.runs[t.ID]
		fn(r.pc, r.n, int64(t.Rep))
	}
	return h.base, h.n, nil
}

// v4Writer is the writer-side encoder state: the program, a mirror of
// the Builder's growing dictionary bound to the program's class tables
// (the address column needs each run's memory offsets), and the
// per-chunk address chains.
type v4Writer struct {
	prog *isa.Program
	dict *v4Dict
	sc   v4Scratch
}

func newV4Writer(prog *isa.Program) *v4Writer {
	return &v4Writer{prog: prog, dict: newV4Dict()}
}

// appendChunk encodes ch as a v4 chunk starting at event base onto
// dst, growing the dictionary by the entries ch's dictionary gained
// since the previous chunk, and returns the extended slice plus the
// split-compression cut (the end of the token stream). ch must be
// dictionary-backed and consistent with the runs it references: the
// interpreter builds only run-representable chunks, and a sim.Builder
// has already verified its events are.
func (vw *v4Writer) appendChunk(dst []byte, base uint64, ch *runstream.Chunk) ([]byte, int, error) {
	d := vw.dict
	dictBase := len(d.runs)
	if ch.Dict == nil || len(ch.Dict.Runs) < dictBase {
		return dst, 0, fmt.Errorf("trace: chunk at event %d does not extend the writer's run dictionary", base)
	}
	newRuns := ch.Dict.Runs[dictBase:]
	for _, r := range newRuns {
		if err := d.add(r.PC, int64(r.N)); err != nil {
			return dst, 0, err
		}
	}
	if err := d.bind(vw.prog); err != nil {
		return dst, 0, err
	}
	nbr, nmem, span := 0, 0, 0
	for _, t := range ch.Tokens {
		if t.ID < 0 || int(t.ID) >= len(d.runs) || t.Rep < 1 {
			return dst, 0, fmt.Errorf("trace: chunk at event %d: token (%d, %d) out of range", base, t.ID, t.Rep)
		}
		nbr += int(d.condCount(t.ID)) * int(t.Rep)
		nmem += int(d.memCount(t.ID)) * int(t.Rep)
		span += int(d.runs[t.ID].n) * int(t.Rep)
	}
	if span != ch.N || ch.N == 0 || len(ch.BrTaken) != (nbr+7)/8 || len(ch.Addrs) != nmem {
		return dst, 0, fmt.Errorf("trace: chunk at event %d: columns disagree with its %d events", base, ch.N)
	}

	dst = binary.AppendUvarint(dst, base)
	dst = binary.AppendUvarint(dst, uint64(ch.N))
	dst = binary.AppendUvarint(dst, uint64(dictBase))
	dst = binary.AppendUvarint(dst, uint64(len(newRuns)))
	prev := int64(0)
	for _, r := range newRuns {
		dst = binary.AppendUvarint(dst, zigzag(int64(r.PC)-prev))
		dst = binary.AppendUvarint(dst, uint64(r.N))
		prev = int64(r.PC)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ch.Tokens)))
	for _, t := range ch.Tokens {
		dst = binary.AppendUvarint(dst, uint64(t.ID))
		dst = binary.AppendUvarint(dst, uint64(t.Rep))
	}
	last := d.runs[ch.Tokens[len(ch.Tokens)-1].ID]
	dst = binary.AppendUvarint(dst, zigzag(int64(ch.Target)-int64(last.pc+last.n)))
	cut := len(dst)

	dst = append(dst, ch.BrTaken...)
	vw.sc.nextEpoch(int(d.ni))
	cur := 0
	for _, t := range ch.Tokens {
		id := t.ID
		mOffs := d.memOff[d.memStart[id]:d.memStart[id+1]]
		pcBase := d.runs[id].pc
		for rep := int32(0); rep < t.Rep; rep++ {
			for _, off := range mOffs {
				pc := pcBase + off
				a := ch.Addrs[cur]
				cur++
				dst = binary.AppendUvarint(dst, zigzag(int64(a-vw.sc.prev(pc))))
				vw.sc.set(pc, a)
			}
		}
	}
	return dst, cut, nil
}
