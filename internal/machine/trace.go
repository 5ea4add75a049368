package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
)

// This file implements the recorded architectural trace that splits the
// simulator into a functional engine and a timing engine. One
// functional run (Record) captures everything timing depends on but
// interpretation produces: conditional-branch directions,
// speculative-load fault bits, the ALAT event stream (advanced-load
// inserts, check loads, and the store invalidations that can hit an
// entry — each with its owning activation, register, and address), and
// per-latency-class retirement counts. ReplayBatch (replay_batch.go)
// then re-times the trace under any Config — serial or pipelined, any
// latencies, any ALAT size — without a register file or memory image,
// so an N-config sensitivity sweep costs one functional run plus N
// cheap re-timings.
//
// Under the serial model the re-timing is O(ALAT events), not
// O(instructions): serial cycles are a linear function of the class
// counts plus the per-check hit/miss outcomes, so replay walks only the
// (much shorter) ALAT event stream. The pipelined scoreboard genuinely
// depends on per-instruction operand availability, so that model walks
// the full instruction stream, driven by the branch bits.
//
// The ALAT event stream holds only the stores that can change what
// replay computes. An address is armed once an insert or a check at it
// has been recorded and until a store to it is; only a store to an
// armed address is recorded, and recording it disarms the address.
// Under any capacity an entry at an address is made only by an insert
// or a check miss there, so a store to an unarmed address finds no
// entry at any capacity and would change nothing. The store count
// (cStore) still counts every store: serial timing reads it.
//
// Record's own table runs at the recording capacity on exactly the
// events, in the order, that the replay's ALAT walk re-simulates, so
// Record leaves that capacity's summary (alatSummary) in the trace's
// memo and a replay at the recording capacity walks no events.
//
// The trace deliberately does not record check-load hits or ALAT
// evictions: both depend on Config.ALATSize, so replay re-simulates ALAT
// contents from the recorded event stream with the same alat
// implementation the functional engine uses. What makes this
// sound is a well-formedness obligation on the code (which the code
// generator upholds and the differential tests check): the register of
// a check load still holds its advanced load's value when the check
// executes. Then a check's architectural effect is the same whether it
// hits or misses — the register ends up equal to memory — and only the
// timing differs, which is exactly what replay recomputes.
//
// Streams are append-only and chunked so recording never re-copies a
// growing flat slice and a finished trace can be shared read-only by
// any number of concurrent replays.

// bitChunkWords is the size of one bitstream chunk in 64-bit words
// (32 KiB of bits per chunk).
const (
	bitChunkShift = 12
	bitChunkWords = 1 << bitChunkShift
)

// opChunkLen is the number of ALAT events per chunk.
const opChunkLen = 1 << 12

// bitChunks is an append-only chunked bitstream.
type bitChunks struct {
	chunks [][]uint64
	n      int64 // bits appended
}

func (b *bitChunks) append(bit bool) {
	word := int(b.n >> 6)
	ci := word / bitChunkWords
	if ci == len(b.chunks) {
		b.chunks = append(b.chunks, make([]uint64, bitChunkWords))
	}
	if bit {
		b.chunks[ci][word%bitChunkWords] |= 1 << uint(b.n&63)
	}
	b.n++
}

// words returns the stream's words, for comparing them a word at a
// time.
func (b *bitChunks) words() wordStream { return wordStream{b.chunks, bitChunkShift} }

// bitReader is one replay's private cursor over a bitChunks stream. It
// keeps the 64-bit word under the cursor in hand, so a read indexes the
// chunks only when the cursor has moved past that word.
type bitReader struct {
	t    *bitChunks
	pos  int64
	word uint64
	at   int64 // index of the word in hand, plus one; 0: none yet
}

// next returns the bit under the cursor, 0 or 1, and advances past it;
// ok is false at the end of the stream.
func (r *bitReader) next() (bit int, ok bool) {
	if r.pos >= r.t.n {
		return 0, false
	}
	if i := r.pos >> 6; i+1 != r.at {
		r.word, r.at = r.t.chunks[i/bitChunkWords][i%bitChunkWords], i+1
	}
	bit = int(r.word >> uint(r.pos&63) & 1)
	r.pos++
	return bit, true
}

// ALAT event kinds, in the recorded stream's program order.
const (
	opInsert   uint8 = iota // ld.a / ldf.a / non-deferred ld.sa / ldf.sa
	opCheckInt              // ld.c
	opCheckFP               // ldf.c
	opInval                 // st / stf to an armed address (invalidation)
)

// alatOp is one recorded ALAT-relevant event. The owning activation and
// register are part of the event because ALAT entries are keyed by
// (frameID, reg): the serial fast path re-simulates table contents under
// any capacity from these fields alone, never touching the instruction
// stream.
type alatOp struct {
	frameID int64
	addr    int64
	reg     int32
	fn      int32 // index into Trace.FnNames (per-function attribution)
	kind    uint8
}

// opChunks is an append-only chunked ALAT-event stream in columnar
// (struct-of-arrays) layout: each event field lives in its own parallel
// chunk array. The ALAT re-simulation walks kinds/regs/frames/addrs as
// four contiguous streams instead of striding over a 24-byte struct, so
// both the memoized serial walk and the batched replay stay in cache.
type opChunks struct {
	kinds  [][]uint8
	regs   [][]int32
	frames [][]int64
	addrs  [][]int64
	fns    [][]int32
	n      int64
}

func (a *opChunks) append(op alatOp) {
	ci := int(a.n) / opChunkLen
	if ci == len(a.kinds) {
		a.kinds = append(a.kinds, make([]uint8, 0, opChunkLen))
		a.regs = append(a.regs, make([]int32, 0, opChunkLen))
		a.frames = append(a.frames, make([]int64, 0, opChunkLen))
		a.addrs = append(a.addrs, make([]int64, 0, opChunkLen))
		a.fns = append(a.fns, make([]int32, 0, opChunkLen))
	}
	a.kinds[ci] = append(a.kinds[ci], op.kind)
	a.regs[ci] = append(a.regs[ci], op.reg)
	a.frames[ci] = append(a.frames[ci], op.frameID)
	a.addrs[ci] = append(a.addrs[ci], op.addr)
	a.fns[ci] = append(a.fns[ci], op.fn)
	a.n++
}

// Instruction latency classes counted during recording. Every retired
// instruction outside these classes has unit latency (cHalt retires for
// free), so serial cycles are a linear function of the counts and the
// check outcomes. cSpec/cSpecFault/cAdv are statistics classes that
// overlap the load classes (a retired ld.sa is both cIntLoad for timing
// and cSpec/cAdv for the counters).
const (
	cMul = iota
	cDivMod
	cFPArith
	cFPDiv
	cIntLoad // ld, ld.a, ld.s, ld.sa (checks counted separately)
	cFPLoad  // ldf, ldf.a, ldf.s, ldf.sa
	cCheckInt
	cCheckFP
	cStore
	cHalt
	cSpec      // speculative loads retired
	cSpecFault // deferred speculative faults
	cAdv       // advanced loads retired (ALAT inserts)
	cFence     // speculation barriers (OpFence)
	cNumClasses
)

// Trace is the recorded architectural event stream of one (program,
// input) execution, plus the run's architectural outputs. A finished
// Trace is immutable and safe for concurrent replays.
type Trace struct {
	bits bitChunks // branch directions and spec-load fault bits, in order
	ops  opChunks  // ALAT events (inserts, checks, invalidations), in order

	// alatMemo caches per-ALATSize event-walk summaries (alatSummary):
	// the walk's outcome is a pure function of (trace, capacity), so a
	// latency sweep at a fixed ALAT size pays for one walk. Concurrent
	// replays may race to fill an entry; they compute the same value.
	alatMemo sync.Map // int (ALATSize) -> alatSummary

	// counts are per-latency-class retirement counts (the c* constants);
	// they make serial re-timing independent of the instruction stream's
	// length.
	counts [cNumClasses]int64

	// Steps is the dynamic step count of the recorded run (one per
	// retired instruction). Replay refuses a config whose MaxSteps is
	// below it, and the pipelined walk must retire exactly this many.
	Steps int64
	// MaxDepth is the deepest call nesting the run reached; replay
	// refuses a config whose MaxCallDepth is below it.
	MaxDepth int
	// Frames is the total number of activations entered (including
	// main); each is charged Config.CallOverhead.
	Frames int64
	// StackSlots is the (normalized) Config.StackSlots the trace was
	// recorded under. Replay requires an identical value: the stack size
	// determines concrete addresses, so re-timing under a different
	// memory layout would not correspond to any run of the program.
	StackSlots int
	// Ret and Output are the architectural results of the run.
	Ret    int64
	Output string

	// FnNames is the function-name table for per-function attribution:
	// every recorded ALAT event carries a compact index into it. Order
	// is first-touch during recording and preserved by Marshal, so a
	// round-tripped trace replays to identical per-function counters.
	FnNames []string
	// fnIDs is the recording-side inverse of FnNames, keyed by code
	// pointer. Only the single-threaded functional engine touches it.
	fnIDs map[*FuncCode]int32
}

// fnID interns f into the trace's function-name table.
func (t *Trace) fnID(f *FuncCode) int32 {
	if id, ok := t.fnIDs[f]; ok {
		return id
	}
	if t.fnIDs == nil {
		t.fnIDs = make(map[*FuncCode]int32)
	}
	id := int32(len(t.FnNames))
	t.FnNames = append(t.FnNames, f.Name)
	t.fnIDs[f] = id
	return id
}

// Events reports the number of recorded events (bits plus ALAT ops),
// a size proxy for tests and observability.
func (t *Trace) Events() int64 { return t.bits.n + t.ops.n }

// Bytes reports the in-memory footprint of the trace's event streams:
// allocated chunks times chunk size, for the bitstream and each ALAT
// event column, plus the retained output string. It is an accounting
// figure for cache budgeting (the specd_trace_bytes gauge), not an
// exact heap measurement.
func (t *Trace) Bytes() int64 {
	b := int64(len(t.bits.chunks)) * bitChunkWords * 8
	b += int64(len(t.ops.kinds)) * opChunkLen * 1
	b += int64(len(t.ops.regs)) * opChunkLen * 4
	b += int64(len(t.ops.frames)) * opChunkLen * 8
	b += int64(len(t.ops.addrs)) * opChunkLen * 8
	b += int64(len(t.ops.fns)) * opChunkLen * 4
	for _, name := range t.FnNames {
		b += int64(len(name))
	}
	return b + int64(len(t.Output))
}

// traceMagic stamps the serialized form; the version is bumped whenever
// the stream layout or the event set changes (v2 added event kinds,
// activation/register fields, and the latency-class counts; v3 added
// the function-name table and a per-event function index for
// per-function counter attribution; v4 added the fence latency class —
// the counts are serialized by index, so the class set is part of the
// format).
const traceMagic = "reprotrace v4"

// Marshal serializes the trace (ALAT events are varint-encoded with
// activation ids delta-coded; the bitstream is stored raw).
func (t *Trace) Marshal() []byte {
	buf := make([]byte, 0, 128+len(t.Output)+int(t.bits.n/8)+int(t.ops.n)*5)
	buf = append(buf, traceMagic...)
	buf = binary.AppendUvarint(buf, uint64(t.Steps))
	buf = binary.AppendUvarint(buf, uint64(t.MaxDepth))
	buf = binary.AppendUvarint(buf, uint64(t.Frames))
	buf = binary.AppendUvarint(buf, uint64(t.StackSlots))
	buf = binary.AppendVarint(buf, t.Ret)
	for _, c := range t.counts {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.Output)))
	buf = append(buf, t.Output...)
	buf = binary.AppendUvarint(buf, uint64(len(t.FnNames)))
	for _, name := range t.FnNames {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	buf = binary.AppendUvarint(buf, uint64(t.bits.n))
	words := int((t.bits.n + 63) / 64)
	var w8 [8]byte
	for i := 0; i < words; i++ {
		binary.LittleEndian.PutUint64(w8[:], t.bits.chunks[i/bitChunkWords][i%bitChunkWords])
		buf = append(buf, w8[:]...)
	}
	buf = binary.AppendUvarint(buf, uint64(t.ops.n))
	var prevFrame int64
	for ci, kinds := range t.ops.kinds {
		for off, kind := range kinds {
			frame := t.ops.frames[ci][off]
			buf = append(buf, kind)
			buf = binary.AppendUvarint(buf, uint64(t.ops.regs[ci][off]))
			buf = binary.AppendVarint(buf, frame-prevFrame)
			prevFrame = frame
			buf = binary.AppendVarint(buf, t.ops.addrs[ci][off])
			buf = binary.AppendUvarint(buf, uint64(t.ops.fns[ci][off]))
		}
	}
	return buf
}

// corruptTrace reports a trace that no Record run could have produced.
func corruptTrace(format string, a ...any) error {
	return fmt.Errorf("machine: corrupt trace: %s", fmt.Sprintf(format, a...))
}

// UnmarshalTrace reverses Marshal. Corrupt input returns an error, never
// a panic or a trace replay would misread, so the decoder also rejects a
// header that contradicts its own streams: the check and advanced-load
// counts must equal the ALAT event stream's, because replay sizes its
// per-check outcome table from them, and the stream can hold no more
// store events than the store count, which also counts the stores
// Record leaves out.
func UnmarshalTrace(data []byte) (*Trace, error) {
	bad := func(what string) (*Trace, error) {
		return nil, corruptTrace("%s", what)
	}
	if len(data) < len(traceMagic) || string(data[:len(traceMagic)]) != traceMagic {
		return bad("bad magic")
	}
	data = data[len(traceMagic):]
	uvar := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	ivar := func() (int64, bool) {
		v, n := binary.Varint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	t := &Trace{}
	hdr := []struct {
		what string
		dst  func(uint64)
	}{
		{"steps", func(v uint64) { t.Steps = int64(v) }},
		{"depth", func(v uint64) { t.MaxDepth = int(v) }},
		{"frames", func(v uint64) { t.Frames = int64(v) }},
		{"stack slots", func(v uint64) { t.StackSlots = int(v) }},
	}
	for _, f := range hdr {
		v, ok := uvar()
		if !ok || v > math.MaxInt64 {
			return bad(f.what)
		}
		f.dst(v)
	}
	ret, ok := ivar()
	if !ok {
		return bad("ret")
	}
	t.Ret = ret
	for i := range t.counts {
		v, ok := uvar()
		if !ok || v > math.MaxInt64 {
			return bad("class counts")
		}
		t.counts[i] = int64(v)
	}
	outLen, ok := uvar()
	if !ok || uint64(len(data)) < outLen {
		return bad("output")
	}
	t.Output = string(data[:outLen])
	data = data[outLen:]
	nFns, ok := uvar()
	if !ok {
		return bad("fn count")
	}
	for i := uint64(0); i < nFns; i++ {
		nameLen, ok := uvar()
		if !ok || uint64(len(data)) < nameLen {
			return bad("fn name")
		}
		t.FnNames = append(t.FnNames, string(data[:nameLen]))
		data = data[nameLen:]
	}
	nbits, ok := uvar()
	if !ok {
		return bad("bit count")
	}
	words := int((nbits + 63) / 64)
	if len(data) < words*8 {
		return bad("bit words")
	}
	t.bits.n = int64(nbits)
	for i := 0; i < words; i++ {
		if i%bitChunkWords == 0 {
			t.bits.chunks = append(t.bits.chunks, make([]uint64, bitChunkWords))
		}
		t.bits.chunks[i/bitChunkWords][i%bitChunkWords] = binary.LittleEndian.Uint64(data[i*8:])
	}
	data = data[words*8:]
	nops, ok := uvar()
	if !ok {
		return bad("op count")
	}
	var prevFrame int64
	var kinds [opInval + 1]int64
	for i := uint64(0); i < nops; i++ {
		if len(data) == 0 {
			return bad("op kind")
		}
		kind := data[0]
		if kind > opInval {
			return bad("op kind")
		}
		data = data[1:]
		reg, ok := uvar()
		if !ok {
			return bad("op reg")
		}
		dframe, ok := ivar()
		if !ok {
			return bad("op frame")
		}
		prevFrame += dframe
		addr, ok := ivar()
		if !ok {
			return bad("op addr")
		}
		fn, ok := uvar()
		if !ok || fn >= uint64(len(t.FnNames)) {
			return bad("op fn")
		}
		t.ops.append(alatOp{kind: kind, reg: int32(reg), frameID: prevFrame, addr: addr, fn: int32(fn)})
		kinds[kind]++
	}
	if kinds[opCheckInt] != t.counts[cCheckInt] || kinds[opCheckFP] != t.counts[cCheckFP] ||
		kinds[opInval] > t.counts[cStore] || kinds[opInsert] != t.counts[cAdv] {
		return bad("class counts disagree with the ALAT event stream")
	}
	return t, nil
}

// Fingerprint is a content hash of the compiled program (code, global
// layout, and initial data), suitable for keying recorded traces: two
// programs with equal fingerprints execute identically on equal inputs.
func (p *Program) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "globsize %d\n", p.GlobSize)
	addrs := make([]int, 0, len(p.GlobalInit))
	for a := range p.GlobalInit {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)
	for _, a := range addrs {
		fmt.Fprintf(h, "init %d %d\n", a, p.GlobalInit[a])
	}
	p.disassemble(h)
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}
