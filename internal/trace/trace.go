// Package trace defines the persistent-memory operation trace that flows
// from the XFDetector frontend (the instrumented execution) to the backend
// (the shadow-PM replayer). It corresponds to the trace entries of §5.3 of
// the paper: each entry records the operation kind, the PM address range it
// touches, the "instruction pointer" (a file:line source location in this
// reproduction), and the execution stage (pre- or post-failure) it belongs
// to.
//
// The package is a leaf: everything else (pmem, shadow, core) imports it.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind enumerates the PM operations the tracer records. Low-level kinds
// mirror x86 persistency instructions; Tx* and Func* kinds mirror the
// library-function-granularity tracing XFDetector uses for PMDK code.
type Kind uint8

const (
	// Write is a regular store to PM. The data lands in the (volatile)
	// cache hierarchy; it is not guaranteed persistent until written back
	// and fenced.
	Write Kind = iota
	// Read is a load from PM.
	Read
	// CLWB requests writeback of the cache lines covering the range. The
	// lines become writeback-pending; persistence is guaranteed only after
	// a following SFence.
	CLWB
	// CLFlush evicts-and-writes-back the covering cache lines. For the
	// persistence state machine it behaves like CLWB (it still requires an
	// SFence to be ordered).
	CLFlush
	// NTStore is a non-temporal store: the data bypasses the cache and
	// enters a write-combining buffer, so the range is immediately
	// writeback-pending, persistent after the next SFence.
	NTStore
	// SFence is a store fence: every writeback-pending range becomes
	// persisted, and the global ordering timestamp advances. SFence is an
	// ordering point; XFDetector injects a failure point before each one.
	SFence
	// TxBegin marks the start of a failure-atomic transaction.
	TxBegin
	// TxAdd records that the range has been added to the transaction's
	// undo log. From this point to the end of detection the range is
	// recoverable: whatever the failure, recovery restores either the old
	// or the committed value, so post-failure reads of it are consistent.
	TxAdd
	// TxCommit marks a successful transaction commit.
	TxCommit
	// TxAbort marks an explicit transaction abort (undo applied).
	TxAbort
	// TxAlloc records a transactional allocation of the range.
	TxAlloc
	// TxFree records a transactional free of the range.
	TxFree
	// FuncBegin and FuncEnd bracket a traced library function (PMDK-style
	// function-granularity tracing, §5.3).
	FuncBegin
	FuncEnd
	// CommitVarWrite is a write to a registered commit variable. It alters
	// the consistency status of its associated address set (§3.2).
	CommitVarWrite
	// FailurePoint marks a point where the frontend injected a failure.
	FailurePoint
	// RoIBegin and RoIEnd delimit the region-of-interest (Table 2).
	RoIBegin
	RoIEnd
	// AtomicAlloc records a non-transactional allocation. The new range's
	// content is not guaranteed initialized or persisted (the allocator may
	// or may not zero it — the root cause of the paper's Bug 2), so the
	// shadow PM treats it as modified-but-not-persisted.
	AtomicAlloc
	// RegCommitVar registers [Addr, Addr+Size) as a commit variable
	// (Table 2: addCommitVar). Post-failure reads of it are benign
	// cross-failure races.
	RegCommitVar
	// RegCommitRange associates the address set [Addr2, Addr2+Size2) with
	// the commit variable at [Addr, Addr+Size) (Table 2: addCommitRange).
	RegCommitRange
	numKinds
)

var kindNames = [...]string{
	Write:          "WRITE",
	Read:           "READ",
	CLWB:           "CLWB",
	CLFlush:        "CLFLUSH",
	NTStore:        "NTSTORE",
	SFence:         "SFENCE",
	TxBegin:        "TX_BEGIN",
	TxAdd:          "TX_ADD",
	TxCommit:       "TX_COMMIT",
	TxAbort:        "TX_ABORT",
	TxAlloc:        "TX_ALLOC",
	TxFree:         "TX_FREE",
	FuncBegin:      "FUNC_BEGIN",
	FuncEnd:        "FUNC_END",
	CommitVarWrite: "COMMIT_WRITE",
	FailurePoint:   "FAILURE_POINT",
	RoIBegin:       "ROI_BEGIN",
	RoIEnd:         "ROI_END",
	AtomicAlloc:    "ATOMIC_ALLOC",
	RegCommitVar:   "REG_COMMIT_VAR",
	RegCommitRange: "REG_COMMIT_RANGE",
}

// String returns the canonical upper-case mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is one of the defined kinds.
func (k Kind) Valid() bool { return k < numKinds }

// IsMemOp reports whether the kind carries a meaningful address range.
func (k Kind) IsMemOp() bool {
	switch k {
	case Write, Read, CLWB, CLFlush, NTStore, TxAdd, TxAlloc, TxFree,
		CommitVarWrite, AtomicAlloc, RegCommitVar, RegCommitRange:
		return true
	}
	return false
}

// Stage identifies which side of the failure an entry was recorded on.
type Stage uint8

const (
	// PreFailure is the execution stage before the injected failure.
	PreFailure Stage = iota
	// PostFailure is the recovery-and-resumption stage after the failure.
	PostFailure
	// BothStages is accepted by annotation functions that apply to either
	// stage (Table 2's stage argument).
	BothStages
)

// String returns "pre", "post" or "both".
func (s Stage) String() string {
	switch s {
	case PreFailure:
		return "pre"
	case PostFailure:
		return "post"
	case BothStages:
		return "both"
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// Entry is one traced PM operation.
type Entry struct {
	Seq   uint64 // monotonically increasing sequence number within a trace
	Addr  uint64 // pool-relative address of the first byte touched
	Size  uint64 // number of bytes touched (0 for pure ordering ops)
	Addr2 uint64 // secondary range start (RegCommitRange's associated set)
	Size2 uint64 // secondary range size
	IP    string // source location ("file.go:123"); pmem fills it only where a checker reads it
	Func  string // traced library function name for Func*/Tx* kinds
	Kind  Kind
	Stage Stage
	TID   uint32 // goroutine-local id of the mutator
	// InLibrary marks entries generated inside a traced PM library (pmobj)
	// rather than user code; the backend uses function-granularity
	// semantics for them (§5.3).
	InLibrary bool
	// SkipDetection marks entries produced inside a skipDetection region
	// (Table 2); the backend does not check them.
	SkipDetection bool
}

// End returns the exclusive end address of the range touched by the entry.
func (e Entry) End() uint64 { return e.Addr + e.Size }

// Overlaps reports whether the entry's range intersects [addr, addr+size).
func (e Entry) Overlaps(addr, size uint64) bool {
	return e.Addr < addr+size && addr < e.Addr+e.Size
}

// String formats the entry like the paper's trace listings:
// "WRITE 0x100 16 @ file.go:12".
func (e Entry) String() string {
	s := fmt.Sprintf("%s 0x%x %d", e.Kind, e.Addr, e.Size)
	if e.IP != "" {
		s += " @ " + e.IP
	}
	return s
}

// Trace is an in-memory sequence of entries with O(1) append. The frontend
// appends while the backend reads a stable prefix, mirroring the pre- and
// post-failure trace FIFOs of Fig. 8.
type Trace struct {
	entries []Entry
	nextSeq uint64
}

// New returns an empty trace.
func New() *Trace { return &Trace{} }

// Append adds e to the trace, assigning its sequence number, and returns the
// assigned sequence number.
func (t *Trace) Append(e Entry) uint64 {
	e.Seq = t.nextSeq
	t.nextSeq++
	t.entries = append(t.entries, e)
	return e.Seq
}

// Len returns the number of entries recorded so far.
func (t *Trace) Len() int { return len(t.entries) }

// At returns the i-th entry.
func (t *Trace) At(i int) Entry { return t.entries[i] }

// Entries returns the underlying entry slice. Callers must treat it as
// read-only; it remains valid until the next Append reallocates.
func (t *Trace) Entries() []Entry { return t.entries }

// Slice returns entries[i:j] without copying.
func (t *Trace) Slice(i, j int) []Entry { return t.entries[i:j] }

// Reset discards all entries but keeps the allocated capacity.
func (t *Trace) Reset() {
	t.entries = t.entries[:0]
	t.nextSeq = 0
}

// Counts tallies entries by kind; useful for tests and reports.
func (t *Trace) Counts() map[Kind]int {
	m := make(map[Kind]int)
	for _, e := range t.entries {
		m[e.Kind]++
	}
	return m
}

// Binary encoding
//
// The frontend and backend run in-process in this reproduction, but the
// paper's design decouples them through a FIFO (§5.5: the backend "can be
// attached to other tracing frameworks"). The wire format below preserves
// that decoupling: traces can be serialized, shipped, and replayed by a
// separate process.

const (
	wireMagic   = 0x58464454 // "XFDT"
	wireVersion = 1
)

var (
	// ErrBadMagic is returned when decoding a stream that does not start
	// with the trace file magic.
	ErrBadMagic = errors.New("trace: bad magic")
	// ErrBadVersion is returned for an unsupported wire version.
	ErrBadVersion = errors.New("trace: unsupported version")
)

// WriteTo serializes the trace in the XFDT binary format.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var n int64
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], wireMagic)
	binary.LittleEndian.PutUint32(hdr[4:], wireVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(t.entries)))
	k, err := w.Write(hdr[:])
	n += int64(k)
	if err != nil {
		return n, err
	}
	buf := make([]byte, 0, 64)
	for _, e := range t.entries {
		buf = appendEntry(buf[:0], e)
		k, err = w.Write(buf)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func appendEntry(buf []byte, e Entry) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], e.Seq)
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], e.Addr)
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], e.Size)
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], e.Addr2)
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], e.Size2)
	buf = append(buf, tmp[:]...)
	buf = append(buf, byte(e.Kind), byte(e.Stage))
	var flags byte
	if e.InLibrary {
		flags |= 1
	}
	if e.SkipDetection {
		flags |= 2
	}
	buf = append(buf, flags)
	binary.LittleEndian.PutUint32(tmp[:4], e.TID)
	buf = append(buf, tmp[:4]...)
	buf = appendString(buf, e.IP)
	buf = appendString(buf, e.Func)
	return buf
}

func appendString(buf []byte, s string) []byte {
	var tmp [2]byte
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	binary.LittleEndian.PutUint16(tmp[:], uint16(len(s)))
	buf = append(buf, tmp[:]...)
	return append(buf, s...)
}

// ReadFrom decodes a trace previously written with WriteTo, replacing the
// receiver's contents.
func (t *Trace) ReadFrom(r io.Reader) (int64, error) {
	var n int64
	var hdr [16]byte
	k, err := io.ReadFull(r, hdr[:])
	n += int64(k)
	if err != nil {
		return n, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != wireMagic {
		return n, ErrBadMagic
	}
	if binary.LittleEndian.Uint32(hdr[4:]) != wireVersion {
		return n, ErrBadVersion
	}
	count := binary.LittleEndian.Uint64(hdr[8:])
	t.Reset()
	br := newByteReader(r)
	for i := uint64(0); i < count; i++ {
		e, k, err := readEntry(br)
		n += int64(k)
		if err != nil {
			return n, fmt.Errorf("trace: entry %d: %w", i, err)
		}
		t.entries = append(t.entries, e)
		if e.Seq >= t.nextSeq {
			t.nextSeq = e.Seq + 1
		}
	}
	return n, nil
}

type byteReader struct {
	r   io.Reader
	buf []byte
}

func newByteReader(r io.Reader) *byteReader {
	return &byteReader{r: r, buf: make([]byte, 0, 256)}
}

func (b *byteReader) read(n int) ([]byte, error) {
	if cap(b.buf) < n {
		b.buf = make([]byte, n)
	}
	buf := b.buf[:n]
	if _, err := io.ReadFull(b.r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func readEntry(br *byteReader) (Entry, int, error) {
	var e Entry
	n := 0
	fixed, err := br.read(47)
	if err != nil {
		return e, n, err
	}
	n += 47
	e.Seq = binary.LittleEndian.Uint64(fixed[0:])
	e.Addr = binary.LittleEndian.Uint64(fixed[8:])
	e.Size = binary.LittleEndian.Uint64(fixed[16:])
	e.Addr2 = binary.LittleEndian.Uint64(fixed[24:])
	e.Size2 = binary.LittleEndian.Uint64(fixed[32:])
	e.Kind = Kind(fixed[40])
	e.Stage = Stage(fixed[41])
	flags := fixed[42]
	e.InLibrary = flags&1 != 0
	e.SkipDetection = flags&2 != 0
	e.TID = binary.LittleEndian.Uint32(fixed[43:])
	if !e.Kind.Valid() {
		return e, n, fmt.Errorf("invalid kind %d", uint8(e.Kind))
	}
	for _, dst := range []*string{&e.IP, &e.Func} {
		lenBuf, err := br.read(2)
		if err != nil {
			return e, n, err
		}
		n += 2
		slen := int(binary.LittleEndian.Uint16(lenBuf))
		if slen > 0 {
			sb, err := br.read(slen)
			if err != nil {
				return e, n, err
			}
			n += slen
			*dst = string(sb)
		}
	}
	return e, n, nil
}
