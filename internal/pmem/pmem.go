// Package pmem simulates a byte-addressable persistent memory device with
// x86-style persistency semantics, replacing the Intel Optane DC module and
// DAX-mapped pool files of the paper's testbed.
//
// The model is the one XFDetector reasons about (§2.1, §4.1 of the paper):
//
//   - Stores land in the volatile cache hierarchy. Their content is visible
//     to subsequent loads immediately, but they are NOT guaranteed to be
//     persistent.
//   - CLWB / CLFLUSH request writeback of the 64-byte cache lines covering a
//     range, making them writeback-pending.
//   - Non-temporal stores bypass the cache and are immediately
//     writeback-pending.
//   - SFENCE completes all pending writebacks: only then are the written
//     values guaranteed to survive a failure. SFENCE is an *ordering point*;
//     the detection frontend injects a failure point before each one (§4.2).
//
// A Pool holds the full PM image including non-persisted updates, exactly
// like the PM image copy of §5.4 (footnote 3): the shadow PM — not the
// medium — tracks which bytes were guaranteed persisted. Addresses are
// pool-relative offsets, which makes every PM object's address deterministic
// across executions (the paper achieves the same with PMDK's
// PMEM_MMAP_HINT address derandomization).
//
// Every operation is reported to the attached trace Sink, together with the
// source location of the caller (standing in for the instruction pointer
// that Pin records in the paper) when a checker reads it (ipcache.go).
package pmem

import (
	"fmt"
	"sync"

	"github.com/pmemgo/xfdetector/internal/trace"
)

// CacheLineSize is the writeback granularity, matching x86.
const CacheLineSize = 64

// LineDown rounds addr down to its cache-line base.
func LineDown(addr uint64) uint64 { return addr &^ (CacheLineSize - 1) }

// LineUp rounds addr up to the next cache-line boundary.
func LineUp(addr uint64) uint64 {
	return (addr + CacheLineSize - 1) &^ (CacheLineSize - 1)
}

// A Sink receives trace entries as the program executes. The XFDetector
// frontend installs one; running with a nil sink is the "original program"
// configuration of Fig. 12b (no tracing, no detection).
type Sink interface {
	Record(e trace.Entry)
}

// RangeError reports an access outside the pool. Accessing PM out of bounds
// is a programming error in the tested workload, so pool accessors panic
// with a *RangeError rather than returning it.
type RangeError struct {
	Pool string
	Op   string
	Addr uint64
	Size uint64
	Len  uint64
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("pmem: %s out of range on pool %q: [0x%x, 0x%x) with pool size 0x%x",
		e.Op, e.Pool, e.Addr, e.Addr+e.Size, e.Len)
}

// Pool is one simulated persistent memory pool.
//
// A Pool is not safe for fully concurrent mutation of overlapping data (the
// workloads in the paper's evaluation perform independent operations per
// thread, §7), but every accessor performs its image mutation, dirty-page
// marking and trace-entry capture inside one p.mu critical section, so
// concurrent tracing is well formed and TakeSnapshot observes image bytes
// and dirty bits atomically with respect to every store path.
type Pool struct {
	name string
	size uint64

	// Exactly one backing representation is set. Root pools (New,
	// FromImage, NewFileBacked) use the flat buf plus the
	// incremental-snapshot state below; post-failure pools built by
	// FromSnapshot are copy-on-write views using pages/owned (snapshot.go).
	buf   []byte
	pages [][]byte
	owned []bool

	mu sync.Mutex
	// Incremental-snapshot state (root pools; see snapshot.go): dirty is
	// the page-granularity bitmap of writes since base, base is the
	// previous snapshot.
	dirty []uint64
	base  *Snapshot
	// file is the durable half of a file-backed root pool (file.go); nil
	// for in-memory pools and COW views. Set once at construction — the
	// nil check needs no lock — with all field mutation under mu.
	file *fileState

	sink      Sink
	stage     trace.Stage
	fenceHook func() // invoked immediately BEFORE each SFence takes effect
	libDepth  int    // >0 while executing inside a traced PM library
	skipDet   int    // >0 while inside a skipDetection region
	tid       uint32
	ipEnabled bool
	faults    *FaultHooks // deterministic harness-fault injection (faults.go)
}

// New creates a zeroed pool of the given size. Size is rounded up to a whole
// number of cache lines.
func New(name string, size int) *Pool {
	if size <= 0 {
		panic(fmt.Sprintf("pmem: pool %q must have positive size, got %d", name, size))
	}
	sz := LineUp(uint64(size))
	return &Pool{
		name:      name,
		size:      sz,
		buf:       make([]byte, sz),
		dirty:     make([]uint64, (numPages(sz)+63)/64),
		ipEnabled: true,
	}
}

// FromImage creates a root pool backed by a full copy of img, for callers
// that hold a flat image (tests that crash a pool by hand). The detection
// frontend spawns post-failure executions with FromSnapshot instead.
func FromImage(name string, img []byte) *Pool {
	buf := make([]byte, len(img))
	copy(buf, img)
	sz := uint64(len(buf))
	return &Pool{
		name:      name,
		size:      sz,
		buf:       buf,
		dirty:     make([]uint64, (numPages(sz)+63)/64),
		ipEnabled: true,
	}
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Size returns the pool size in bytes.
func (p *Pool) Size() uint64 { return p.size }

// Snapshot returns a flat copy of the full PM image, including updates that
// are not guaranteed persisted (footnote 3 of the paper). It does not touch
// the incremental-snapshot state; the detection frontend uses TakeSnapshot.
func (p *Pool) Snapshot() []byte {
	img := make([]byte, p.size)
	p.mu.Lock()
	p.readLocked(0, img)
	p.mu.Unlock()
	return img
}

// Bytes returns the PM image for read-only inspection in tests: the live
// buffer of a root pool, a materialized copy for a COW view.
func (p *Pool) Bytes() []byte {
	if p.buf != nil {
		return p.buf
	}
	return p.Snapshot()
}

// SetSink attaches (or, with nil, detaches) the trace sink.
func (p *Pool) SetSink(s Sink) {
	p.mu.Lock()
	p.sink = s
	p.mu.Unlock()
}

// SetStage sets the stage recorded on subsequent entries.
func (p *Pool) SetStage(s trace.Stage) {
	p.mu.Lock()
	p.stage = s
	p.mu.Unlock()
}

// Stage returns the stage currently recorded on entries.
func (p *Pool) Stage() trace.Stage {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stage
}

// SetFenceHook installs f to run immediately before every SFence. The
// XFDetector frontend uses the hook to inject failure points before each
// ordering point (§4.2).
func (p *Pool) SetFenceHook(f func()) {
	p.mu.Lock()
	p.fenceHook = f
	p.mu.Unlock()
}

// SetTID sets the mutator thread id recorded on entries.
func (p *Pool) SetTID(tid uint32) {
	p.mu.Lock()
	p.tid = tid
	p.mu.Unlock()
}

// SetIPCapture toggles source-location capture. Disabling it removes the
// stack walk and its PC resolution; reports then lack file:line
// information.
func (p *Pool) SetIPCapture(on bool) {
	p.mu.Lock()
	p.ipEnabled = on
	p.mu.Unlock()
}

// EnterLibrary marks the start of traced PM-library code (pmobj). Entries
// recorded until the matching ExitLibrary carry InLibrary, which the backend
// uses for PMDK-style function-granularity semantics (§5.3).
func (p *Pool) EnterLibrary() {
	p.mu.Lock()
	p.libDepth++
	p.mu.Unlock()
}

// ExitLibrary ends a library region started by EnterLibrary.
func (p *Pool) ExitLibrary() {
	p.mu.Lock()
	if p.libDepth == 0 {
		p.mu.Unlock()
		panic("pmem: ExitLibrary without EnterLibrary")
	}
	p.libDepth--
	p.mu.Unlock()
}

// EnterSkipDetection marks the start of a region whose entries the backend
// must not check (Table 2: skipDetectionBegin).
func (p *Pool) EnterSkipDetection() {
	p.mu.Lock()
	p.skipDet++
	p.mu.Unlock()
}

// ExitSkipDetection ends a skip-detection region.
func (p *Pool) ExitSkipDetection() {
	p.mu.Lock()
	if p.skipDet == 0 {
		p.mu.Unlock()
		panic("pmem: ExitSkipDetection without EnterSkipDetection")
	}
	p.skipDet--
	p.mu.Unlock()
}

// InLibrary reports whether execution is currently inside a traced library
// region.
func (p *Pool) InLibrary() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.libDepth > 0
}

func (p *Pool) check(op string, addr, size uint64) {
	if addr+size > p.size || addr+size < addr {
		panic(&RangeError{Pool: p.name, Op: op, Addr: addr, Size: size, Len: p.size})
	}
}

// captureLocked builds the trace entry for one operation; callers hold
// p.mu. A nil sink result means tracing is detached and nothing is
// delivered.
func (p *Pool) captureLocked(kind trace.Kind, addr, size uint64, fn string) (*FaultHooks, Sink, trace.Entry) {
	if p.sink == nil {
		return nil, nil, trace.Entry{}
	}
	e := trace.Entry{
		Kind:          kind,
		Addr:          addr,
		Size:          size,
		Stage:         p.stage,
		TID:           p.tid,
		Func:          fn,
		InLibrary:     p.libDepth > 0,
		SkipDetection: p.skipDet > 0,
	}
	if p.ipEnabled && wantIP(p.stage, kind) {
		e.IP = callerIP()
	}
	return p.faults, p.sink, e
}

// emit records one trace entry if a sink is attached.
func (p *Pool) emit(kind trace.Kind, addr, size uint64, fn string) {
	p.mu.Lock()
	faults, sink, e := p.captureLocked(kind, addr, size, fn)
	p.mu.Unlock()
	if sink != nil {
		deliver(faults, sink, e)
	}
}

// emitWrite performs the image mutation and captures the trace entry in one
// critical section, then delivers the entry outside the pool mutex.
func (p *Pool) emitWrite(kind trace.Kind, addr uint64, data []byte) {
	p.mu.Lock()
	p.writeLocked(addr, data)
	faults, sink, e := p.captureLocked(kind, addr, uint64(len(data)), "")
	p.mu.Unlock()
	if sink != nil {
		deliver(faults, sink, e)
	}
}

// emitRead reads len(dst) bytes and captures the trace entry in one
// critical section, then delivers the entry outside the pool mutex.
func (p *Pool) emitRead(addr uint64, dst []byte) {
	p.mu.Lock()
	p.readLocked(addr, dst)
	faults, sink, e := p.captureLocked(trace.Read, addr, uint64(len(dst)), "")
	p.mu.Unlock()
	if sink != nil {
		deliver(faults, sink, e)
	}
}

// deliver hands e to the sink, consulting the sink fault hook first. The
// hook runs outside the pool mutex so it may itself touch the pool.
func deliver(faults *FaultHooks, sink Sink, e trace.Entry) {
	if faults != nil && faults.Sink != nil {
		if err := faults.Sink(e); err != nil {
			panic(&HarnessFault{Op: "trace-sink", Err: err})
		}
	}
	sink.Record(e)
}

// Store writes data at addr through the cache hierarchy. The new value is
// immediately visible to loads but not guaranteed persistent.
func (p *Pool) Store(addr uint64, data []byte) {
	p.check("store", addr, uint64(len(data)))
	p.emitWrite(trace.Write, addr, data)
}

// NTStore writes data at addr with a non-temporal store: the range becomes
// writeback-pending immediately and is persisted by the next SFence.
func (p *Pool) NTStore(addr uint64, data []byte) {
	p.check("ntstore", addr, uint64(len(data)))
	p.emitWrite(trace.NTStore, addr, data)
}

// Load reads len(dst) bytes at addr into dst.
func (p *Pool) Load(addr uint64, dst []byte) {
	p.check("load", addr, uint64(len(dst)))
	p.emitRead(addr, dst)
}

// Store8 writes one byte.
func (p *Pool) Store8(addr uint64, v uint8) {
	p.check("store", addr, 1)
	b := [1]byte{v}
	p.emitWrite(trace.Write, addr, b[:])
}

// Load8 reads one byte.
func (p *Pool) Load8(addr uint64) uint8 {
	p.check("load", addr, 1)
	var b [1]byte
	p.emitRead(addr, b[:])
	return b[0]
}

// Store16 writes a little-endian uint16.
func (p *Pool) Store16(addr uint64, v uint16) {
	p.check("store", addr, 2)
	b := [2]byte{byte(v), byte(v >> 8)}
	p.emitWrite(trace.Write, addr, b[:])
}

// Load16 reads a little-endian uint16.
func (p *Pool) Load16(addr uint64) uint16 {
	p.check("load", addr, 2)
	var b [2]byte
	p.emitRead(addr, b[:])
	return uint16(b[0]) | uint16(b[1])<<8
}

// Store32 writes a little-endian uint32.
func (p *Pool) Store32(addr uint64, v uint32) {
	p.check("store", addr, 4)
	var b [4]byte
	putU32(b[:], v)
	p.emitWrite(trace.Write, addr, b[:])
}

// Load32 reads a little-endian uint32.
func (p *Pool) Load32(addr uint64) uint32 {
	p.check("load", addr, 4)
	var b [4]byte
	p.emitRead(addr, b[:])
	return getU32(b[:])
}

// Store64 writes a little-endian uint64.
func (p *Pool) Store64(addr uint64, v uint64) {
	p.check("store", addr, 8)
	var b [8]byte
	putU64(b[:], v)
	p.emitWrite(trace.Write, addr, b[:])
}

// Load64 reads a little-endian uint64.
func (p *Pool) Load64(addr uint64) uint64 {
	p.check("load", addr, 8)
	var b [8]byte
	p.emitRead(addr, b[:])
	return getU64(b[:])
}

// Memset writes n copies of b starting at addr.
func (p *Pool) Memset(addr uint64, b byte, n uint64) {
	p.check("memset", addr, n)
	p.mu.Lock()
	p.memsetLocked(addr, b, n)
	faults, sink, e := p.captureLocked(trace.Write, addr, n, "")
	p.mu.Unlock()
	if sink != nil {
		deliver(faults, sink, e)
	}
}

// Copy performs a PM-to-PM memmove of n bytes; it traces a read of the
// source and a write of the destination.
func (p *Pool) Copy(dst, src, n uint64) {
	p.check("copy-src", src, n)
	p.check("copy-dst", dst, n)
	p.emit(trace.Read, src, n, "")
	p.mu.Lock()
	if p.buf != nil {
		copy(p.buf[dst:dst+n], p.buf[src:src+n])
		p.markDirtyLocked(dst, n)
	} else {
		tmp := make([]byte, n)
		p.readLocked(src, tmp)
		p.writeLocked(dst, tmp)
	}
	faults, sink, e := p.captureLocked(trace.Write, dst, n, "")
	p.mu.Unlock()
	if sink != nil {
		deliver(faults, sink, e)
	}
}

// CLWB requests writeback of the cache lines covering [addr, addr+size).
func (p *Pool) CLWB(addr, size uint64) {
	p.check("clwb", addr, size)
	base := LineDown(addr)
	p.emit(trace.CLWB, base, LineUp(addr+size)-base, "")
}

// CLFlush flushes (evicts and writes back) the covering cache lines. For
// persistence it behaves like CLWB.
func (p *Pool) CLFlush(addr, size uint64) {
	p.check("clflush", addr, size)
	base := LineDown(addr)
	p.emit(trace.CLFlush, base, LineUp(addr+size)-base, "")
}

// SFence is a store fence: it completes all pending writebacks, making them
// persistent, and advances the ordering timestamp. It is an ordering point;
// the installed fence hook (the failure injector) runs first. On a
// file-backed pool the fence is also a persist boundary: the dirty pages
// are written back to the pool file in coalesced msync ranges. SFence has
// no error path, so a persist failure is stashed and surfaced by the next
// SnapshotErr — i.e. at the next failure point, where the frontend's
// retry-then-quarantine machinery owns it.
func (p *Pool) SFence() {
	p.mu.Lock()
	hook := p.fenceHook
	p.mu.Unlock()
	if hook != nil {
		hook()
	}
	p.emit(trace.SFence, 0, 0, "")
	if p.file != nil {
		p.mu.Lock()
		if err := p.persistLocked(); err != nil {
			p.file.pending = err
		}
		p.mu.Unlock()
	}
}

// Persist is the paper's persist_barrier(): CLWB of the range followed by an
// SFence.
func (p *Pool) Persist(addr, size uint64) {
	p.CLWB(addr, size)
	p.SFence()
}

// Announce records a bare trace entry of the given kind. The pmobj library
// uses it for transaction and function events; user code normally does not
// call it.
func (p *Pool) Announce(kind trace.Kind, addr, size uint64, fn string) {
	if kind.IsMemOp() {
		p.check(kind.String(), addr, size)
	}
	p.emit(kind, addr, size, fn)
}

// AnnounceEntry records e after filling in the pool's current stage, thread
// id, library/skip flags and, where a consumer reads it and e has none, the
// caller location. Kind, addresses and function name are taken from e.
func (p *Pool) AnnounceEntry(e trace.Entry) {
	if e.Kind.IsMemOp() {
		p.check(e.Kind.String(), e.Addr, e.Size)
	}
	p.mu.Lock()
	sink := p.sink
	if sink == nil {
		p.mu.Unlock()
		return
	}
	e.Stage = p.stage
	e.TID = p.tid
	e.InLibrary = p.libDepth > 0
	e.SkipDetection = p.skipDet > 0
	if p.ipEnabled && e.IP == "" && wantIP(e.Stage, e.Kind) {
		e.IP = callerIP()
	}
	faults := p.faults
	p.mu.Unlock()
	deliver(faults, sink, e)
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}
