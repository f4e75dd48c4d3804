// Package pmobj is a from-scratch PMDK-like persistent object library — the
// substrate the paper's evaluated workloads are built on (libpmemobj's
// transactional API and the low-level atomic API).
//
// A pmobj pool lives inside a pmem.Pool and provides:
//
//   - a persistent header with metadata and a validity flag, written with
//     the proper ordering at creation (the seeded Bug 4 variant omits the
//     ordering, reproducing the paper's pmemobj_createU bug);
//   - a root object of caller-chosen size, like pmemobj_root;
//   - a block allocator whose operations are made failure-atomic with a
//     small operation log (Table 1, "operational logging");
//   - undo-log transactions: Begin/Add/Commit/Abort with recovery applied
//     on Open (Table 1, "undo logging");
//   - an atomic (non-transactional) allocation API mirroring POBJ_ALLOC,
//     including its sharp edge: the new object's content is only as
//     persistent as the constructor makes it (the paper's Bug 2).
//
// Like the paper's handling of PMDK (§5.3, §5.5), the library's internal
// metadata manipulation is traced at function granularity and excluded from
// read checking (skip-detection), while the events that matter to the
// backend — TX_BEGIN/TX_ADD/TX_COMMIT, allocations, and the header commit
// variable — are announced explicitly.
package pmobj

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// Pool layout (all offsets are pmem.Pool offsets):
//
//	[0,   128)  header
//	[128, 192)  allocator operation log
//	[192, 192+txLogSize)  transaction undo log
//	[...      )  block map (1 byte per heap block)
//	[...      )  heap (64-byte blocks)
const (
	offMagic    = 0
	offVersion  = 8
	offRootOff  = 16
	offRootSize = 24
	offHeapOff  = 32
	offHeapSize = 40
	offTxLogOff = 48
	offBlkmap   = 56
	offUUID     = 64 // 16 bytes
	offValid    = 80 // 8 bytes: the header commit variable
	headerSize  = 128

	oplogOff  = 128
	oplogSize = 64

	txLogOff = 192

	// Magic marks an initialized pmobj pool.
	Magic = 0x504d4f424a310001

	// Version is the layout version.
	Version = 1

	// BlockSize is the allocation granularity.
	BlockSize = 64

	// allocHeader is the per-allocation size prefix.
	allocHeader = 8

	defaultTxLogSize = 64 << 10
)

// Errors returned by the library.
var (
	// ErrNotAPool indicates the pmem pool does not contain an initialized
	// pmobj pool (bad magic or validity flag).
	ErrNotAPool = errors.New("pmobj: not a valid pmobj pool")
	// ErrCorruptMeta indicates the header validity flag is set but the
	// metadata is not usable — the observable symptom of the paper's
	// Bug 4.
	ErrCorruptMeta = errors.New("pmobj: pool metadata is corrupt")
	// ErrOutOfMemory indicates the heap cannot satisfy an allocation.
	ErrOutOfMemory = errors.New("pmobj: out of persistent memory")
	// ErrTxLogFull indicates the undo log arena is exhausted.
	ErrTxLogFull = errors.New("pmobj: transaction undo log is full")
	// ErrNoTx indicates a transactional operation outside a transaction.
	ErrNoTx = errors.New("pmobj: no transaction in progress")
	// ErrInTx indicates an operation that is illegal inside a transaction.
	ErrInTx = errors.New("pmobj: operation not allowed inside a transaction")
	// ErrBadFree indicates a free of an address that is not an allocation.
	ErrBadFree = errors.New("pmobj: free of non-allocated address")
)

// Faults enumerates the seeded bugs of the library itself. All flags
// default to off (correct behaviour).
type Faults struct {
	// CreateUnorderedMeta reproduces the paper's Bug 4
	// (pmemobj_createU/util_pool_create_uuids): pool creation sets the
	// validity flag without ordering it after the metadata persists, so a
	// failure during creation leaves a pool that claims to be valid but
	// has incomplete metadata.
	CreateUnorderedMeta bool
	// CommitSkipFlush makes transaction commit skip the writeback of the
	// transaction's object ranges: committed data is not guaranteed
	// persistent.
	CommitSkipFlush bool
	// SkipLogInvalidate makes commit skip invalidating the undo log, so
	// recovery after a completed transaction rolls it back with stale
	// data.
	SkipLogInvalidate bool
}

// Options configures pool creation.
type Options struct {
	// TxLogSize is the undo-log arena size (default 64 KiB).
	TxLogSize uint64
	// Faults selects seeded library bugs.
	Faults Faults
}

// Pool is an open pmobj pool.
type Pool struct {
	p      *pmem.Pool
	faults Faults

	rootOff  uint64
	rootSize uint64
	heapOff  uint64
	heapSize uint64
	txLogOff uint64
	txLogLen uint64
	blkmap   uint64
	nblocks  uint64

	// used is the volatile view of the block map: its bytes, 0 = free.
	used []byte

	tx *Tx
}

// lib brackets library-internal code: entries are flagged InLibrary and
// excluded from post-failure read checking, mirroring the paper's
// function-granularity handling of PMDK internals.
func (po *Pool) lib() func() {
	po.p.EnterLibrary()
	po.p.EnterSkipDetection()
	return func() {
		po.p.ExitSkipDetection()
		po.p.ExitLibrary()
	}
}

// Create initializes a pmobj pool with a zeroed root object of rootSize
// bytes inside p, and returns it opened. opts may be nil.
func Create(p *pmem.Pool, rootSize uint64, opts *Options) (*Pool, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.TxLogSize == 0 {
		o.TxLogSize = defaultTxLogSize
	}
	o.TxLogSize = pmem.LineUp(o.TxLogSize)

	blkmapOff := pmem.LineUp(txLogOff + o.TxLogSize)
	// Solve for a block count where map and heap fit the pool.
	avail := p.Size() - blkmapOff
	nblocks := avail / (BlockSize + 1)
	nblocks -= nblocks % BlockSize // keep the heap line-aligned
	if nblocks == 0 {
		return nil, fmt.Errorf("pmobj: pool of %d bytes is too small", p.Size())
	}
	heapOff := pmem.LineUp(blkmapOff + nblocks)

	po := &Pool{
		p:        p,
		faults:   o.Faults,
		heapOff:  heapOff,
		heapSize: nblocks * BlockSize,
		txLogOff: txLogOff,
		txLogLen: o.TxLogSize,
		blkmap:   blkmapOff,
		nblocks:  nblocks,
		used:     make([]byte, nblocks),
	}

	done := po.lib()
	defer done()

	// The header validity flag is the creation commit variable: metadata
	// is consistent only if persisted before the flag (Eq. 3). The magic
	// number is part of the same validity decision, so reading either
	// during recovery is a benign cross-failure race. Register both before
	// the writes they govern.
	registerHeaderCommitVars(p, "pmobj.Create")

	// Root allocation: carve the first blocks of the heap directly (the
	// pool is not live yet, so no operation log is needed).
	rootBlocks := blocksFor(rootSize)
	if rootBlocks > nblocks {
		return nil, ErrOutOfMemory
	}
	rootOff := heapOff + allocHeader
	po.rootOff = rootOff
	po.rootSize = rootSize

	p.Store64(offMagic, Magic)
	p.Store64(offVersion, Version)
	p.Store64(offRootOff, rootOff)
	p.Store64(offRootSize, rootSize)
	p.Store64(offHeapOff, heapOff)
	p.Store64(offHeapSize, po.heapSize)
	p.Store64(offTxLogOff, po.txLogOff)
	p.Store64(offBlkmap, blkmapOff)
	for i := uint64(0); i < 16; i++ { // a fixed UUID keeps runs deterministic
		p.Store8(offUUID+i, byte(0xA0+i))
	}

	// Empty undo log and idle operation log.
	p.Memset(po.txLogOff, 0, 24)
	p.Memset(oplogOff, 0, 24)

	// Mark the root's blocks used and lay down its size header.
	for b := uint64(0); b < rootBlocks; b++ {
		p.Store8(blkmapOff+b, 1)
		po.used[b] = 1
	}
	p.Store64(heapOff, rootSize)
	p.Memset(rootOff, 0, rootSize)

	if po.faults.CreateUnorderedMeta {
		// BUG (paper Bug 4): the validity flag is written together with
		// the metadata and everything is persisted with a single barrier,
		// so nothing orders the metadata before the flag. A failure during
		// creation leaves a pool that may claim validity with incomplete
		// metadata.
		p.Store64(offValid, 1)
		p.CLWB(0, headerSize)
		p.CLWB(po.txLogOff, 24)
		p.CLWB(blkmapOff, rootBlocks)
		p.CLWB(heapOff, allocHeader+rootSize)
		p.SFence()
	} else {
		// Correct ordering: persist all metadata, then set and persist
		// the validity flag.
		p.CLWB(0, offValid) // header fields and UUID, not yet the flag
		p.CLWB(po.txLogOff, 24)
		p.CLWB(oplogOff, 24)
		p.CLWB(blkmapOff, rootBlocks)
		p.CLWB(heapOff, allocHeader+rootSize)
		p.SFence()
		p.Store64(offValid, 1)
		p.Persist(offValid, 8)
	}
	return po, nil
}

// Open opens an existing pmobj pool in p and runs recovery: validity
// checks, undo-log rollback, and operation-log completion. It is the
// post-failure entry point of every workload.
func Open(p *pmem.Pool) (*Pool, error) {
	po := &Pool{p: p}

	// The validation reads below are the recovery's decision points; they
	// are deliberately NOT skip-detected. The validity flag is a commit
	// variable (benign to read) and the header fields are its associated
	// set, so a creation that failed to order them is reported.
	p.EnterLibrary()
	registerHeaderCommitVars(p, "pmobj.Open")
	valid := p.Load64(offValid)
	magic := p.Load64(offMagic)
	if valid != 1 || magic != Magic {
		p.ExitLibrary()
		return nil, ErrNotAPool
	}
	po.rootOff = p.Load64(offRootOff)
	po.rootSize = p.Load64(offRootSize)
	po.heapOff = p.Load64(offHeapOff)
	po.heapSize = p.Load64(offHeapSize)
	po.txLogOff = p.Load64(offTxLogOff)
	po.blkmap = p.Load64(offBlkmap)
	p.ExitLibrary()

	po.nblocks = po.heapSize / BlockSize
	if po.heapOff == 0 || po.heapSize == 0 || po.nblocks == 0 ||
		po.rootOff < po.heapOff || po.rootOff >= po.heapOff+po.heapSize ||
		po.blkmap == 0 || po.blkmap+po.nblocks > p.Size() ||
		po.heapOff+po.heapSize > p.Size() {
		return nil, ErrCorruptMeta
	}
	po.txLogLen = po.blkmap - po.txLogOff // arena runs up to the block map
	if po.txLogOff < headerSize || po.txLogLen < 64 {
		return nil, ErrCorruptMeta
	}

	done := po.lib()
	defer done()

	if err := po.recoverTxLog(); err != nil {
		return nil, err
	}
	if err := po.recoverOplog(); err != nil {
		return nil, err
	}

	// The volatile view is the (now consistent) block map itself.
	po.used = make([]byte, po.nblocks)
	po.p.Load(po.blkmap, po.used)
	return po, nil
}

// PM returns the underlying pmem pool.
func (po *Pool) PM() *pmem.Pool { return po.p }

// SetFaults enables seeded library bugs on an opened pool (faults are a
// property of the code, not the pool image, so Open does not restore them).
func (po *Pool) SetFaults(f Faults) { po.faults = f }

// Root returns the offset of the root object.
func (po *Pool) Root() uint64 { return po.rootOff }

// RootSize returns the root object size requested at creation.
func (po *Pool) RootSize() uint64 { return po.rootSize }

// HeapOff returns the heap base offset (useful in tests).
func (po *Pool) HeapOff() uint64 { return po.heapOff }

// Persist writes back and fences [off, off+size) — pmemobj_persist.
func (po *Pool) Persist(off, size uint64) { po.p.Persist(off, size) }

// FreeBlocks reports the number of free heap blocks (volatile view).
func (po *Pool) FreeBlocks() uint64 {
	return uint64(bytes.Count(po.used, []byte{0}))
}

func blocksFor(size uint64) uint64 {
	return (size + allocHeader + BlockSize - 1) / BlockSize
}

// registerHeaderCommitVars announces the header's validity flag and magic
// number as commit variables, with the remaining header fields as the
// flag's associated address set (Eq. 3): metadata is consistent only when
// persisted between the last two validity-flag updates.
func registerHeaderCommitVars(p *pmem.Pool, fn string) {
	p.AnnounceEntry(trace.Entry{
		Kind: trace.RegCommitRange,
		Addr: offValid, Size: 8,
		Addr2: offVersion, Size2: offValid - offVersion,
		Func: fn,
	})
	p.AnnounceEntry(trace.Entry{Kind: trace.RegCommitVar, Addr: offMagic, Size: 8, Func: fn})
}
