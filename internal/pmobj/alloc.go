package pmobj

import (
	"github.com/pmemgo/xfdetector/internal/trace"
)

// Block allocator.
//
// The heap is an array of 64-byte blocks with a persistent one-byte-per-
// block map. Every allocation is prefixed by an 8-byte size header, so the
// usable data offset is blockStart+8. Non-transactional ("atomic") map
// updates are made failure-atomic with a tiny operation log (Table 1,
// "operational logging"):
//
//	oplogOff+0  status   (0 idle, 1 alloc pending, 2 free pending)
//	oplogOff+8  blockIdx
//	oplogOff+16 count
//
// The record is persisted before the status, and the status before the map
// update, so recovery can always tell whether a pending operation must be
// reverted (alloc) or completed (free). Transactional allocations bypass
// the operation log; their atomicity comes from the undo log (tx.go).

const (
	opIdle        = 0
	opAllocPend   = 1
	opFreePending = 2
)

// findFree returns the first run of n contiguous free blocks, or an error.
// The scan uses the volatile mirror, so it traces nothing.
func (po *Pool) findFree(n uint64) (uint64, error) {
	run := uint64(0)
	for i := uint64(0); i < po.nblocks; i++ {
		if po.used[i] == 0 {
			run++
			if run == n {
				return i - n + 1, nil
			}
		} else {
			run = 0
		}
	}
	return 0, ErrOutOfMemory
}

// markBlocks updates the persistent block map (and size header for
// allocations) without any ordering; callers persist.
func (po *Pool) markBlocks(idx, n uint64, used bool) {
	v := byte(0)
	if used {
		v = 1
	}
	for b := idx; b < idx+n; b++ {
		po.p.Store8(po.blkmap+b, v)
		po.used[b] = v
	}
}

// AllocAtomic allocates size bytes outside any transaction, mirroring
// POBJ_ALLOC: the operation log makes the *allocator metadata* failure
// atomic, but the content of the new object is only as persistent as the
// constructor makes it. The constructor (which may be nil) runs as user
// code: its writes are traced and checked like any other program writes —
// a constructor that forgets to initialize or persist a field recreates
// the paper's Bug 1/Bug 2.
func (po *Pool) AllocAtomic(size uint64, constructor func(off uint64)) (uint64, error) {
	if po.tx != nil {
		return 0, ErrInTx
	}
	if size == 0 {
		size = 1
	}
	n := blocksFor(size)

	done := po.lib()
	idx, err := po.findFree(n)
	if err != nil {
		done()
		return 0, err
	}
	p := po.p
	// Operation record first, then status, then the map: each step
	// persisted before the next so recovery sees a well-defined state.
	p.Store64(oplogOff+8, idx)
	p.Store64(oplogOff+16, n)
	p.Persist(oplogOff+8, 16)
	p.Store64(oplogOff, opAllocPend)
	p.Persist(oplogOff, 8)
	po.markBlocks(idx, n, true)
	blockStart := po.heapOff + idx*BlockSize
	p.Store64(blockStart, size)
	p.CLWB(po.blkmap+idx, n)
	p.CLWB(blockStart, allocHeader)
	p.SFence()
	p.Store64(oplogOff, opIdle)
	p.Persist(oplogOff, 8)
	done()

	dataOff := blockStart + allocHeader
	// Announce the allocation: the new range's content is indeterminate
	// until the program initializes and persists it (paper Bug 2).
	p.Announce(trace.AtomicAlloc, dataOff, size, "pmobj.AllocAtomic")
	if constructor != nil {
		constructor(dataOff)
	}
	return dataOff, nil
}

// FreeAtomic frees an atomic allocation at dataOff. A free of a run that
// is not allocated — a double free — returns ErrBadFree.
func (po *Pool) FreeAtomic(dataOff uint64) error {
	if po.tx != nil {
		return ErrInTx
	}
	idx, n, err := po.freeRun(dataOff)
	if err != nil {
		return err
	}
	done := po.lib()
	defer done()
	p := po.p
	p.Store64(oplogOff+8, idx)
	p.Store64(oplogOff+16, n)
	p.Persist(oplogOff+8, 16)
	p.Store64(oplogOff, opFreePending)
	p.Persist(oplogOff, 8)
	po.markBlocks(idx, n, false)
	p.Persist(po.blkmap+idx, n)
	p.Store64(oplogOff, opIdle)
	p.Persist(oplogOff, 8)
	return nil
}

// blockIndex maps a data offset to the index of its first block; ok is
// false when the offset is not a block-aligned allocation inside the heap.
func (po *Pool) blockIndex(dataOff uint64) (idx uint64, ok bool) {
	blockStart := dataOff - allocHeader
	if blockStart < po.heapOff || (blockStart-po.heapOff)%BlockSize != 0 {
		return 0, false
	}
	idx = (blockStart - po.heapOff) / BlockSize
	return idx, idx < po.nblocks
}

// blocksOf maps a data offset back to its block run.
func (po *Pool) blocksOf(dataOff uint64) (idx, n uint64, err error) {
	idx, ok := po.blockIndex(dataOff)
	if !ok {
		return 0, 0, ErrBadFree
	}
	done := po.lib()
	size := po.p.Load64(dataOff - allocHeader)
	done()
	n = blocksFor(size)
	if idx+n > po.nblocks {
		return 0, 0, ErrBadFree
	}
	return idx, n, nil
}

// freeRun is blocksOf for a free by the program: it refuses a run any
// block of which is free in the volatile map, so a second free of a stale
// offset cannot release blocks a later allocation reuses. The first block
// is tested before the traced header load, so refusing a free of a run
// that is still free traces nothing.
func (po *Pool) freeRun(dataOff uint64) (idx, n uint64, err error) {
	if idx, ok := po.blockIndex(dataOff); ok && po.used[idx] == 0 {
		return 0, 0, ErrBadFree
	}
	if idx, n, err = po.blocksOf(dataOff); err != nil {
		return 0, 0, err
	}
	for b := idx; b < idx+n; b++ {
		if po.used[b] == 0 {
			return 0, 0, ErrBadFree
		}
	}
	return idx, n, nil
}

// AllocSize returns the size recorded for the allocation at dataOff.
func (po *Pool) AllocSize(dataOff uint64) (uint64, error) {
	blockStart := dataOff - allocHeader
	if blockStart < po.heapOff || blockStart >= po.heapOff+po.heapSize {
		return 0, ErrBadFree
	}
	done := po.lib()
	size := po.p.Load64(blockStart)
	done()
	return size, nil
}

// recoverOplog completes or reverts a pending allocator operation after a
// failure: a pending alloc is reverted (the object was never handed to the
// program durably), a pending free is completed (the program already gave
// the memory up). Callers hold the library bracket.
func (po *Pool) recoverOplog() error {
	p := po.p
	status := p.Load64(oplogOff)
	switch status {
	case opIdle:
		return nil
	case opAllocPend, opFreePending:
		idx := p.Load64(oplogOff + 8)
		n := p.Load64(oplogOff + 16)
		if idx+n > po.nblocks {
			return ErrCorruptMeta
		}
		// Revert the pending alloc / complete the pending free: both
		// clear the blocks.
		for b := idx; b < idx+n; b++ {
			p.Store8(po.blkmap+b, 0)
		}
		p.Persist(po.blkmap+idx, n)
		p.Store64(oplogOff, opIdle)
		p.Persist(oplogOff, 8)
		return nil
	default:
		return ErrCorruptMeta
	}
}
