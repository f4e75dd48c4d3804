package pmobj

import (
	"fmt"
	"sort"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// Undo-log transactions (Table 1, "undo logging").
//
// Log layout at txLogOff:
//
//	+0  valid      (commit flag: 1 while the log must be applied on recovery)
//	+8  numEntries
//	+16 used       (arena bytes consumed)
//	+64 arena      (entries, sequential)
//
// Entry encoding: {type u64, off u64, size u64} followed, for data entries,
// by the size bytes of the old data. Each TX_ADD persists the entry before
// updating (and persisting) the log header, so a failure anywhere leaves
// either a fully recorded entry or an unrecorded one — never a torn log.
//
// Commit writes back every object range touched by the transaction, fences,
// then invalidates the log. Abort (and recovery on Open) applies the
// entries in reverse: data entries restore the old bytes, alloc entries
// release the new blocks, free entries re-mark the released blocks.
const (
	txValidOff   = 0
	txCountOff   = 8
	txUsedOff    = 16
	txArenaStart = 64

	entData  = 1
	entAlloc = 2
	entFree  = 3

	entHeaderSize = 24
)

// Tx is an open transaction. Create one with Begin or Tx.
type Tx struct {
	po *Pool
	// flush accumulates the ranges commit must write back.
	flush []txRange
	// freed defers the volatile block-map release to commit so the
	// transaction cannot reuse (and overwrite) blocks it freed itself.
	freed []txRange
	done  bool
}

type txRange struct{ off, size uint64 }

// Begin starts a transaction. Nested transactions are not supported.
func (po *Pool) Begin() (*Tx, error) {
	if po.tx != nil {
		return nil, ErrInTx
	}
	tx := &Tx{po: po}
	po.tx = tx
	po.p.Announce(trace.TxBegin, 0, 0, "pmobj.Begin")
	return tx, nil
}

// Tx runs fn inside a transaction, committing on nil return and aborting
// (rolling back every Add/Alloc/Free) when fn returns an error or panics.
func (po *Pool) Tx(fn func(tx *Tx) error) error {
	tx, err := po.Begin()
	if err != nil {
		return err
	}
	defer func() {
		if !tx.done {
			// fn panicked: roll back, then let the panic continue.
			tx.abort()
		}
	}()
	if err := fn(tx); err != nil {
		tx.abort()
		return err
	}
	return tx.Commit()
}

// Add backs up [off, off+size) in the undo log — TX_ADD. Data added to the
// transaction may be modified freely afterwards; whatever the failure,
// recovery restores a consistent version.
func (tx *Tx) Add(off, size uint64) error {
	if tx.done {
		return ErrNoTx
	}
	if size == 0 {
		return fmt.Errorf("pmobj: TX_ADD of empty range at 0x%x", off)
	}
	// Announce first, from user level, so the backend attributes the
	// TX_ADD (and any duplicate-add performance bug) to the caller.
	tx.po.p.Announce(trace.TxAdd, off, size, "pmobj.TxAdd")
	if err := tx.appendEntry(entData, off, size); err != nil {
		return err
	}
	tx.flush = append(tx.flush, txRange{off, size})
	return nil
}

// Alloc allocates size bytes transactionally — TX_ALLOC. On abort or
// recovery the allocation is rolled back. The new range is zeroed, and
// commit persists it along with the allocator metadata.
func (tx *Tx) Alloc(size uint64) (uint64, error) {
	if tx.done {
		return 0, ErrNoTx
	}
	if size == 0 {
		size = 1
	}
	po := tx.po
	n := blocksFor(size)
	done := po.lib()
	idx, err := po.findFree(n)
	done()
	if err != nil {
		return 0, err
	}
	blockStart := po.heapOff + idx*BlockSize
	dataOff := blockStart + allocHeader
	// Log the allocation before touching the map: a failure after this
	// point rolls the blocks back to free.
	if err := tx.appendEntry(entAlloc, dataOff, size); err != nil {
		return 0, err
	}
	done = po.lib()
	po.markBlocks(idx, n, true)
	po.p.Store64(blockStart, size)
	po.p.Memset(dataOff, 0, size)
	done()
	tx.flush = append(tx.flush,
		txRange{po.blkmap + idx, n},
		txRange{blockStart, allocHeader + size})
	po.p.Announce(trace.TxAlloc, dataOff, size, "pmobj.TxAlloc")
	return dataOff, nil
}

// Free releases an allocation transactionally — TX_FREE. The blocks are
// reusable only after commit; abort and recovery re-mark them used.
func (tx *Tx) Free(dataOff uint64) error {
	if tx.done {
		return ErrNoTx
	}
	po := tx.po
	idx, n, err := po.blocksOf(dataOff)
	if err != nil {
		return err
	}
	if err := tx.appendEntry(entFree, dataOff, 0); err != nil {
		return err
	}
	done := po.lib()
	for b := idx; b < idx+n; b++ {
		po.p.Store8(po.blkmap+b, 0)
		// po.used[b] stays 1 until commit: the transaction must not
		// reuse blocks it freed, or abort could not restore their data.
	}
	done()
	tx.flush = append(tx.flush, txRange{po.blkmap + idx, n})
	tx.freed = append(tx.freed, txRange{idx, n})
	po.p.Announce(trace.TxFree, dataOff, 0, "pmobj.TxFree")
	return nil
}

// appendEntry records one undo entry: entry bytes first (persisted), then
// the log header (persisted), so the log is never torn.
func (tx *Tx) appendEntry(typ, off, size uint64) error {
	po := tx.po
	done := po.lib()
	defer done()
	p := po.p

	used := p.Load64(po.txLogOff + txUsedOff)
	count := p.Load64(po.txLogOff + txCountOff)
	entSize := uint64(entHeaderSize)
	if typ == entData {
		entSize += size
	}
	ent := po.txLogOff + txArenaStart + used
	if ent+entSize > po.txLogOff+po.txLogLen {
		return ErrTxLogFull
	}
	p.Store64(ent, typ)
	p.Store64(ent+8, off)
	p.Store64(ent+16, size)
	if typ == entData {
		p.Copy(ent+entHeaderSize, off, size)
	}
	p.Persist(ent, entSize)

	p.Store64(po.txLogOff+txUsedOff, used+entSize)
	p.Store64(po.txLogOff+txCountOff, count+1)
	p.Store64(po.txLogOff+txValidOff, 1)
	p.Persist(po.txLogOff, entHeaderSize)
	return nil
}

// Commit makes the transaction's effects durable and discards the undo log.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrNoTx
	}
	po := tx.po
	p := po.p
	done := po.lib()
	if !po.faults.CommitSkipFlush {
		// Coalesce the ranges by cache line (as PMDK does) so overlapping
		// TX_ADDs do not issue redundant writebacks.
		for _, r := range coalesceLines(tx.flush) {
			p.CLWB(r.off, r.size)
		}
		p.SFence()
	}
	// BUG when SkipLogInvalidate (seeded): leaving the log valid makes
	// recovery roll a *committed* transaction back with stale data.
	if !po.faults.SkipLogInvalidate {
		po.invalidateLog()
	}
	for _, f := range tx.freed {
		for b := f.off; b < f.off+f.size; b++ {
			po.used[b] = 0
		}
	}
	done()
	tx.finish(trace.TxCommit, "pmobj.TxCommit")
	return nil
}

// Abort rolls the transaction back immediately.
func (tx *Tx) Abort() error {
	if tx.done {
		return ErrNoTx
	}
	tx.abort()
	return nil
}

func (tx *Tx) abort() {
	po := tx.po
	done := po.lib()
	po.rollbackLog()
	done()
	tx.finish(trace.TxAbort, "pmobj.TxAbort")
}

func (tx *Tx) finish(kind trace.Kind, fn string) {
	tx.done = true
	tx.po.tx = nil
	tx.po.p.Announce(kind, 0, 0, fn)
}

// coalesceLines converts ranges to a minimal sorted set of distinct
// cache-line-aligned ranges.
func coalesceLines(ranges []txRange) []txRange {
	lines := make(map[uint64]struct{})
	for _, r := range ranges {
		for l := pmem.LineDown(r.off); l < r.off+r.size; l += pmem.CacheLineSize {
			lines[l] = struct{}{}
		}
	}
	sorted := make([]uint64, 0, len(lines))
	for l := range lines {
		sorted = append(sorted, l)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out []txRange
	for _, l := range sorted {
		if n := len(out); n > 0 && out[n-1].off+out[n-1].size == l {
			out[n-1].size += pmem.CacheLineSize
		} else {
			out = append(out, txRange{l, pmem.CacheLineSize})
		}
	}
	return out
}

// invalidateLog clears the undo log header, persisting the single line that
// holds all three fields.
func (po *Pool) invalidateLog() {
	p := po.p
	p.Store64(po.txLogOff+txValidOff, 0)
	p.Store64(po.txLogOff+txCountOff, 0)
	p.Store64(po.txLogOff+txUsedOff, 0)
	p.Persist(po.txLogOff, entHeaderSize)
}

// rollbackLog applies the undo log in reverse and invalidates it. Callers
// hold the library bracket. It is used both by Abort and by recovery.
func (po *Pool) rollbackLog() {
	p := po.p
	if p.Load64(po.txLogOff+txValidOff) != 1 {
		return
	}
	count := p.Load64(po.txLogOff + txCountOff)

	// Walk the arena forward to locate each entry, then apply in reverse.
	type entry struct{ typ, off, size, pos uint64 }
	entries := make([]entry, 0, count)
	pos := po.txLogOff + txArenaStart
	for i := uint64(0); i < count; i++ {
		e := entry{
			typ:  p.Load64(pos),
			off:  p.Load64(pos + 8),
			size: p.Load64(pos + 16),
			pos:  pos,
		}
		entries = append(entries, e)
		pos += entHeaderSize
		if e.typ == entData {
			pos += e.size
		}
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		switch e.typ {
		case entData:
			p.Copy(e.off, e.pos+entHeaderSize, e.size)
			p.CLWB(e.off, e.size)
		case entAlloc:
			blockStart := e.off - allocHeader
			idx := (blockStart - po.heapOff) / BlockSize
			n := blocksFor(e.size)
			for b := idx; b < idx+n; b++ {
				p.Store8(po.blkmap+b, 0)
				if po.used != nil {
					po.used[b] = 0
				}
			}
			p.CLWB(po.blkmap+idx, n)
		case entFree:
			idx, n, err := po.blocksOf(e.off)
			if err != nil {
				continue // torn entry cannot occur; be defensive anyway
			}
			for b := idx; b < idx+n; b++ {
				p.Store8(po.blkmap+b, 1)
				if po.used != nil {
					po.used[b] = 1
				}
			}
			p.CLWB(po.blkmap+idx, n)
		}
	}
	p.SFence()
	po.invalidateLog()
}

// recoverTxLog rolls back an interrupted transaction during Open. Callers
// hold the library bracket.
func (po *Pool) recoverTxLog() error {
	po.rollbackLog()
	return nil
}
