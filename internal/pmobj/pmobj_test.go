package pmobj

import (
	"testing"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/trace"
)

func newTestPool(t *testing.T) *pmem.Pool {
	t.Helper()
	return pmem.New(t.Name(), 1<<20)
}

func mustCreate(t *testing.T, p *pmem.Pool, rootSize uint64) *Pool {
	t.Helper()
	po, err := Create(p, rootSize, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return po
}

func TestCreateAndOpen(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 256)
	if po.RootSize() != 256 {
		t.Errorf("root size = %d, want 256", po.RootSize())
	}
	root := po.Root()
	p.Store64(root, 0xDEADBEEF)
	p.Persist(root, 8)

	reopened, err := Open(p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if reopened.Root() != root {
		t.Errorf("root moved across open: %#x != %#x", reopened.Root(), root)
	}
	if got := p.Load64(root); got != 0xDEADBEEF {
		t.Errorf("root data = %#x, want 0xDEADBEEF", got)
	}
}

func TestOpenRejectsUninitializedPool(t *testing.T) {
	p := newTestPool(t)
	if _, err := Open(p); err != ErrNotAPool {
		t.Fatalf("Open of raw pool: err = %v, want ErrNotAPool", err)
	}
}

func TestRootZeroed(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 128)
	buf := make([]byte, 128)
	p.Load(po.Root(), buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("root byte %d = %#x, want 0", i, b)
		}
	}
}

func TestAllocAtomicRoundTrip(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	off, err := po.AllocAtomic(100, func(off uint64) {
		p.Store64(off, 42)
		p.Persist(off, 8)
	})
	if err != nil {
		t.Fatalf("AllocAtomic: %v", err)
	}
	if got := p.Load64(off); got != 42 {
		t.Errorf("constructor write lost: %d", got)
	}
	size, err := po.AllocSize(off)
	if err != nil || size != 100 {
		t.Errorf("AllocSize = %d, %v; want 100, nil", size, err)
	}
	before := po.FreeBlocks()
	if err := po.FreeAtomic(off); err != nil {
		t.Fatalf("FreeAtomic: %v", err)
	}
	if po.FreeBlocks() != before+blocksFor(100) {
		t.Errorf("free blocks = %d, want %d", po.FreeBlocks(), before+blocksFor(100))
	}
}

func TestAllocAtomicDistinct(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		off, err := po.AllocAtomic(33, nil)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if seen[off] {
			t.Fatalf("allocation %d returned reused offset %#x", i, off)
		}
		seen[off] = true
	}
}

func TestAllocExhaustion(t *testing.T) {
	p := pmem.New("tiny", 16<<10)
	po, err := Create(p, 64, &Options{TxLogSize: 4096})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var last error
	for i := 0; i < 10000; i++ {
		if _, last = po.AllocAtomic(512, nil); last != nil {
			break
		}
	}
	if last != ErrOutOfMemory {
		t.Fatalf("expected ErrOutOfMemory, got %v", last)
	}
}

func TestFreeAtomicBadOffset(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	if err := po.FreeAtomic(123457); err != ErrBadFree {
		t.Fatalf("FreeAtomic(bogus) = %v, want ErrBadFree", err)
	}
}

func TestTxCommitPersistsData(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	root := po.Root()
	p.Store64(root, 100)
	p.Persist(root, 8)

	err := po.Tx(func(tx *Tx) error {
		if err := tx.Add(root, 8); err != nil {
			return err
		}
		p.Store64(root, 200)
		return nil
	})
	if err != nil {
		t.Fatalf("Tx: %v", err)
	}
	if got := p.Load64(root); got != 200 {
		t.Errorf("after commit: %d, want 200", got)
	}
	// Reopen: recovery must be a no-op for a committed transaction.
	po2, err := Open(p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := p.Load64(po2.Root()); got != 200 {
		t.Errorf("after reopen: %d, want 200", got)
	}
}

func TestTxAbortRollsBack(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	root := po.Root()
	p.Store64(root, 100)
	p.Persist(root, 8)

	errBoom := po.Tx(func(tx *Tx) error {
		if err := tx.Add(root, 8); err != nil {
			return err
		}
		p.Store64(root, 777)
		return ErrOutOfMemory // any error aborts
	})
	if errBoom != ErrOutOfMemory {
		t.Fatalf("Tx error = %v", errBoom)
	}
	if got := p.Load64(root); got != 100 {
		t.Errorf("after abort: %d, want 100 (rolled back)", got)
	}
}

func TestTxPanicRollsBack(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	root := po.Root()
	p.Store64(root, 5)
	p.Persist(root, 8)

	func() {
		defer func() { recover() }()
		_ = po.Tx(func(tx *Tx) error {
			if err := tx.Add(root, 8); err != nil {
				return err
			}
			p.Store64(root, 6)
			panic("boom")
		})
	}()
	if got := p.Load64(root); got != 5 {
		t.Errorf("after panic: %d, want 5 (rolled back)", got)
	}
	if po.tx != nil {
		t.Error("transaction leaked after panic")
	}
}

func TestTxInterruptedRecoversOnOpen(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	root := po.Root()
	p.Store64(root, 100)
	p.Persist(root, 8)

	// Simulate a failure mid-transaction: mutate without committing, then
	// "crash" by taking the image and reopening it elsewhere.
	tx, err := po.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Add(root, 8); err != nil {
		t.Fatal(err)
	}
	p.Store64(root, 999)

	crash := pmem.FromImage("crash", p.Snapshot())
	po2, err := Open(crash)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	if got := crash.Load64(po2.Root()); got != 100 {
		t.Errorf("recovery result = %d, want 100 (undo applied)", got)
	}
	// Recovery must have invalidated the log: a second open is a no-op.
	if _, err := Open(crash); err != nil {
		t.Fatalf("second Open: %v", err)
	}
}

func TestTxAllocRolledBackOnCrash(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)

	tx, err := po.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Alloc(128); err != nil {
		t.Fatal(err)
	}
	crash := pmem.FromImage("crash", p.Snapshot())
	po2, err := Open(crash)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	// All heap blocks except the root must be free again.
	want := po2.nblocks - blocksFor(64)
	if got := po2.FreeBlocks(); got != want {
		t.Errorf("free blocks after recovery = %d, want %d", got, want)
	}
}

func TestTxFreeRolledBackOnCrash(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	off, err := po.AllocAtomic(64, func(off uint64) {
		p.Store64(off, 11)
		p.Persist(off, 8)
	})
	if err != nil {
		t.Fatal(err)
	}

	tx, err := po.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Free(off); err != nil {
		t.Fatal(err)
	}
	crash := pmem.FromImage("crash", p.Snapshot())
	po2, err := Open(crash)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	// The free must have been rolled back: the object is still allocated
	// and its data intact.
	if got := crash.Load64(off); got != 11 {
		t.Errorf("freed-then-recovered data = %d, want 11", got)
	}
	if size, err := po2.AllocSize(off); err != nil || size != 64 {
		t.Errorf("AllocSize after recovery = %d, %v", size, err)
	}
}

// countingSink counts the trace entries a pool records.
type countingSink struct{ n int }

func (c *countingSink) Record(trace.Entry) { c.n++ }

// TestDoubleFreeAtomicRefused: alloc, free, realloc, then a second free of
// the stale offset fails with ErrBadFree and leaves FreeBlocks unchanged.
// The realloc is larger than the freed run and a live neighbour follows
// it, so first fit places it elsewhere and the stale run stays free. (A
// realloc that lands on the same offset makes the second free a valid
// free of the new object: offsets alone cannot tell the two apart.)
func TestDoubleFreeAtomicRefused(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	stale, err := po.AllocAtomic(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := po.AllocAtomic(100, nil); err != nil { // the live neighbour
		t.Fatal(err)
	}
	if err := po.FreeAtomic(stale); err != nil {
		t.Fatalf("first FreeAtomic: %v", err)
	}
	again, err := po.AllocAtomic(300, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again == stale {
		t.Fatal("the larger reallocation reused the freed run")
	}
	before := po.FreeBlocks()
	sink := &countingSink{}
	p.SetSink(sink)
	err = po.FreeAtomic(stale)
	p.SetSink(nil)
	if err != ErrBadFree {
		t.Fatalf("second FreeAtomic of a freed offset = %v, want ErrBadFree", err)
	}
	if got := po.FreeBlocks(); got != before {
		t.Errorf("refused free changed FreeBlocks %d -> %d", before, got)
	}
	if sink.n != 0 {
		t.Errorf("refused free traced %d entries, want none", sink.n)
	}
	if err := blockMapMatches(po); err != nil {
		t.Error(err)
	}
}

// TestDoubleTxFreeRefused: within one transaction a second Tx.Free of the
// same run fails before it is logged, and the commit frees the run once;
// after the commit a Tx.Free of that run fails as well.
func TestDoubleTxFreeRefused(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	off, err := po.AllocAtomic(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := po.FreeBlocks()
	err = po.Tx(func(tx *Tx) error {
		if err := tx.Free(off); err != nil {
			return err
		}
		logged := p.Load64(po.txLogOff + txCountOff)
		if err := tx.Free(off); err != ErrBadFree {
			t.Errorf("second Tx.Free in one transaction = %v, want ErrBadFree", err)
		}
		if got := p.Load64(po.txLogOff + txCountOff); got != logged {
			t.Errorf("refused Tx.Free logged an entry: %d -> %d", logged, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := po.FreeBlocks(), before+blocksFor(100); got != want {
		t.Errorf("FreeBlocks after commit = %d, want %d", got, want)
	}
	err = po.Tx(func(tx *Tx) error { return tx.Free(off) })
	if err != ErrBadFree {
		t.Errorf("Tx.Free of a committed free = %v, want ErrBadFree", err)
	}
	if err := blockMapMatches(po); err != nil {
		t.Error(err)
	}
}

func TestTxFreeNoReuseWithinTx(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	off, err := po.AllocAtomic(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = po.Tx(func(tx *Tx) error {
		if err := tx.Free(off); err != nil {
			return err
		}
		off2, err := tx.Alloc(64)
		if err != nil {
			return err
		}
		if off2 == off {
			t.Error("transaction reused blocks it freed itself")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedBeginRejected(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	tx, err := po.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := po.Begin(); err != ErrInTx {
		t.Fatalf("nested Begin = %v, want ErrInTx", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicAllocInsideTxRejected(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	err := po.Tx(func(tx *Tx) error {
		if _, err := po.AllocAtomic(64, nil); err != ErrInTx {
			t.Errorf("AllocAtomic in tx = %v, want ErrInTx", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTxLogFull(t *testing.T) {
	p := newTestPool(t)
	po, err := Create(p, 4096, &Options{TxLogSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := po.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	var last error
	for i := 0; i < 100; i++ {
		if last = tx.Add(po.Root(), 256); last != nil {
			break
		}
	}
	if last != ErrTxLogFull {
		t.Fatalf("expected ErrTxLogFull, got %v", last)
	}
}

func TestOperationsAfterFinishRejected(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	tx, err := po.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Add(po.Root(), 8); err != ErrNoTx {
		t.Errorf("Add after commit = %v, want ErrNoTx", err)
	}
	if err := tx.Commit(); err != ErrNoTx {
		t.Errorf("double commit = %v, want ErrNoTx", err)
	}
	if _, err := tx.Alloc(8); err != ErrNoTx {
		t.Errorf("Alloc after commit = %v, want ErrNoTx", err)
	}
}

func TestBug4CreateUnorderedMetaStillReadable(t *testing.T) {
	// The seeded Bug 4 variant must still produce a pool that opens when
	// no failure interrupts creation; the bug is only visible across a
	// failure (that detection is exercised in the workloads package).
	p := newTestPool(t)
	if _, err := Create(p, 64, &Options{Faults: Faults{CreateUnorderedMeta: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); err != nil {
		t.Fatalf("Open after complete buggy create: %v", err)
	}
}

func TestCommitFaultsStillFunctional(t *testing.T) {
	// The seeded commit faults change persistence guarantees, not
	// failure-free behaviour.
	for _, f := range []Faults{{CommitSkipFlush: true}, {SkipLogInvalidate: false}} {
		p := newTestPool(t)
		po, err := Create(p, 64, &Options{Faults: f})
		if err != nil {
			t.Fatal(err)
		}
		root := po.Root()
		err = po.Tx(func(tx *Tx) error {
			if err := tx.Add(root, 8); err != nil {
				return err
			}
			p.Store64(root, 321)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Load64(root); got != 321 {
			t.Errorf("faults %+v: data = %d, want 321", f, got)
		}
	}
}

func TestOpenRejectsCorruptMetadata(t *testing.T) {
	corrupt := func(name string, mutate func(p *pmem.Pool)) {
		t.Helper()
		p := newTestPool(t)
		mustCreate(t, p, 64)
		mutate(p)
		if _, err := Open(p); err == nil {
			t.Errorf("%s: corrupt pool opened successfully", name)
		}
	}
	corrupt("zero-heap-off", func(p *pmem.Pool) { p.Store64(offHeapOff, 0) })
	corrupt("root-outside-heap", func(p *pmem.Pool) { p.Store64(offRootOff, 16) })
	corrupt("blkmap-outside-pool", func(p *pmem.Pool) { p.Store64(offBlkmap, p.Size()) })
	corrupt("heap-outside-pool", func(p *pmem.Pool) { p.Store64(offHeapSize, p.Size()*2) })
	corrupt("bad-magic", func(p *pmem.Pool) { p.Store64(offMagic, 0x1234) })
	corrupt("bad-oplog-status", func(p *pmem.Pool) { p.Store64(oplogOff, 99) })
	corrupt("oplog-range-out", func(p *pmem.Pool) {
		p.Store64(oplogOff, opAllocPend)
		p.Store64(oplogOff+8, 1<<40)
		p.Store64(oplogOff+16, 1)
	})
}

func TestOplogRecoveryRevertsPendingAlloc(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	free := po.FreeBlocks()
	// Simulate a crash mid-AllocAtomic: record + status persisted, map
	// half-updated.
	p.Store64(oplogOff+8, 10) // blockIdx
	p.Store64(oplogOff+16, 2) // count
	p.Persist(oplogOff+8, 16)
	p.Store64(oplogOff, opAllocPend)
	p.Persist(oplogOff, 8)
	p.Store8(po.blkmap+10, 1) // only the first block marked
	crash := pmem.FromImage("crash", p.Snapshot())
	po2, err := Open(crash)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if po2.FreeBlocks() != free {
		t.Errorf("pending alloc not reverted: free=%d want %d", po2.FreeBlocks(), free)
	}
	if crash.Load64(oplogOff) != opIdle {
		t.Error("oplog status not cleared")
	}
}

func TestOplogRecoveryCompletesPendingFree(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	off, err := po.AllocAtomic(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	freeBefore := po.FreeBlocks()
	// Simulate a crash mid-FreeAtomic: record + status persisted, map
	// untouched.
	blockStart := off - allocHeader
	idx := (blockStart - po.heapOff) / BlockSize
	p.Store64(oplogOff+8, idx)
	p.Store64(oplogOff+16, blocksFor(100))
	p.Persist(oplogOff+8, 16)
	p.Store64(oplogOff, opFreePending)
	p.Persist(oplogOff, 8)
	crash := pmem.FromImage("crash", p.Snapshot())
	po2, err := Open(crash)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := po2.FreeBlocks(); got != freeBefore+blocksFor(100) {
		t.Errorf("pending free not completed: free=%d want %d", got, freeBefore+blocksFor(100))
	}
}

func TestAllocSizeBadOffset(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	if _, err := po.AllocSize(3); err == nil {
		t.Error("AllocSize(bogus) succeeded")
	}
}

func TestTxAddZeroSizeRejected(t *testing.T) {
	p := newTestPool(t)
	po := mustCreate(t, p, 64)
	tx, err := po.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if err := tx.Add(po.Root(), 0); err == nil {
		t.Error("zero-size TX_ADD accepted")
	}
}
