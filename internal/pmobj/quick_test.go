package pmobj

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// TestTxAtomicityProperty: whatever a transaction does — adds, writes,
// allocations, frees — a crash before commit recovers to exactly the
// pre-transaction state of the data and of the allocator (property-based).
func TestTxAtomicityProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := pmem.New("prop", 1<<20)
		po, err := Create(p, 512, nil)
		if err != nil {
			t.Log(err)
			return false
		}
		root := po.Root()
		// Committed baseline state.
		for i := uint64(0); i < 64; i++ {
			p.Store64(root+i*8, 0xBA5E+i)
		}
		p.Persist(root, 512)
		var allocs, baselineAllocs []uint64
		for i := 0; i < 3; i++ {
			off, err := po.AllocAtomic(64, func(off uint64) {
				p.Store64(off, uint64(i)+7)
				p.Persist(off, 8)
			})
			if err != nil {
				t.Log(err)
				return false
			}
			allocs = append(allocs, off)
			baselineAllocs = append(baselineAllocs, off)
		}
		baseline := p.Snapshot()
		baseFree := po.FreeBlocks()

		// One transaction doing random mutations, never committed.
		tx, err := po.Begin()
		if err != nil {
			t.Log(err)
			return false
		}
		for i := 0; i < int(nOps%12)+1; i++ {
			switch r.Intn(4) {
			case 0: // backed-up in-place write
				off := root + (r.Uint64()%64)*8
				if err := tx.Add(off, 8); err != nil {
					t.Log(err)
					return false
				}
				p.Store64(off, r.Uint64())
			case 1: // transactional allocation + write
				off, err := tx.Alloc(uint64(r.Intn(100)) + 1)
				if err != nil {
					t.Log(err)
					return false
				}
				p.Store64(off, r.Uint64())
			case 2: // transactional free of a baseline allocation
				if len(allocs) > 0 {
					off := allocs[len(allocs)-1]
					allocs = allocs[:len(allocs)-1]
					if err := tx.Free(off); err != nil {
						t.Log(err)
						return false
					}
				}
			case 3: // write to a range added earlier in this tx (no-op ok)
				off := root + (r.Uint64()%64)*8
				if err := tx.Add(off, 8); err != nil {
					t.Log(err)
					return false
				}
				p.Store64(off, ^r.Uint64())
			}
		}

		// Crash: copy the image mid-transaction and recover elsewhere.
		crash := pmem.FromImage("crash", p.Snapshot())
		po2, err := Open(crash)
		if err != nil {
			t.Logf("open after crash: %v", err)
			return false
		}
		// The recovered LIVE data must equal the committed baseline: the
		// root object, every baseline allocation (frees were rolled
		// back), and the allocator's free space. Blocks the aborted
		// transaction allocated and lost may retain garbage — they are
		// free space, like PMDK's.
		if !bytes.Equal(crash.Bytes()[root:root+512], baseline[root:root+512]) {
			t.Log("root object differs after rollback")
			return false
		}
		for i, off := range baselineAllocs {
			if crash.Load64(off) != uint64(i)+7 {
				t.Logf("baseline allocation %d lost its value", i)
				return false
			}
			if size, err := po2.AllocSize(off); err != nil || size != 64 {
				t.Logf("baseline allocation %d not live: size=%d err=%v", i, size, err)
				return false
			}
		}
		if po2.FreeBlocks() != baseFree {
			t.Logf("free blocks %d != baseline %d", po2.FreeBlocks(), baseFree)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestTxDurabilityProperty: a committed transaction survives a crash
// immediately after commit, and recovery is a no-op (property-based).
func TestTxDurabilityProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := pmem.New("prop", 1<<20)
		po, err := Create(p, 512, nil)
		if err != nil {
			return false
		}
		root := po.Root()
		want := map[uint64]uint64{}
		err = po.Tx(func(tx *Tx) error {
			for i := 0; i < int(nOps%10)+1; i++ {
				off := root + (r.Uint64()%64)*8
				if err := tx.Add(off, 8); err != nil {
					return err
				}
				v := r.Uint64()
				p.Store64(off, v)
				want[off] = v
			}
			return nil
		})
		if err != nil {
			return false
		}
		crash := pmem.FromImage("crash", p.Snapshot())
		if _, err := Open(crash); err != nil {
			return false
		}
		for off, v := range want {
			if crash.Load64(off) != v {
				t.Logf("committed value at %#x lost", off)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocFreeProperty: random interleavings of atomic allocations and
// frees never hand out overlapping blocks and always restore free space
// (property-based allocator invariant).
func TestAllocFreeProperty(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := pmem.New("prop", 1<<20)
		po, err := Create(p, 64, nil)
		if err != nil {
			return false
		}
		initialFree := po.FreeBlocks()
		type alloc struct{ off, size uint64 }
		var live []alloc
		overlaps := func(a, b alloc) bool {
			return a.off < b.off+b.size && b.off < a.off+a.size
		}
		for i := 0; i < int(nOps); i++ {
			if r.Intn(3) != 0 || len(live) == 0 {
				size := uint64(r.Intn(300)) + 1
				off, err := po.AllocAtomic(size, nil)
				if err != nil {
					return false
				}
				na := alloc{off, size}
				for _, l := range live {
					if overlaps(na, l) {
						t.Logf("allocation [%#x,+%d) overlaps [%#x,+%d)", na.off, na.size, l.off, l.size)
						return false
					}
				}
				live = append(live, na)
			} else {
				i := r.Intn(len(live))
				if err := po.FreeAtomic(live[i].off); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		for _, l := range live {
			if err := po.FreeAtomic(l.off); err != nil {
				return false
			}
		}
		return po.FreeBlocks() == initialFree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// blockMapMatches reports where the volatile view of the block map differs
// from the persistent block map, or nil.
func blockMapMatches(po *Pool) error {
	m := make([]byte, po.nblocks)
	po.p.Peek(po.blkmap, m)
	if len(po.used) != len(m) {
		return fmt.Errorf("volatile view has %d blocks, block map %d", len(po.used), len(m))
	}
	for i := range m {
		if po.used[i] != m[i] {
			return fmt.Errorf("block %d: volatile %d, block map %d", i, po.used[i], m[i])
		}
	}
	return nil
}

// crashOpener is a pool sink that, at every fence of the traced run — the
// failure points detection injects — opens a crash image of the pool,
// recovery included, and checks the opened pool's volatile view.
type crashOpener struct {
	p      *pmem.Pool
	opened int
	err    error
}

func (c *crashOpener) Record(e trace.Entry) {
	if e.Kind != trace.SFence || c.err != nil {
		return
	}
	po, err := Open(pmem.FromImage("crash", c.p.Snapshot()))
	if err != nil {
		return // a crash inside Create: no valid pool yet
	}
	c.opened++
	if err := blockMapMatches(po); err != nil {
		c.err = fmt.Errorf("opened crash image %d: %v", c.opened, err)
	}
}

var errAbortForTest = errors.New("abort")

// TestVolatileMapMatchesBlockMap: outside a transaction, the allocator's
// volatile view equals the persistent block map after Create, after each
// atomic allocation and free, after each committed and each aborted
// transaction, and after Open (recovery included) of a crash image taken at
// every failure point of the run. Inside a transaction the two differ by
// design: blocks it frees stay used in the view until commit.
func TestVolatileMapMatchesBlockMap(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := pmem.New("prop", 64<<10)
		crashes := &crashOpener{p: p}
		p.SetSink(crashes)
		po, err := Create(p, 64, &Options{TxLogSize: 4 << 10})
		if err != nil {
			t.Log(err)
			return false
		}
		ok := func(when string) bool {
			if err := blockMapMatches(po); err != nil {
				t.Logf("seed %d, %s: %v", seed, when, err)
				return false
			}
			return true
		}
		if !ok("after Create") {
			return false
		}
		var live []uint64
		for i := 0; i < int(nOps%40)+1; i++ {
			switch r.Intn(3) {
			case 0:
				off, err := po.AllocAtomic(uint64(r.Intn(300))+1, nil)
				if errors.Is(err, ErrOutOfMemory) {
					continue
				}
				if err != nil {
					t.Log(err)
					return false
				}
				live = append(live, off)
				if !ok("after AllocAtomic") {
					return false
				}
			case 1:
				if len(live) == 0 {
					continue
				}
				j := r.Intn(len(live))
				if err := po.FreeAtomic(live[j]); err != nil {
					t.Log(err)
					return false
				}
				live = append(live[:j], live[j+1:]...)
				if !ok("after FreeAtomic") {
					return false
				}
			case 2:
				abort := r.Intn(3) == 0
				next := append([]uint64(nil), live...)
				err := po.Tx(func(tx *Tx) error {
					for k := r.Intn(4) + 1; k > 0; k-- {
						switch op := r.Intn(3); {
						case op == 0:
							off, err := tx.Alloc(uint64(r.Intn(200)) + 1)
							if err != nil {
								return err
							}
							next = append(next, off)
						case op == 1 && len(next) > 0:
							j := r.Intn(len(next))
							if err := tx.Free(next[j]); err != nil {
								return err
							}
							next = append(next[:j], next[j+1:]...)
						default:
							if err := tx.Add(po.Root(), 8); err != nil {
								return err
							}
							p.Store64(po.Root(), r.Uint64())
						}
					}
					if abort {
						return errAbortForTest
					}
					return nil
				})
				switch {
				case err == nil:
					live = next
					if !ok("after a committed Tx") {
						return false
					}
				case errors.Is(err, errAbortForTest), errors.Is(err, ErrOutOfMemory), errors.Is(err, ErrTxLogFull):
					if !ok("after an aborted Tx") {
						return false
					}
				default:
					t.Log(err)
					return false
				}
			}
		}
		if crashes.err != nil {
			t.Logf("seed %d: %v", seed, crashes.err)
			return false
		}
		return crashes.opened > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
