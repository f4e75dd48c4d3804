package shadow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pmemgo/xfdetector/internal/trace"
)

func apply(s *PM, k trace.Kind, addr, size uint64) {
	s.Apply(trace.Entry{Kind: k, Addr: addr, Size: size, IP: "t.go:1"})
}

// TestPersistenceFSM walks the Fig. 9 state machine.
func TestPersistenceFSM(t *testing.T) {
	s := NewPM(4096)
	if s.State(100) != Unmodified {
		t.Fatal("initial state not U")
	}
	apply(s, trace.Write, 100, 8)
	if s.State(100) != Modified {
		t.Fatalf("after WRITE: %v", s.State(100))
	}
	apply(s, trace.SFence, 0, 0)
	if s.State(100) != Modified {
		t.Fatal("SFENCE without CLWB must not persist")
	}
	apply(s, trace.CLWB, 64, 64)
	if s.State(100) != WritebackPending {
		t.Fatalf("after CLWB: %v", s.State(100))
	}
	apply(s, trace.Write, 100, 8) // write again before the fence
	if s.State(100) != Modified {
		t.Fatal("re-dirtied byte must be M again")
	}
	apply(s, trace.CLWB, 64, 64)
	apply(s, trace.SFence, 0, 0)
	if s.State(100) != Persisted {
		t.Fatalf("after CLWB;SFENCE: %v", s.State(100))
	}
	if s.PersistEpoch(100) == 0 {
		t.Fatal("persist epoch unset")
	}
	apply(s, trace.Write, 100, 8)
	if s.State(100) != Modified {
		t.Fatal("P -> M on write")
	}
}

// TestFSMStateStrings covers the U/M/W/P codes.
func TestFSMStateStrings(t *testing.T) {
	want := map[PersistState]string{Unmodified: "U", Modified: "M", WritebackPending: "W", Persisted: "P"}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("%v.String() = %q", st, st.String())
		}
	}
}

// TestNTStoreSkipsCache: NT stores are immediately writeback-pending.
func TestNTStoreSkipsCache(t *testing.T) {
	s := NewPM(4096)
	apply(s, trace.NTStore, 128, 16)
	if s.State(128) != WritebackPending {
		t.Fatalf("after NTSTORE: %v", s.State(128))
	}
	apply(s, trace.SFence, 0, 0)
	if s.State(128) != Persisted {
		t.Fatalf("after NTSTORE;SFENCE: %v", s.State(128))
	}
}

// TestFlushIsLineGranular: flushing one byte persists its whole line's
// modified bytes, and nothing beyond.
func TestFlushIsLineGranular(t *testing.T) {
	s := NewPM(4096)
	apply(s, trace.Write, 10, 1)
	apply(s, trace.Write, 60, 1)
	apply(s, trace.Write, 70, 1) // next line
	s.Apply(trace.Entry{Kind: trace.CLWB, Addr: 0, Size: 64})
	apply(s, trace.SFence, 0, 0)
	if s.State(10) != Persisted || s.State(60) != Persisted {
		t.Fatal("same-line bytes must persist together")
	}
	if s.State(70) != Modified {
		t.Fatal("other-line byte must stay modified")
	}
}

// TestRedundantFlushReported covers the Fig. 9 yellow edges.
func TestRedundantFlushReported(t *testing.T) {
	s := NewPM(4096)
	var bugs []PerfBug
	s.SetPerfBugHandler(func(b PerfBug) { bugs = append(bugs, b) })

	apply(s, trace.CLWB, 0, 8) // nothing modified: redundant
	if len(bugs) != 1 || bugs[0].Kind != RedundantFlush {
		t.Fatalf("bugs = %v", bugs)
	}
	apply(s, trace.Write, 0, 8)
	apply(s, trace.CLWB, 0, 8) // useful
	apply(s, trace.CLWB, 0, 8) // W -> W: redundant
	if len(bugs) != 2 {
		t.Fatalf("bugs = %v", bugs)
	}
	apply(s, trace.SFence, 0, 0)
	apply(s, trace.CLWB, 0, 8) // P -> P: redundant
	if len(bugs) != 3 {
		t.Fatalf("bugs = %v", bugs)
	}
}

// TestDuplicateTxAdd covers explicit duplicate adds and the TX_ALLOC
// exemption.
func TestDuplicateTxAdd(t *testing.T) {
	s := NewPM(4096)
	var bugs []PerfBug
	s.SetPerfBugHandler(func(b PerfBug) { bugs = append(bugs, b) })

	apply(s, trace.TxBegin, 0, 0)
	apply(s, trace.TxAlloc, 0, 64)
	apply(s, trace.TxAdd, 0, 64) // adding a fresh allocation is fine
	if len(bugs) != 0 {
		t.Fatalf("alloc+add flagged: %v", bugs)
	}
	apply(s, trace.TxAdd, 0, 32) // repeat of an explicit add: bug
	if len(bugs) != 1 || bugs[0].Kind != DuplicateTxAdd {
		t.Fatalf("bugs = %v", bugs)
	}
	apply(s, trace.TxCommit, 0, 0)
	// A new transaction adding the same range is not a duplicate.
	apply(s, trace.TxBegin, 0, 0)
	apply(s, trace.TxAdd, 0, 64)
	if len(bugs) != 1 {
		t.Fatalf("cross-tx add flagged: %v", bugs)
	}
}

// TestTxProtectionLifecycle: TX_ADD protects through the transaction and
// ends at commit.
func TestTxProtectionLifecycle(t *testing.T) {
	s := NewPM(4096)
	apply(s, trace.TxBegin, 0, 0)
	apply(s, trace.TxAdd, 128, 64)
	apply(s, trace.Write, 128, 8)
	if !s.TxProtected(128) {
		t.Fatal("added+written byte lost protection")
	}
	apply(s, trace.Write, 256, 8) // in-tx write without add
	if s.TxProtected(256) {
		t.Fatal("unadded byte must not be protected")
	}
	apply(s, trace.TxCommit, 0, 0)
	if s.TxProtected(128) {
		t.Fatal("protection must end at commit")
	}
	c := s.BeginPostCheck()
	if f := c.OnRead(128, 8); len(f) == 0 || f[0].Class != ClassRace {
		t.Fatalf("unflushed committed data not a race: %v", f)
	}
}

// TestPostCheckerBasics covers the check order's plain buckets.
func TestPostCheckerBasics(t *testing.T) {
	s := NewPM(4096)
	// never-written byte: OK.
	c := s.BeginPostCheck()
	if f := c.OnRead(500, 8); len(f) != 0 {
		t.Fatalf("unwritten read flagged: %v", f)
	}
	// modified, unpersisted: race with the writer location.
	apply(s, trace.Write, 0, 8)
	c = s.BeginPostCheck()
	f := c.OnRead(0, 8)
	if len(f) != 1 || f[0].Class != ClassRace || f[0].WriterIP != "t.go:1" || f[0].Size != 8 {
		t.Fatalf("findings = %v", f)
	}
	// persisted: OK.
	apply(s, trace.CLWB, 0, 8)
	apply(s, trace.SFence, 0, 0)
	c = s.BeginPostCheck()
	if f := c.OnRead(0, 8); len(f) != 0 {
		t.Fatalf("persisted read flagged: %v", f)
	}
}

// TestPostWriteOverlay: post-failure writes make subsequent reads safe.
func TestPostWriteOverlay(t *testing.T) {
	s := NewPM(4096)
	apply(s, trace.Write, 0, 8)
	c := s.BeginPostCheck()
	c.OnWrite(0, 8)
	if f := c.OnRead(0, 8); len(f) != 0 {
		t.Fatalf("overwritten read flagged: %v", f)
	}
	// The overlay is per failure point.
	c2 := s.BeginPostCheck()
	if f := c2.OnRead(0, 8); len(f) != 1 {
		t.Fatalf("fresh checker inherited overlay: %v", f)
	}
}

// TestFirstReadOnlyOptimization: re-reads within one post-failure run are
// skipped (same result as the first check).
func TestFirstReadOnlyOptimization(t *testing.T) {
	s := NewPM(4096)
	apply(s, trace.Write, 0, 8)
	c := s.BeginPostCheck()
	if f := c.OnRead(0, 8); len(f) != 1 {
		t.Fatal("first read must be checked")
	}
	if f := c.OnRead(0, 8); len(f) != 0 {
		t.Fatal("second read must be skipped")
	}
}

// TestCommitVarBenign: reads of registered commit variables are benign.
func TestCommitVarBenign(t *testing.T) {
	s := NewPM(4096)
	s.Apply(trace.Entry{Kind: trace.RegCommitVar, Addr: 64, Size: 8})
	apply(s, trace.Write, 64, 8) // unpersisted commit-variable write
	c := s.BeginPostCheck()
	if f := c.OnRead(64, 8); len(f) != 0 {
		t.Fatalf("commit variable read flagged: %v", f)
	}
	if c.Benign != 8 {
		t.Fatalf("benign bytes = %d", c.Benign)
	}
}

// TestEq3Semantics reproduces the Fig. 11 epoch arithmetic directly on the
// shadow.
func TestEq3Semantics(t *testing.T) {
	s := NewPM(4096)
	s.Apply(trace.Entry{Kind: trace.RegCommitRange, Addr: 0, Size: 8, Addr2: 128, Size2: 64})

	// backup and commit variable persisted by the same fence: the backup
	// is semantically inconsistent (Fig. 11 F2).
	apply(s, trace.Write, 128, 8) // backup
	apply(s, trace.Write, 0, 8)   // commit write
	apply(s, trace.CLWB, 0, 8)
	apply(s, trace.CLWB, 128, 8)
	apply(s, trace.SFence, 0, 0)
	c := s.BeginPostCheck()
	f := c.OnRead(128, 8)
	if len(f) != 1 || f[0].Class != ClassSemantic {
		t.Fatalf("same-epoch commit: %v", f)
	}

	// Properly ordered: backup persists strictly before the commit write,
	// previous commit strictly before the backup write.
	apply(s, trace.Write, 128, 8)
	apply(s, trace.CLWB, 128, 8)
	apply(s, trace.SFence, 0, 0)
	apply(s, trace.Write, 0, 8)
	apply(s, trace.CLWB, 0, 8)
	apply(s, trace.SFence, 0, 0)
	c = s.BeginPostCheck()
	if f := c.OnRead(128, 8); len(f) != 0 {
		t.Fatalf("ordered commit flagged: %v", f)
	}

	// Stale: modified before the previous commit write.
	apply(s, trace.Write, 0, 8)
	apply(s, trace.CLWB, 0, 8)
	apply(s, trace.SFence, 0, 0)
	c = s.BeginPostCheck()
	if f := c.OnRead(128, 8); len(f) != 1 || f[0].Class != ClassSemantic {
		t.Fatalf("stale version not flagged: %v", f)
	}
}

// TestAtomicAllocMarksUnknown: allocation content is
// modified-but-unpersisted until initialized (the Bug 2 model).
func TestAtomicAllocMarksUnknown(t *testing.T) {
	s := NewPM(4096)
	apply(s, trace.AtomicAlloc, 256, 64)
	c := s.BeginPostCheck()
	if f := c.OnRead(256, 8); len(f) != 1 || f[0].Class != ClassRace {
		t.Fatalf("alloc read not a race: %v", f)
	}
}

// TestFindingCoalescing: adjacent bytes with one writer collapse into one
// finding; distinct writers split.
func TestFindingCoalescing(t *testing.T) {
	s := NewPM(4096)
	s.Apply(trace.Entry{Kind: trace.Write, Addr: 0, Size: 8, IP: "w1"})
	s.Apply(trace.Entry{Kind: trace.Write, Addr: 8, Size: 8, IP: "w2"})
	c := s.BeginPostCheck()
	f := c.OnRead(0, 16)
	if len(f) != 2 || f[0].WriterIP != "w1" || f[1].WriterIP != "w2" {
		t.Fatalf("findings = %v", f)
	}
	if f[0].Size != 8 || f[1].Size != 8 {
		t.Fatalf("sizes = %d, %d", f[0].Size, f[1].Size)
	}
}

// TestClipOutOfRange: out-of-pool applies are clipped, not panics (the
// backend must survive arbitrary traces).
func TestClipOutOfRange(t *testing.T) {
	s := NewPM(128)
	apply(s, trace.Write, 120, 64) // clipped to [120, 128)
	apply(s, trace.Write, 4096, 8) // fully out: ignored
	if s.State(127) != Modified {
		t.Fatal("clipped write lost")
	}
	c := s.BeginPostCheck()
	if f := c.OnRead(4096, 8); len(f) != 0 {
		t.Fatalf("out-of-range read flagged: %v", f)
	}
}

// TestInvariantsProperty drives the shadow with random operation sequences
// and checks global invariants after every step (property-based):
//
//  1. persisted bytes have a persist epoch in (0, clock];
//  2. written bytes have a write epoch in (0, clock];
//  3. immediately after an SFence no byte is writeback-pending;
//  4. unwritten bytes stay Unmodified forever.
func TestInvariantsProperty(t *testing.T) {
	const size = 1024
	f := func(seed int64, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewPM(size)
		touched := make([]bool, size)
		inTx := false
		for i := 0; i < int(steps); i++ {
			addr := r.Uint64() % (size - 8)
			switch r.Intn(8) {
			case 0, 1, 2:
				apply(s, trace.Write, addr, 8)
				for b := addr; b < addr+8; b++ {
					touched[b] = true
				}
			case 3:
				apply(s, trace.CLWB, addr, 8)
			case 4:
				apply(s, trace.SFence, 0, 0)
				for b := uint64(0); b < size; b++ {
					if s.State(b) == WritebackPending {
						t.Logf("byte %d pending after fence", b)
						return false
					}
				}
			case 5:
				if !inTx {
					apply(s, trace.TxBegin, 0, 0)
					inTx = true
				} else {
					apply(s, trace.TxCommit, 0, 0)
					inTx = false
				}
			case 6:
				if inTx {
					apply(s, trace.TxAdd, addr, 8)
				}
			case 7:
				apply(s, trace.NTStore, addr, 8)
				for b := addr; b < addr+8; b++ {
					touched[b] = true
				}
			}
			for b := uint64(0); b < size; b += 37 { // sampled invariant check
				st := s.State(b)
				if st == Persisted && (s.PersistEpoch(b) == 0 || s.PersistEpoch(b) > s.Clock()) {
					return false
				}
				if st != Unmodified && s.WriteEpoch(b) == 0 && st != Persisted {
					return false
				}
				if !touched[b] && st != Unmodified {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPersistedImpliesSafeProperty: any byte driven through
// write→CLWB→SFENCE (in any interleaving with other bytes) is never
// reported by a fresh post check (property-based soundness of the
// check order for persisted data with no commit semantics).
func TestPersistedImpliesSafeProperty(t *testing.T) {
	const size = 512
	f := func(seed int64, writes uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewPM(size)
		var addrs []uint64
		for i := 0; i < int(writes%20)+1; i++ {
			addr := r.Uint64() % (size - 8)
			apply(s, trace.Write, addr, 8)
			apply(s, trace.CLWB, addr, 8)
			addrs = append(addrs, addr)
		}
		apply(s, trace.SFence, 0, 0)
		c := s.BeginPostCheck()
		for _, a := range addrs {
			if f := c.OnRead(a, 8); len(f) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
