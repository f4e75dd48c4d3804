package shadow

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/pmemgo/xfdetector/internal/trace"
)

// TestForkFrozenAtCapture: a fork must keep observing the shadow exactly
// as it was at Fork time while the parent keeps replaying.
func TestForkFrozenAtCapture(t *testing.T) {
	s := NewPM(1 << 16)
	apply(s, trace.Write, 0, 64)
	apply(s, trace.CLWB, 0, 64)
	apply(s, trace.Write, 4096, 8) // second page, never persisted

	f := s.Fork()
	defer f.Release()

	// Parent advances past the failure point: the flushed line persists
	// and the second page gets overwritten and persisted too.
	apply(s, trace.SFence, 0, 0)
	apply(s, trace.Write, 4096, 8)
	apply(s, trace.CLWB, 4096, 8)
	apply(s, trace.SFence, 0, 0)

	if got := s.State(0); got != Persisted {
		t.Fatalf("parent state(0) = %v, want P", got)
	}
	if got := f.State(0); got != WritebackPending {
		t.Fatalf("fork state(0) = %v, want W (frozen pre-fence)", got)
	}
	if got := f.State(4096); got != Modified {
		t.Fatalf("fork state(4096) = %v, want M", got)
	}
	if f.Clock() == s.Clock() {
		t.Fatal("fork clock advanced with parent")
	}

	// The fork's post-failure checker sees the frozen state: both ranges
	// race (W and M are not guaranteed persisted)...
	ch := f.BeginPostCheck()
	if fs := ch.OnRead(0, 8); len(fs) != 1 || fs[0].Class != ClassRace {
		t.Fatalf("fork OnRead(0) = %+v, want one race", fs)
	}
	// ...while the parent's checker sees them persisted.
	pch := s.BeginPostCheck()
	if fs := pch.OnRead(0, 8); len(fs) != 0 {
		t.Fatalf("parent OnRead(0) = %+v, want clean", fs)
	}
	if fs := pch.OnRead(4096, 8); len(fs) != 0 {
		t.Fatalf("parent OnRead(4096) = %+v, want clean", fs)
	}
}

// TestForkScratchIsolation: post-check overlay and checked marks made
// through a fork must not leak into the parent or sibling forks.
func TestForkScratchIsolation(t *testing.T) {
	s := NewPM(1 << 14)
	apply(s, trace.Write, 100, 8)
	f1 := s.Fork()
	defer f1.Release()
	f2 := s.Fork()
	defer f2.Release()

	c1 := f1.BeginPostCheck()
	c1.OnWrite(100, 8) // overwrites the range: subsequent reads are safe
	if fs := c1.OnRead(100, 8); len(fs) != 0 {
		t.Fatalf("f1 read after post write = %+v, want clean", fs)
	}
	c2 := f2.BeginPostCheck()
	if fs := c2.OnRead(100, 8); len(fs) != 1 || fs[0].Class != ClassRace {
		t.Fatalf("f2 OnRead = %+v, want one race (no leaked overlay)", fs)
	}
	cp := s.BeginPostCheck()
	if fs := cp.OnRead(100, 8); len(fs) != 1 || fs[0].Class != ClassRace {
		t.Fatalf("parent OnRead = %+v, want one race (no leaked overlay)", fs)
	}
}

// TestForkCommitVarIsolation: commit-variable records are deep-copied into
// the fork — the parent mutates them in place at every store and fence.
func TestForkCommitVarIsolation(t *testing.T) {
	s := NewPM(1 << 14)
	s.Apply(trace.Entry{Kind: trace.RegCommitRange, Addr: 0, Size: 8, Addr2: 64, Size2: 8})
	// Guarded data persisted, then the first commit write, not yet fenced.
	apply(s, trace.Write, 64, 8)
	apply(s, trace.CLWB, 64, 8)
	apply(s, trace.SFence, 0, 0)
	apply(s, trace.Write, 0, 8)

	f := s.Fork()
	defer f.Release()

	// Parent: the commit write persists, then the data is re-modified and
	// re-persisted without a second commit write — semantically
	// inconsistent under Eq. 3 from the parent's vantage point.
	apply(s, trace.CLWB, 0, 8)
	apply(s, trace.SFence, 0, 0)
	apply(s, trace.Write, 64, 8)
	apply(s, trace.CLWB, 64, 8)
	apply(s, trace.SFence, 0, 0)

	fch := f.BeginPostCheck()
	if fs := fch.OnRead(64, 8); len(fs) != 0 {
		t.Fatalf("fork OnRead(64) = %+v, want clean (commit write unpersisted at fork)", fs)
	}
	sch := s.BeginPostCheck()
	if fs := sch.OnRead(64, 8); len(fs) != 1 || fs[0].Class != ClassSemantic {
		t.Fatalf("parent OnRead(64) = %+v, want one semantic bug", fs)
	}

	// Post-failure recovery re-registering commit variables must stay
	// local to the fork (idempotent here, but must not touch the parent).
	f.Apply(trace.Entry{Kind: trace.RegCommitVar, Addr: 0, Size: 8})
	if f.CommitVarCount() != 1 || s.CommitVarCount() != 1 {
		t.Fatalf("commit var counts = %d/%d, want 1/1", f.CommitVarCount(), s.CommitVarCount())
	}
}

// TestForkStatsAccounting: page refcounts and the shared Stats must track
// lazily allocated pages, COW clones, and fork release.
func TestForkStatsAccounting(t *testing.T) {
	s := NewPM(1 << 20) // 256 potential pages
	apply(s, trace.Write, 0, 8)
	apply(s, trace.Write, 4096, 8)
	if _, pages := s.MemStats(); pages != 2 {
		t.Fatalf("pages after two writes = %d, want 2 (lazy)", pages)
	}
	peakBefore, _ := s.MemStats()

	f := s.Fork()
	// Forking allocates nothing.
	if _, pages := s.MemStats(); pages != 2 {
		t.Fatalf("pages after fork = %d, want 2", pages)
	}
	// Parent write to a shared page privatizes it (one clone)...
	apply(s, trace.Write, 0, 8)
	if _, pages := s.MemStats(); pages != 3 {
		t.Fatalf("pages after COW write = %d, want 3", pages)
	}
	// ...and the peak now covers parent + fork.
	peakShared, _ := s.MemStats()
	if peakShared <= peakBefore {
		t.Fatalf("peak %d not above pre-clone peak %d", peakShared, peakBefore)
	}
	// Fresh parent pages are invisible to the fork.
	apply(s, trace.Write, 8192, 8)
	if got := f.State(8192); got != Unmodified {
		t.Fatalf("fork sees parent's post-fork page: %v", got)
	}
	f.Release()

	live := s.stats.live.Load()
	// After release the fork's original page 0 is freed; the parent holds
	// its clone of page 0, the shared page 1, and the fresh page 2.
	if want := 3 * pageFootprint; live != want {
		t.Fatalf("live bytes after release = %d, want %d", live, want)
	}
}

// TestMixedStateLineFencePath pins the semantics the lost-range-batch
// mutant breaks: a line flushed whole (full fast path) and then partially
// re-modified must keep its Modified bytes unpersisted across the fence.
func TestMixedStateLineFencePath(t *testing.T) {
	s := NewPM(4096)
	apply(s, trace.Write, 0, 64) // whole line
	apply(s, trace.CLWB, 0, 64)  // uniformly WritebackPending
	apply(s, trace.Write, 8, 8)  // re-modify: line is now mixed W/M
	apply(s, trace.SFence, 0, 0)
	if got := s.State(0); got != Persisted {
		t.Errorf("state(0) = %v, want P", got)
	}
	if got := s.State(8); got != Modified {
		t.Errorf("state(8) = %v, want M (not covered by the fence)", got)
	}
	if got := s.State(16); got != Persisted {
		t.Errorf("state(16) = %v, want P", got)
	}
}

// TestLostRangeBatchMutantFlipsMixedLine: with the mutation switch on, the
// fence mis-persists the re-modified bytes — the observable defect
// the differential suites must catch.
func TestLostRangeBatchMutantFlipsMixedLine(t *testing.T) {
	SetLostRangeBatchForTest(true)
	defer SetLostRangeBatchForTest(false)
	s := NewPM(4096)
	apply(s, trace.Write, 0, 64)
	apply(s, trace.CLWB, 0, 64)
	apply(s, trace.Write, 8, 8)
	apply(s, trace.SFence, 0, 0)
	if got := s.State(8); got != Persisted {
		t.Fatalf("mutant state(8) = %v, want the unsound P", got)
	}
}

// randomEntries generates a deterministic pseudo-random pre-failure
// workload over a small pool: stores, NT stores, flushes, fences,
// transactions (TX_ADD, transactional allocation, commit and abort),
// atomic allocations, commit-variable registrations and commit writes.
// Two thirds of the addresses fall near a few hot lines — page-straddling
// ones and the pool's tail — so lines are re-dirtied again and again and
// a stale fingerprint line hash surfaces within a few steps.
func randomEntries(rng *rand.Rand, n int, poolSize uint64) []trace.Entry {
	hot := []uint64{0, 60, 200, pageBytes - 40, pageBytes + 64, 2*pageBytes + 100, poolSize - 70}
	addr := func() uint64 {
		if rng.Intn(3) == 0 {
			return uint64(rng.Intn(int(poolSize)))
		}
		return hot[rng.Intn(len(hot))] + uint64(rng.Intn(16))
	}
	size := func() uint64 {
		if rng.Intn(4) == 0 {
			return uint64(1 + rng.Intn(300))
		}
		return uint64(1 + rng.Intn(16))
	}
	var vars []uint64
	var out []trace.Entry
	txDepth := 0
	for len(out) < n {
		ip := fmt.Sprintf("rnd.go:%d", rng.Intn(12))
		switch rng.Intn(15) {
		case 0, 1, 2:
			out = append(out, trace.Entry{Kind: trace.Write, Addr: addr(), Size: size(), IP: ip})
		case 3:
			out = append(out, trace.Entry{Kind: trace.NTStore, Addr: addr(), Size: size(), IP: ip})
		case 4:
			out = append(out, trace.Entry{Kind: trace.CLWB, Addr: addr(), Size: size(), IP: ip})
		case 5:
			out = append(out, trace.Entry{Kind: trace.CLFlush, Addr: addr(), Size: size(), IP: ip})
		case 6, 7:
			out = append(out, trace.Entry{Kind: trace.SFence})
		case 8:
			out = append(out, trace.Entry{Kind: trace.TxBegin})
			txDepth++
		case 9:
			kind := trace.TxAdd
			if rng.Intn(3) == 0 {
				kind = trace.TxAlloc
			}
			out = append(out, trace.Entry{Kind: kind, Addr: addr(), Size: size(), IP: ip})
		case 10:
			if txDepth > 0 {
				kind := trace.TxCommit
				if rng.Intn(3) == 0 {
					kind = trace.TxAbort
				}
				out = append(out, trace.Entry{Kind: kind})
				txDepth--
			}
		case 11:
			v := addr() &^ 7
			vars = append(vars, v)
			out = append(out, trace.Entry{Kind: trace.RegCommitVar, Addr: v, Size: 8})
		case 12:
			if len(vars) > 0 {
				out = append(out, trace.Entry{Kind: trace.RegCommitRange,
					Addr: vars[rng.Intn(len(vars))], Size: 8, Addr2: addr(), Size2: size()})
			}
		case 13:
			if len(vars) > 0 {
				out = append(out, trace.Entry{Kind: trace.CommitVarWrite,
					Addr: vars[rng.Intn(len(vars))], Size: 8, IP: ip})
			}
		case 14:
			out = append(out, trace.Entry{Kind: trace.AtomicAlloc, Addr: addr(), Size: size(), IP: ip})
		}
	}
	for ; txDepth > 0; txDepth-- {
		out = append(out, trace.Entry{Kind: trace.TxCommit})
	}
	return out
}
