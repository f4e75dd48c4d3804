package shadow

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/pmemgo/xfdetector/internal/trace"
)

// fpTestPool spans three full pages plus a partial fourth, so ranges
// straddle page boundaries and the pool's tail line is short of a page.
const fpTestPool = 3*pageBytes + 192

// byteMeta reads one byte's fingerprint inputs straight from its page.
func byteMeta(s *PM, b uint64) (PersistState, uint32, uint32, bool, uint32) {
	pg := s.pages[b>>pageShift]
	if pg == nil {
		return Unmodified, 0, 0, false, 0
	}
	i := b & pageMask
	return pg.state[i], pg.writeEpoch[i], pg.persistEpoch[i], pg.txSafe[i], pg.writerIdx[i]
}

// refBucket is byte b's bucket by the per-byte order, with the geometry
// lookups for every byte, and its writer: the reference for both line
// paths of lineHash and of OnRead.
func refBucket(s *PM, b uint64) (uint8, uint32) {
	st, we, pe, tx, w := byteMeta(s, b)
	return s.byteBucket(b, st, we, pe, tx), w
}

// refFingerprint recomputes the crash-state fingerprint from scratch: it
// reads only per-byte metadata — no line cache, no page hash, no slot
// bitmap — and folds it with the documented structure (64 symbols per
// line, 64 line hashes per page, non-empty pages tagged by slot, then the
// commit-variable geometry).
func refFingerprint(s *PM) uint64 {
	h := uint64(fnvOffset)
	for pi := 0; pi < numPages(s.size); pi++ {
		ph := uint64(fnvOffset)
		written := false
		for l := 0; l < pageLines; l++ {
			lh := uint64(fnvOffset)
			for i := 0; i < lineBytes; i++ {
				b := uint64(pi)<<pageShift + uint64(l*lineBytes+i)
				var sym uint64
				if b < s.size {
					if bk, w := refBucket(s, b); bk != bucketUnwritten {
						sym = symbol(bk, w)
						written = true
					}
				}
				lh = fnvMix(lh, sym)
			}
			ph = fnvMix(ph, lh)
		}
		if !written {
			continue
		}
		h = fnvMix(h, uint64(pi)+1)
		h = fnvMix(h, ph)
	}
	h = fnvMix(h, uint64(len(s.commitVars)))
	for _, cv := range s.commitVars {
		h = fnvMix(h, cv.addr)
		h = fnvMix(h, cv.size)
	}
	h = fnvMix(h, uint64(len(s.assocs)))
	for _, a := range s.assocs {
		h = fnvMix(h, uint64(a.varIdx))
		h = fnvMix(h, a.addr)
		h = fnvMix(h, a.size)
	}
	return h
}

// liveFork is a fork held open while its parent keeps advancing, with the
// fingerprint its parent had when it was taken.
type liveFork struct {
	pm   *PM
	want uint64
	step int
}

// checkFingerprintCache replays one random sequence into a shadow and, at
// every step, requires its cached CrashFingerprint to equal a from-scratch
// recompute. Along the way it forks the shadow and keeps the forks live —
// so later mutations privatize shared pages — and requires every fork to
// stay frozen at its capture; and it periodically swaps the shadow for its
// ReadState restoration, which must fingerprint identically and then
// carries on as the canonical shadow.
func checkFingerprintCache(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	s := NewPM(fpTestPool)
	var forks []liveFork
	release := func(f liveFork) error {
		defer f.pm.Release()
		if got := refFingerprint(f.pm); got != f.want {
			return fmt.Errorf("fork taken at step %d no longer fingerprints as captured: %016x, want %016x", f.step, got, f.want)
		}
		return nil
	}
	for step, e := range randomEntries(rng, 120, fpTestPool) {
		s.Apply(e)
		want := refFingerprint(s)
		if got := s.CrashFingerprint(); got != want {
			return fmt.Errorf("step %d (%v @%d+%d): cached fingerprint %016x, recompute %016x", step, e.Kind, e.Addr, e.Size, got, want)
		}
		switch rng.Intn(8) {
		case 0:
			forks = append(forks, liveFork{pm: s.Fork(), want: want, step: step})
		case 1:
			if len(forks) > 0 {
				i := rng.Intn(len(forks))
				if err := release(forks[i]); err != nil {
					return err
				}
				forks = append(forks[:i], forks[i+1:]...)
			}
		case 2:
			var buf bytes.Buffer
			if err := s.WriteState(&buf); err != nil {
				return err
			}
			restored, err := ReadState(&buf)
			if err != nil {
				return err
			}
			if got := restored.CrashFingerprint(); got != want {
				return fmt.Errorf("step %d: restored shadow fingerprints %016x, want %016x", step, got, want)
			}
			s = restored
		}
	}
	for _, f := range forks {
		if err := release(f); err != nil {
			return err
		}
	}
	return nil
}

// TestFingerprintCacheMatchesRecompute is the line cache's soundness
// property over live, forked and restored shadows; the seeded
// stale-fingerprint mutants prove the property has teeth.
func TestFingerprintCacheMatchesRecompute(t *testing.T) {
	seeds := int64(16)
	if raceEnabled {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		if err := checkFingerprintCache(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for _, mut := range []struct {
		name string
		set  func(bool)
	}{
		{"stale-line-fingerprint", SetStaleLineFingerprintForTest},
		{"stale-fence-fingerprint", SetStaleFenceFingerprintForTest},
	} {
		t.Run(mut.name, func(t *testing.T) {
			mut.set(true)
			defer mut.set(false)
			for seed := int64(0); seed < seeds; seed++ {
				if checkFingerprintCache(seed) != nil {
					return
				}
			}
			t.Fatalf("%s went undetected on all %d seeds", mut.name, seeds)
		})
	}
}

// TestFingerprintCacheWithConcurrentForkReaders keeps forks live on another
// goroutine — post-failure reads privatizing pages, from-scratch
// fingerprints of the frozen state — while the canonical shadow re-dirties
// lines of the pages they share and fingerprints itself. The line hashes
// of shared pages are canonical-thread state; under -race this proves no
// fork reads or writes them.
func TestFingerprintCacheWithConcurrentForkReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sp := NewPM(fpTestPool)
	// The buffer lets the canonical shadow run a few forks ahead of the
	// reader, so several forks share pages with it at once.
	work := make(chan liveFork, 4)
	errs := make(chan error, 1)
	go func() {
		var first error
		for f := range work {
			pc := f.pm.BeginPostCheck()
			for off := uint64(0); off < fpTestPool; off += 256 {
				pc.OnRead(off, 64)
				pc.OnWrite(off+128, 8)
			}
			if got := refFingerprint(f.pm); got != f.want && first == nil {
				first = fmt.Errorf("fork taken at step %d fingerprints %016x on its reader, want %016x", f.step, got, f.want)
			}
			f.pm.Release()
		}
		errs <- first
	}()
	for step, e := range randomEntries(rng, 600, fpTestPool) {
		sp.Apply(e)
		got := sp.CrashFingerprint()
		if step%3 == 0 {
			work <- liveFork{pm: sp.Fork(), want: got, step: step}
		}
	}
	close(work)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if got, want := sp.CrashFingerprint(), refFingerprint(sp); got != want {
		t.Fatalf("canonical cached fingerprint %016x, recompute %016x", got, want)
	}
}

// persistPages writes, flushes and fences pages [0, n) whole, then takes a
// fingerprint, so every line and page hash of them is cached.
func persistPages(t *testing.T, s *PM, n int) {
	t.Helper()
	for pg := 0; pg < n; pg++ {
		base := uint64(pg) << pageShift
		apply(s, trace.Write, base, pageBytes)
		apply(s, trace.CLWB, base, pageBytes)
	}
	apply(s, trace.SFence, 0, 0)
	requireFreshFingerprint(t, s, "after persisting the pages")
}

// requireFreshFingerprint requires the cached fingerprint to equal a
// from-scratch recompute.
func requireFreshFingerprint(t *testing.T, s *PM, when string) {
	t.Helper()
	if got, want := s.CrashFingerprint(), refFingerprint(s); got != want {
		t.Fatalf("%s: cached fingerprint %016x, recompute %016x", when, got, want)
	}
}

// TestLateCommitVarInvalidatesLineHashes: registering a commit variable
// over bytes whose line hashes are already cached turns them into commit
// variable bytes (bucketCommitVar) without any store to them, so the
// registration itself must invalidate the cached hashes.
func TestLateCommitVarInvalidatesLineHashes(t *testing.T) {
	s := NewPM(4 << pageShift)
	persistPages(t, s, 4)
	s.Apply(trace.Entry{Kind: trace.RegCommitVar, Addr: 3*pageBytes + 8, Size: 8})
	requireFreshFingerprint(t, s, "after registering the commit variable")
}

// TestLateCommitRangeInvalidatesLineHashes: associating bytes that
// persisted after their commit variable's last write makes them
// semantically inconsistent (bucketSemantic) without any store to them,
// so the association itself must invalidate their cached hashes.
func TestLateCommitRangeInvalidatesLineHashes(t *testing.T) {
	s := NewPM(4 << pageShift)
	persistPages(t, s, 4)
	const cvAddr = 3*pageBytes + 8
	s.Apply(trace.Entry{Kind: trace.RegCommitVar, Addr: cvAddr, Size: 8})
	apply(s, trace.Write, cvAddr, 8)
	apply(s, trace.CLWB, cvAddr, 8)
	apply(s, trace.SFence, 0, 0)
	// The guarded data persists after the commit write that should have
	// followed it, then joins the variable's associated set.
	apply(s, trace.Write, pageBytes, 128)
	apply(s, trace.CLWB, pageBytes, 128)
	apply(s, trace.SFence, 0, 0)
	requireFreshFingerprint(t, s, "before the association")
	s.Apply(trace.Entry{Kind: trace.RegCommitRange, Addr: cvAddr, Size: 8, Addr2: pageBytes, Size2: 128})
	requireFreshFingerprint(t, s, "after associating the range")
}

// checkerClass is the class a fresh post-failure check reports for a read
// of byte b alone.
func checkerClass(s *PM, b uint64) Class {
	c := s.BeginPostCheck()
	f := c.OnRead(b, 1)
	switch {
	case len(f) == 1:
		return f[0].Class
	case c.Benign == 1:
		return ClassBenign
	}
	return ClassOK
}

// checkAgreement requires every written byte of s to classify as the
// bucket the fingerprint folds for it: read alone by a fresh PostChecker,
// and inside one read of the whole pool, which crosses every line with
// and without commit geometry.
func checkAgreement(s *PM) error {
	want := make([]Class, s.size)
	benign := uint64(0)
	for b := uint64(0); b < s.size; b++ {
		bk, _ := refBucket(s, b)
		want[b] = bucketClass[bk]
		if bk == bucketUnwritten {
			continue
		}
		if got := checkerClass(s, b); got != want[b] {
			return fmt.Errorf("byte %d in bucket %d: OnRead(%d, 1) reports %v, want %v", b, bk, b, got, want[b])
		}
		if want[b] == ClassBenign {
			benign++
		}
	}
	got := make([]Class, s.size)
	c := s.BeginPostCheck()
	for _, f := range c.OnRead(0, s.size) {
		for b := f.Addr; b < f.Addr+f.Size; b++ {
			got[b] = f.Class
		}
	}
	for b := range got {
		if w := want[b]; got[b] != w && !(w == ClassBenign && got[b] == ClassOK) {
			return fmt.Errorf("byte %d: the whole-pool read reports %v, want %v", b, got[b], w)
		}
	}
	if c.Benign != benign {
		return fmt.Errorf("the whole-pool read counts %d benign bytes, want %d", c.Benign, benign)
	}
	return nil
}

// TestCheckerAgreesWithFingerprint: over the random states randomEntries
// builds — commit variables, associated ranges, TX_ADDs and fences among
// them — the post-failure checker classifies every written byte as the
// bucket the crash-state fingerprint folds for it, at every step. Pruning
// is sound only while the fingerprint merges exactly the states the
// checker cannot tell apart; TestCheckOrder pins the order both share.
func TestCheckerAgreesWithFingerprint(t *testing.T) {
	seeds := int64(16)
	if raceEnabled {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewPM(fpTestPool)
		for step, e := range randomEntries(rng, 120, fpTestPool) {
			s.Apply(e)
			if err := checkAgreement(s); err != nil {
				t.Fatalf("seed %d, step %d (%v @%d+%d): %v", seed, step, e.Kind, e.Addr, e.Size, err)
			}
		}
	}
}

// TestCheckOrder pins the §5.4 check order: each case's byte must classify
// as its Class and fold as its fingerprint symbol (bucket<<32 | writer; the
// one writer here is index 1). The commit variable is [64, 72) and guards
// [128, 192).
func TestCheckOrder(t *testing.T) {
	const cv, data, plain = 64, 128, 256
	guard := trace.Entry{Kind: trace.RegCommitRange, Addr: cv, Size: 8, Addr2: data, Size2: 64}
	e := func(k trace.Kind, addr, size uint64) trace.Entry {
		return trace.Entry{Kind: k, Addr: addr, Size: size, IP: "t.go:1"}
	}
	persist := func(addr uint64) []trace.Entry {
		return []trace.Entry{e(trace.CLWB, addr, 8), {Kind: trace.SFence}}
	}
	cat := func(parts ...[]trace.Entry) (out []trace.Entry) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		entries []trace.Entry
		b       uint64
		class   Class
		sym     uint64
	}{
		{"never written", nil, plain, ClassOK, 0},
		{"commit variable, TX-protected",
			[]trace.Entry{guard, {Kind: trace.TxBegin}, e(trace.TxAdd, cv, 8), e(trace.Write, cv, 8)},
			cv, ClassBenign, 1<<32 | 1},
		{"guarded data before its variable's first commit write",
			cat([]trace.Entry{guard, e(trace.Write, data, 8)}, persist(data)),
			data, ClassOK, 6<<32 | 1},
		{"TX-protected",
			[]trace.Entry{{Kind: trace.TxBegin}, e(trace.TxAdd, plain, 8), e(trace.Write, plain, 8)},
			plain, ClassOK, 2<<32 | 1},
		{"guarded data, TX-protected, Eq. 3 failing",
			[]trace.Entry{guard, {Kind: trace.TxBegin}, e(trace.TxAdd, data, 8), e(trace.Write, data, 8),
				e(trace.Write, cv, 8), e(trace.CLWB, data, 8), e(trace.CLWB, cv, 8), {Kind: trace.SFence}},
			data, ClassOK, 2<<32 | 1},
		{"Modified", []trace.Entry{e(trace.Write, plain, 8)}, plain, ClassRace, 4<<32 | 1},
		{"WritebackPending",
			[]trace.Entry{e(trace.Write, plain, 8), e(trace.CLWB, plain, 8)},
			plain, ClassRace, 5<<32 | 1},
		{"guarded data WritebackPending, Eq. 3 failing",
			[]trace.Entry{guard, e(trace.Write, data, 8), e(trace.Write, cv, 8), e(trace.CLWB, data, 8)},
			data, ClassRace, 5<<32 | 1},
		{"Persisted", cat([]trace.Entry{e(trace.Write, plain, 8)}, persist(plain)), plain, ClassOK, 6<<32 | 1},
		{"Persisted, Eq. 3 holding",
			cat([]trace.Entry{guard, e(trace.Write, data, 8)}, persist(data),
				[]trace.Entry{e(trace.Write, cv, 8)}, persist(cv)),
			data, ClassOK, 6<<32 | 1},
		{"Persisted, Eq. 3 failing",
			[]trace.Entry{guard, e(trace.Write, data, 8), e(trace.Write, cv, 8),
				e(trace.CLWB, data, 8), e(trace.CLWB, cv, 8), {Kind: trace.SFence}},
			data, ClassSemantic, 7<<32 | 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewPM(4096)
			for _, en := range tc.entries {
				s.Apply(en)
			}
			if got := checkerClass(s, tc.b); got != tc.class {
				t.Errorf("OnRead(%d, 1) reports %v, want %v", tc.b, got, tc.class)
			}
			if bk, w := refBucket(s, tc.b); symbol(bk, w) != tc.sym {
				t.Errorf("symbol %#x, want %#x", symbol(bk, w), tc.sym)
			}
			requireFreshFingerprint(t, s, "after the case's entries")
		})
	}
}
