package shadow

// Crash-state fingerprinting for representative-testing pruning.
//
// Two failure points whose shadow states classify every byte identically —
// and attribute it to the same pre-failure writer — produce the same
// post-failure verdict for any post-failure execution that branches only on
// classification-visible state, so the detection engine tests one
// representative per fingerprint class and attributes its verdict to the
// members (core's pruning layer; Pathfinder/WITCHER-style representative
// testing).
//
// CrashFingerprint therefore hashes, per byte, the post-failure check's
// *outcome space*: the symbol is the byte's bucket of the §5.4 order — the
// one definition PostChecker.OnRead classifies by (postcheck.go) — paired
// with its interned writer index. Raw epochs, data values, the pending-line
// bookkeeping and the transaction/scratch state are deliberately excluded:
// they either cannot influence a post-failure verdict or enter it only
// through the Eq. 3 outcome, which the bucket already encodes. This is what
// lets long runs of uniform update loops collapse into one class.
//
// The fingerprint has a fixed three-level structure: a 64-byte line hashes
// its 64 byte symbols, a 4 KiB page hashes its 64 line hashes, and the
// fingerprint folds the hashes of the non-empty pages, tagged with their
// slot index, followed by the commit-variable geometry. Each page caches
// one hash per line (page.lineHash, with one valid bit per line in
// page.lineValid) and the page hash while every line is valid. Each
// mutation path clears the bits of exactly the lines it touches — stores,
// flushes, fences, TX_ADD, transaction end, and commit-record updates — so
// a failure point re-hashes only the lines dirtied since the previous one
// plus one 64-word fold per dirtied page, and it visits only allocated
// page slots (PM.slots), never the whole pool. Commit-variable geometry
// (which addresses are commit variables or associated with one) is folded
// into the final fingerprint directly; registrations additionally
// invalidate the lines their ranges overlap, since the per-byte symbols
// under new geometry change bucket. A re-hashed line tests the geometry
// once: only a line some range overlaps looks it up per byte.
//
// The cache belongs to the thread advancing the canonical shadow. Forks
// share its pages but neither read nor maintain the cache fields, so they
// cannot be fingerprinted.

import "math/bits"

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvMix(h, v uint64) uint64 {
	h ^= v
	return h * fnvPrime
}

// allLines is a page's lineValid mask with every line hash cached.
const allLines = ^uint64(0)

// emptyPageHash is the hash of a page whose every byte has the zero symbol
// (writeEpoch 0). Pages hashing to it contribute nothing to a fingerprint,
// exactly like never-allocated pages, so a fingerprint depends on how bytes
// classify and not on which pages happen to be allocated.
var emptyPageHash = func() uint64 {
	var lines [pageLines]uint64
	for l := range lines {
		lines[l] = uniformLineHash(0)
	}
	return foldLines(&lines)
}()

// uniformLineHash is the hash of a line whose every byte has symbol sym.
func uniformLineHash(sym uint64) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < lineBytes; i++ {
		h = fnvMix(h, sym)
	}
	return h
}

// foldLines folds a page's line hashes into its page hash.
func foldLines(lines *[pageLines]uint64) uint64 {
	h := uint64(fnvOffset)
	for _, lh := range lines {
		h = fnvMix(h, lh)
	}
	return h
}

// collidingPageHash is the constant the colliding-fingerprint mutant
// substitutes for every non-empty page hash (mutation.go); distinct from
// emptyPageHash so allocated pages still differ from untouched ones.
const collidingPageHash = 0x9e3779b97f4a7c15

// symbol is a byte's fingerprint symbol: its bucket of the §5.4 order
// (postcheck.go) paired with its interned writer index. The writer is
// folded in because report identity (DedupKey) depends on the writer
// location: two states that classify alike but blame different writers must
// not share a class. A never-written byte has writer 0 (stores set its
// epoch and writer together), so its symbol is 0.
func symbol(bucket uint8, w uint32) uint64 {
	return uint64(bucket)<<32 | uint64(w)
}

// lineHash folds the symbols of the line starting at address base, whose
// metadata the slices hold. Commit geometry is tested once for the whole
// line: only a line some commit variable or associated range overlaps
// takes byteBucket's per-byte geometry lookups.
func (s *PM) lineHash(base uint64, st []PersistState, we, pe []uint32, txSafe []bool, w []uint32) uint64 {
	st, we, pe, txSafe, w = st[:lineBytes], we[:lineBytes], pe[:lineBytes], txSafe[:lineBytes], w[:lineBytes]
	h := uint64(fnvOffset)
	if s.geometryOverlaps(base, base+lineBytes) {
		for i := 0; i < lineBytes; i++ {
			h = fnvMix(h, symbol(s.byteBucket(base+uint64(i), st[i], we[i], pe[i], txSafe[i]), w[i]))
		}
		return h
	}
	for i := 0; i < lineBytes; i++ {
		h = fnvMix(h, symbol(plainBucket(st[i], we[i], txSafe[i]), w[i]))
	}
	return h
}

// pageHash returns the hash of one page. It re-hashes only the
// lines whose cached hash a mutation invalidated, and re-folds the page
// only when some line was.
func (s *PM) pageHash(pi int, pg *page) uint64 {
	if pg.lineValid == allLines {
		return pg.fpHash
	}
	base := uint64(pi) << pageShift
	for stale := ^pg.lineValid; stale != 0; stale &= stale - 1 {
		l := bits.TrailingZeros64(stale)
		lo, hi := l<<lineShift, (l+1)<<lineShift
		pg.lineHash[l] = s.lineHash(base+uint64(lo), pg.state[lo:hi], pg.writeEpoch[lo:hi],
			pg.persistEpoch[lo:hi], pg.txSafe[lo:hi], pg.writerIdx[lo:hi])
	}
	pg.lineValid = allLines
	pg.fpHash = foldLines(&pg.lineHash)
	return pg.fpHash
}

// CrashFingerprint returns the canonical crash-state fingerprint of the
// shadow's current trace position: a hash over the classification symbols
// of every touched page plus the commit-variable geometry. Equal
// fingerprints mean every byte classifies identically with an identical
// writer attribution. Call it on the canonical shadow, at a failure point,
// from the thread advancing the shadow; a fork panics.
func (s *PM) CrashFingerprint() uint64 {
	if s.forked {
		panic("shadow: CrashFingerprint on a fork")
	}
	h := uint64(fnvOffset)
	for wi, word := range s.slots {
		for ; word != 0; word &= word - 1 {
			pi := wi<<6 | bits.TrailingZeros64(word)
			h = foldPage(h, pi, s.pageHash(pi, s.pages[pi]))
		}
	}
	// Commit-variable geometry: registering a variable or an associated
	// range changes how bytes classify without touching any page, so the
	// geometry is part of the fingerprint. (The commit-write *records* enter
	// through the Eq. 3 outcomes in the page symbols; their mutations
	// invalidate the affected lines — see noteCommitWrites.)
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

// foldPage folds the hash of page slot pi into fingerprint h. An empty
// page folds nothing, exactly like a never-allocated one.
func foldPage(h uint64, pi int, ph uint64) uint64 {
	if ph == emptyPageHash {
		return h
	}
	if collidingFingerprintForTest {
		ph = collidingPageHash
	}
	h = fnvMix(h, uint64(pi)+1)
	return fnvMix(h, ph)
}

// invalidateLines drops the cached hashes of the lines overlapping the
// non-empty intra-page range [lo, hi), and with them the page hash. The
// seeded stale-fingerprint mutants (mutation.go) prove the differential
// suite catches a missing invalidation: a stuck page ignores it, and the
// stale-line mutant stops one line short of the range's end.
func (pg *page) invalidateLines(lo, hi int) {
	if pg.fpStuck {
		return
	}
	first, end := lo>>lineShift, (hi+lineBytes-1)>>lineShift
	if staleLineFingerprintForTest {
		end--
	}
	pg.lineValid &^= (uint64(1)<<end - 1) &^ (uint64(1)<<first - 1)
}

// invalidateRangeFP invalidates the cached line hashes overlapping
// [addr, addr+size): used when commit-variable geometry or a commit write
// record changes, which flips the symbols of bytes in the range without
// any page mutation. Pages never allocated need no invalidation (nothing
// cached); forks cache nothing.
func (s *PM) invalidateRangeFP(addr, size uint64) {
	if s.forked {
		return
	}
	addr, end := s.clip(addr, size)
	for b := addr; b < end; {
		pi, lo, hi, next := pageSpan(b, end)
		if pg := s.pages[pi]; pg != nil {
			pg.invalidateLines(lo, hi)
		}
		b = next
	}
}
