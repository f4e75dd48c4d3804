package shadow

// Post-failure trace checking (§5.4, "Post-failure Trace").
//
// A PostChecker classifies every post-failure read against the shadow PM
// state frozen at the failure point. Writes performed by the post-failure
// execution overwrite the old data, so subsequently reading them is safe;
// they are tracked in a per-failure-point overlay. The paper's first
// optimization (check only the first read of each location) is implemented
// with a per-failure-point "checked" marker. Both use generation counters
// over the per-byte scratch arrays so that checking a failure point
// allocates nothing proportional to pool size.
//
// The scratch lives inside the shadow pages: a page never touched
// pre-failure needs no overlay or checked marks, because every byte of it
// has writeEpoch 0 and classifies OK on every read — so the checker skips
// unallocated pages entirely. A checker writes the scratch of the shadow
// it checks: detection checks its failure points one after another on
// the canonical shadow, and a checker on a fork privatizes each shared page
// it marks (writablePage).
//
// The check order is written once, as a byte's bucket (byteBucket), and
// the crash-state fingerprint (fingerprint.go) folds the same bucket:
// pruning merges exactly the crash states this checker cannot tell apart.

// Class is the classification of a post-failure read.
type Class uint8

const (
	// ClassOK: reading the byte cannot cause a cross-failure bug.
	ClassOK Class = iota
	// ClassBenign: the byte belongs to a commit variable; the read is an
	// intentional, well-defined benign cross-failure race (§3.1).
	ClassBenign
	// ClassRace: cross-failure race — the byte was modified pre-failure
	// and is not guaranteed persisted (¬(Wx ≤p F)).
	ClassRace
	// ClassSemantic: cross-failure semantic bug — the byte is persisted
	// but semantically inconsistent under Eq. 3.
	ClassSemantic
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassBenign:
		return "benign-race"
	case ClassRace:
		return "cross-failure-race"
	case ClassSemantic:
		return "cross-failure-semantic-bug"
	}
	return "unknown"
}

// Buckets of the check order, in order of precedence. The values enter
// every crash-state fingerprint: renumbering one changes the pinned
// fingerprints.
const (
	bucketUnwritten = 0 // no pre-failure writer, so no cross-failure bug (§2.2)
	bucketCommitVar = 1 // a commit-variable byte: a benign race (§3.1), even if TX_ADDed
	bucketTxSafe    = 2 // undo-log protected: recoverable wherever the failure hits
	bucketSemantic  = 7 // persisted, but semantically inconsistent (Eq. 3)
	bucketState     = 3 // + PersistState: Modified and WritebackPending race
)

// bucketClass is the class of a post-failure read of a byte in each bucket.
var bucketClass = [...]Class{
	bucketUnwritten:                ClassOK,
	bucketCommitVar:                ClassBenign,
	bucketTxSafe:                   ClassOK,
	bucketState + Unmodified:       ClassRace,
	bucketState + Modified:         ClassRace,
	bucketState + WritebackPending: ClassRace,
	bucketState + Persisted:        ClassOK,
	bucketSemantic:                 ClassSemantic,
}

// plainBucket is the bucket of a byte no commit variable or associated
// range covers, given its metadata: the order without its two geometry
// tests.
func plainBucket(st PersistState, we uint32, txSafe bool) uint8 {
	switch {
	case we == 0:
		return bucketUnwritten
	case txSafe:
		return bucketTxSafe
	}
	return bucketState + uint8(st)
}

// byteBucket is the bucket of the byte at b under the whole order, given
// its metadata. Callers that know no commit geometry covers b take
// plainBucket instead (geometryOverlaps).
func (s *PM) byteBucket(b uint64, st PersistState, we, pe uint32, txSafe bool) uint8 {
	switch {
	case we == 0:
		return bucketUnwritten
	case s.isCommitVarByte(b):
		return bucketCommitVar
	case !txSafe && st == Persisted:
		if cv := s.assocFor(b); cv != nil && !semanticallyConsistent(cv, we, pe) {
			return bucketSemantic
		}
	}
	return plainBucket(st, we, txSafe)
}

// Finding is one classified post-failure read of a contiguous byte range
// with a single last writer.
type Finding struct {
	Class    Class
	Addr     uint64
	Size     uint64
	WriterIP string // source location of the pre-failure writer
}

// PostChecker checks one post-failure execution against the shadow state at
// its failure point. Create one per failure point with BeginPostCheck.
type PostChecker struct {
	pm *PM
	// Benign counts benign cross-failure race bytes observed.
	Benign uint64
}

// BeginPostCheck starts checking a new post-failure execution.
func (s *PM) BeginPostCheck() *PostChecker {
	s.postGen++
	return &PostChecker{pm: s}
}

// OnWrite records a post-failure write: the range becomes consistent for
// the remainder of this post-failure execution. (Inconsistencies introduced
// by post-failure writes are tested when that code later runs as the
// pre-failure stage — §5.4.)
func (c *PostChecker) OnWrite(addr, size uint64) {
	s := c.pm
	addr, end := s.clip(addr, size)
	for b := addr; b < end; {
		pi, lo, hi, next := pageSpan(b, end)
		if s.pages[pi] == nil {
			// Untouched slab: every byte has writeEpoch 0 and classifies
			// OK with or without the overlay mark, so no page is allocated
			// for post-failure scratch.
			b = next
			continue
		}
		pg := s.writablePage(pi)
		fillU32(pg.postWritten[lo:hi], s.postGen)
		b = next
	}
}

// OnRead classifies a post-failure read and returns the non-OK findings,
// with contiguous bytes of equal classification and writer collapsed into
// single findings. Bytes already checked during this post-failure execution
// are skipped (same result as the first check). Commit geometry is tested
// once per 64-byte line: only a line some commit variable or associated
// range overlaps takes byteBucket's per-byte lookups.
func (c *PostChecker) OnRead(addr, size uint64) []Finding {
	s := c.pm
	addr, end := s.clip(addr, size)
	var findings []Finding
	var cur *Finding
	flush := func() { cur = nil }
	emit := func(b uint64, class Class) {
		switch class {
		case ClassOK:
			flush()
			return
		case ClassBenign:
			c.Benign++
			flush()
			return
		}
		wip := s.WriterIP(b)
		if cur != nil && cur.Class == class && cur.WriterIP == wip && cur.Addr+cur.Size == b {
			cur.Size++
			return
		}
		findings = append(findings, Finding{Class: class, Addr: b, Size: 1, WriterIP: wip})
		cur = &findings[len(findings)-1]
	}
	for b := addr; b < end; {
		pi, lo, hi, next := pageSpan(b, end)
		if s.pages[pi] == nil {
			// Never written pre-failure: every byte classifies OK and
			// needs no checked mark — re-reading yields the same OK
			// without scratch.
			flush()
			b = next
			continue
		}
		pg := s.writablePage(pi)
		base := b - uint64(lo) // the page's first address
		for i := lo; i < hi; {
			lineEnd := min(i&^(lineBytes-1)+lineBytes, hi)
			geometry := s.geometryOverlaps(base+uint64(i), base+uint64(lineEnd))
			for ; i < lineEnd; i++ {
				if pg.postWritten[i] == s.postGen || pg.checked[i] == s.postGen {
					flush()
					continue
				}
				pg.checked[i] = s.postGen
				bk := plainBucket(pg.state[i], pg.writeEpoch[i], pg.txSafe[i])
				if geometry {
					bk = s.byteBucket(base+uint64(i), pg.state[i], pg.writeEpoch[i], pg.persistEpoch[i], pg.txSafe[i])
				}
				emit(base+uint64(i), bucketClass[bk])
			}
		}
		b = next
	}
	return findings
}
