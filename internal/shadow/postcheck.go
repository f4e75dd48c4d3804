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
// unallocated pages entirely. On a fork, the first scratch update of a
// shared page privatizes it (writablePage), so concurrent failure points
// never see each other's overlay.

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

// Finding is one classified post-failure read of a contiguous byte range
// with a single last writer.
type Finding struct {
	Class    Class
	Addr     uint64
	Size     uint64
	WriterIP string       // source location of the pre-failure writer
	State    PersistState // persistence state of the range at the failure
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
// are skipped (same result as the first check).
func (c *PostChecker) OnRead(addr, size uint64) []Finding {
	s := c.pm
	addr, end := s.clip(addr, size)
	var findings []Finding
	var cur *Finding
	flush := func() { cur = nil }
	emit := func(b uint64, class Class, st PersistState) {
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
		findings = append(findings, Finding{Class: class, Addr: b, Size: 1, WriterIP: wip, State: st})
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
		for i := lo; i < hi; i++ {
			if pg.postWritten[i] == s.postGen || pg.checked[i] == s.postGen {
				flush()
				continue
			}
			pg.checked[i] = s.postGen
			bb := b + uint64(i-lo)
			class, st := c.classify(bb, pg.state[i], pg.writeEpoch[i], pg.persistEpoch[i], pg.txSafe[i])
			emit(bb, class, st)
		}
		b = next
	}
	return findings
}

// classify implements the check order of §5.4 for the byte at b, given its
// per-byte metadata: consistency first (a consistent location is certainly
// bug-free), then persistence, then semantic consistency for persisted
// data.
func (c *PostChecker) classify(b uint64, st PersistState, writeEpoch, persistEpoch uint32, txSafe bool) (Class, PersistState) {
	s := c.pm
	// Not modified during the pre-failure stage: a cross-failure bug
	// requires a pre-failure writer (§2.2).
	if writeEpoch == 0 {
		return ClassOK, st
	}
	// Reading a commit variable is a benign cross-failure race.
	if s.isCommitVarByte(b) {
		return ClassBenign, st
	}
	// Undo-log protection: TX_ADDed (or transactionally allocated) data is
	// recoverable no matter where the failure hits.
	if txSafe {
		return ClassOK, st
	}
	// Cross-failure race: not guaranteed persisted before the failure.
	if st != Persisted {
		return ClassRace, st
	}
	// Persisted, but possibly semantically inconsistent (Eq. 3).
	if cv := s.assocFor(b); cv != nil {
		if !semanticallyConsistent(cv, writeEpoch, persistEpoch) {
			return ClassSemantic, st
		}
	}
	return ClassOK, st
}
