package shadow

// Cold-page compaction for file-backed campaigns.
//
// Once a file-backed pool persists a page's lines, the page typically goes
// cold: bulk-initialized data is written in one epoch, flushed, fenced, and
// never touched again — yet its 4 KiB shadow page (~100 KiB of metadata)
// stays live for the rest of the campaign. After each fence, compaction
// scans the pages whose lines just persisted; a page whose every byte
// carries identical metadata — Persisted, no undo-log protection, same
// write epoch, persist epoch and writer — and whose range overlaps no
// commit-variable geometry is swapped for a shared singleton page holding
// exactly those uniform values. N cold pages with the same metadata then
// cost one shadow page instead of N, and the dropped pages stop counting
// toward live shadow bytes (Stats) — the sparse shadow "drops" its cold
// pages once their lines persist.
//
// Transparency argument, piece by piece:
//
//   - Accessors (State, WriteEpoch, PersistEpoch, TxProtected, WriterIP)
//     and the post-failure classifier read per-byte arrays; the singleton
//     holds the byte-identical uniform values, so every read is unchanged.
//   - The scratch arrays (postWritten, checked, txAddGen, txExplicit) are
//     zeroed on the singleton. All four are guarded by generation counters
//     that start at 1 and never reuse a value, so zero is semantically
//     identical to any stale generation. Compaction additionally refuses
//     to run while a transaction is open, so no txAddGen/txExplicit value
//     of the *current* generation can be live on an all-txSafe-false page.
//   - Mutation goes through writablePage. A singleton's refcount is always
//     at least its registry reference plus one per adopted slot, so any
//     writer first clones it — exactly the existing fork-COW contract; the
//     other slots never observe the write.
//   - Fingerprints: with no commit-variable geometry over the page, every
//     byte's symbol is the persisted-consistent bucket with the shared
//     writer (fpSymbol), independent of the byte's address — so one set
//     of cached line and page hashes is correct for every slot sharing the
//     singleton, and equals what pageHash would compute on the
//     uncompacted page. Geometry registered *later* would break that
//     address independence, so registerCommitVar/registerCommitRange
//     rehydrate any compacted slot their ranges overlap (rehydrateCold)
//     before the geometry lands.
//
// Compaction is enabled by the detection frontend for file-backed
// campaigns (SetColdPageCompaction); the equivalence of fingerprints and
// classifications with it on vs. off is pinned by
// TestColdPageCompactionEquivalence and the fuzzer's file-backed configs.

// coldKey identifies one uniform-metadata singleton page.
type coldKey struct {
	we, pe, w uint32
}

// SetColdPageCompaction toggles cold-page compaction on a canonical
// shadow. Enable it before replay starts; forks never compact (they take
// no fences).
func (s *PM) SetColdPageCompaction(on bool) {
	s.compactCold = on
	if s.compactCold && s.cold == nil {
		s.cold = make(map[coldKey]*page)
		s.coldSlots = make(map[int]*page)
	}
}

// ColdPages returns how many page slots currently share a compacted
// singleton (test and stats surface).
func (s *PM) ColdPages() int {
	n := 0
	for pi, pg := range s.coldSlots {
		if s.pages[pi] == pg {
			n++
		}
	}
	return n
}

// compactCandidates returns the distinct page indices holding lines this
// fence is about to persist — the only pages that can newly become cold.
// Called before applyFence clears pendingLines.
func (s *PM) compactCandidates() []int {
	var cands []int
	seen := make(map[int]bool, len(s.pendingLines))
	for line := range s.pendingLines {
		pi := int(line >> pageShift)
		if !seen[pi] && s.pages[pi] != nil {
			seen[pi] = true
			cands = append(cands, pi)
		}
	}
	return cands
}

// compactColdPages swaps every candidate page that is uniformly cold for
// the singleton of its metadata class. Runs on the thread advancing the
// canonical shadow, after the fence transitions.
func (s *PM) compactColdPages(cands []int) {
	for _, pi := range cands {
		pg := s.pages[pi]
		if pg == nil || s.coldSlots[pi] == pg {
			continue
		}
		we, pe, w, ok := pageUniformCold(pg)
		if !ok {
			continue
		}
		lo := uint64(pi) << pageShift
		hi := lo + pageBytes
		if hi > s.size {
			hi = s.size
		}
		if s.geometryOverlaps(lo, hi) {
			continue
		}
		key := coldKey{we: we, pe: pe, w: w}
		single := s.cold[key]
		if single == nil {
			single = s.newColdPage(we, pe, w)
			s.cold[key] = single
		}
		adoptPageRef(single)
		s.pages[pi] = single
		s.coldSlots[pi] = single
		s.dropPageRef(pg)
	}
}

// pageUniformCold reports whether every byte of pg carries the same cold
// metadata: Persisted, unprotected, one write epoch, one persist epoch,
// one writer. A never-written byte (writeEpoch 0) fails the state check,
// so partial trailing pages and half-initialized pages are excluded.
func pageUniformCold(pg *page) (we, pe, w uint32, ok bool) {
	we, pe, w = pg.writeEpoch[0], pg.persistEpoch[0], pg.writerIdx[0]
	for i := 0; i < pageBytes; i++ {
		if pg.state[i] != Persisted || pg.txSafe[i] ||
			pg.writeEpoch[i] != we || pg.persistEpoch[i] != pe || pg.writerIdx[i] != w {
			return 0, 0, 0, false
		}
	}
	return we, pe, w, true
}

// geometryOverlaps reports whether [lo, hi) intersects any registered
// commit variable or associated range — geometry makes fpSymbol
// address-dependent, which a shared singleton cannot represent.
func (s *PM) geometryOverlaps(lo, hi uint64) bool {
	for _, cv := range s.commitVars {
		if cv.addr < hi && lo < cv.addr+cv.size {
			return true
		}
	}
	for _, a := range s.assocs {
		if a.addr < hi && lo < a.addr+a.size {
			return true
		}
	}
	return false
}

// newColdPage builds the singleton for one metadata class, with its
// address-independent line and page hashes precomputed: every byte folds
// the persisted-consistent symbol with the shared writer, exactly what
// pageHash computes for an uncompacted page of this class.
func (s *PM) newColdPage(we, pe, w uint32) *page {
	pg := s.newPage()
	fillState(pg.state[:], Persisted)
	fillU32(pg.writeEpoch[:], we)
	fillU32(pg.persistEpoch[:], pe)
	fillU32(pg.writerIdx[:], w)
	lh := uniformLineHash(uint64(6)<<32 | uint64(w))
	for l := range pg.lineHash {
		pg.lineHash[l] = lh
	}
	pg.lineValid = allLines
	pg.fpHash = foldLines(&pg.lineHash)
	return pg
}

// rehydrateCold replaces compacted slots overlapping [addr, addr+size)
// with private copies of their singleton. Commit-variable registration
// calls it before new geometry lands: afterwards the slot's symbols are
// address-dependent, so it must stop sharing a page (and a cached hash)
// with slots elsewhere in the pool. Slots privatized since compaction are
// recognized by pointer and just forgotten.
func (s *PM) rehydrateCold(addr, size uint64) {
	if len(s.coldSlots) == 0 {
		return
	}
	addr, end := s.clip(addr, size)
	for b := addr; b < end; {
		pi, _, _, next := pageSpan(b, end)
		if cold, ok := s.coldSlots[pi]; ok {
			if s.pages[pi] == cold {
				np := s.newPage()
				np.state = cold.state
				np.writeEpoch = cold.writeEpoch
				np.persistEpoch = cold.persistEpoch
				np.writerIdx = cold.writerIdx
				s.pages[pi] = np
				s.dropPageRef(cold)
			}
			delete(s.coldSlots, pi)
		}
		b = next
	}
}
