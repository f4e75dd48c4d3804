package shadow

// Commit variables (§3.2 of the paper).
//
// Most crash-consistency mechanisms keep two versions of data and use a
// commit variable to indicate which version is consistent. Formally
// (Eq. 3): with C[x,n] the n-th commit write to variable x and Sx its
// associated address set, every m ∈ Sx is semantically consistent iff
//
//	C[x,n-1] ≤p W[m]  ∧  W[m] ≤p C[x,n]
//
// i.e. m was last modified "between" the last two commit writes in persist
// order. The persist order ≤p is evaluated with epochs: Wa ≤p Wb holds iff
// a became persisted at an epoch strictly before the epoch of b's write —
// only then is a guaranteed to persist before b in every interleaving. Two
// writes persisted by the same fence are unordered, which is exactly why
// the paper's Fig. 11 F2 case (backup and valid written back together) is a
// semantic bug.

// commitWrite records one write to a commit variable.
type commitWrite struct {
	writeEpoch   uint32 // epoch of the store
	persistEpoch uint32 // epoch the store became persisted; 0 = not yet
}

// commitVar is a registered commit variable.
type commitVar struct {
	addr, size uint64
	// last and prev are the paper's C[x,n] and C[x,n-1]: the last two
	// writes to the variable, in program order.
	last, prev commitWrite
	nWrites    int
	// pendingPersist is set while the latest write has not persisted.
	pendingPersist bool
}

// assoc associates an address range with a commit variable (addCommitRange).
type assoc struct {
	varIdx     int
	addr, size uint64
}

func (s *PM) registerCommitVar(addr, size uint64) int {
	for i, cv := range s.commitVars {
		if cv.addr == addr && cv.size == size {
			return i
		}
	}
	// Cached line and page hashes over new geometry go stale:
	// bucketCommitVar and bucketSemantic read the geometry.
	s.invalidateRangeFP(addr, size)
	s.commitVars = append(s.commitVars, &commitVar{addr: addr, size: size})
	return len(s.commitVars) - 1
}

func (s *PM) registerCommitRange(varAddr, varSize, addr, size uint64) {
	idx := s.registerCommitVar(varAddr, varSize)
	for _, a := range s.assocs {
		if a.varIdx == idx && a.addr == addr && a.size == size {
			return
		}
	}
	s.invalidateRangeFP(addr, size)
	s.assocs = append(s.assocs, assoc{varIdx: idx, addr: addr, size: size})
}

// CommitVarCount returns the number of registered commit variables.
func (s *PM) CommitVarCount() int { return len(s.commitVars) }

// isCommitVarByte reports whether addr belongs to a registered commit
// variable. Post-failure reads of such bytes are benign cross-failure races
// (§3.1).
func (s *PM) isCommitVarByte(addr uint64) bool {
	for _, cv := range s.commitVars {
		if addr >= cv.addr && addr < cv.addr+cv.size {
			return true
		}
	}
	return false
}

// assocFor returns the commit variable whose associated address set
// contains addr, or nil.
func (s *PM) assocFor(addr uint64) *commitVar {
	for _, a := range s.assocs {
		if addr >= a.addr && addr < a.addr+a.size {
			return s.commitVars[a.varIdx]
		}
	}
	return nil
}

// geometryOverlaps reports whether any registered commit variable or
// associated range overlaps [lo, hi). It answers true whenever
// isCommitVarByte or assocFor would find a range for some byte of it, so
// a false answer lets the byte's bucket skip both (plainBucket).
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

// noteCommitWrites records commit writes for every registered variable the
// just-applied store overlaps.
func (s *PM) noteCommitWrites(addr, end uint64) {
	for _, cv := range s.commitVars {
		if cv.addr >= end || addr >= cv.addr+cv.size {
			continue
		}
		if cv.pendingPersist && cv.last.writeEpoch == s.clock {
			// Multiple stores to the variable within one epoch collapse:
			// they persist atomically at the same fence, so only the last
			// value matters and the write record is already correct.
			continue
		}
		cv.prev = cv.last
		cv.last = commitWrite{writeEpoch: s.clock}
		cv.nWrites++
		cv.pendingPersist = true
		// The record change flips Eq. 3 outcomes for the variable's
		// associated bytes without touching their pages; drop those pages'
		// cached fingerprint hashes. (noteCommitPersists needs no such
		// invalidation: Eq. 3 never reads last.persistEpoch, and prev's
		// persist epoch is only consulted after the next record change,
		// which invalidates here.)
		for _, a := range s.assocs {
			if s.commitVars[a.varIdx] == cv {
				s.invalidateRangeFP(a.addr, a.size)
			}
		}
	}
}

// noteCommitPersists runs at each fence, after pending bytes transition to
// Persisted: a commit write whose bytes are now all persisted gets its
// persist epoch.
func (s *PM) noteCommitPersists() {
	for _, cv := range s.commitVars {
		if !cv.pendingPersist {
			continue
		}
		all := true
		for b := cv.addr; b < cv.addr+cv.size && b < s.size; b++ {
			if s.State(b) != Persisted {
				all = false
				break
			}
		}
		if all {
			cv.last.persistEpoch = s.clock
			cv.pendingPersist = false
		}
	}
}

// semanticallyConsistent evaluates Eq. 3 for the byte at addr against the
// commit variable cv. The byte must already be known Persisted; writeEpoch
// and persistEpoch are its last-write and persist epochs.
func semanticallyConsistent(cv *commitVar, writeEpoch, persistEpoch uint32) bool {
	// Before the first commit write the mechanism is not in play yet
	// (e.g. a failure between initializing the guarded data and the first
	// write of its commit variable); the data's safety is then governed by
	// the persistence check alone.
	if cv.nWrites == 0 {
		return true
	}
	// W[m] ≤p C[x,n]: the byte persisted strictly before the last commit
	// write's store.
	if persistEpoch >= cv.last.writeEpoch {
		return false
	}
	// C[x,n-1] ≤p W[m]: the previous commit write persisted strictly
	// before the byte's store. With fewer than two commit writes there is
	// no previous version boundary, so the condition holds vacuously.
	if cv.nWrites < 2 {
		return true
	}
	if cv.prev.persistEpoch == 0 {
		// The previous commit write never persisted (it was overwritten in
		// cache); it cannot be ordered before anything.
		return false
	}
	return cv.prev.persistEpoch < writeEpoch
}
