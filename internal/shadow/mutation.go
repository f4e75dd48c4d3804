package shadow

// Soundness-mutation test hook.
//
// The fuzzgen differential suite validates this package against an
// independent brute-force oracle. To prove the suite can actually catch a
// soundness regression here — and does not merely co-evolve with whatever
// this package computes — its mutation test flips this switch, which makes
// applyFlush deliberately mis-model CLWB/CLFLUSH as immediately
// persistent. That is the classic misunderstanding the Fig. 9 persistence
// FSM exists to rule out: a writeback instruction alone guarantees nothing
// until the next SFENCE. With the switch on, the differential suite must
// report mismatches on dropped-fence programs; if it ever stops doing so,
// the suite has lost its teeth.
//
// Production code must never set this; it exists solely for the mutation
// test in internal/fuzzgen.
var unsoundFlushForTest bool

// SetUnsoundFlushForTest toggles the deliberate CLWB mis-model. Callers
// must not toggle it while a detection run is in flight.
func SetUnsoundFlushForTest(on bool) { unsoundFlushForTest = on }

// lostRangeBatchForTest breaks the fence's range-fill fast path: every
// pending line is treated as uniformly WritebackPending, including lines
// demoted because a store re-modified bytes after the flush. The mutant
// then spuriously persists those Modified bytes at the fence, hiding
// cross-failure races on them — the mistake the pendingLines full/demoted
// bookkeeping exists to rule out.
var lostRangeBatchForTest bool

// SetLostRangeBatchForTest toggles the deliberate range-batch mis-model.
// Callers must not toggle it while a detection run is in flight.
func SetLostRangeBatchForTest(on bool) { lostRangeBatchForTest = on }

// collidingFingerprintForTest breaks crash-state fingerprinting's
// injectivity: every non-empty page hashes to one constant, so the
// fingerprint degenerates to a function of the touched-page set and the
// commit-variable geometry. Distinct crash states then collide, the pruning
// layer groups them into one class, and bugs reachable only from the
// non-representative states are silently skipped — the exact soundness
// hazard a fingerprint-based pruner must exclude. The mutation suite proves
// the differential fuzzer and the Table 4 equivalence tests catch it.
var collidingFingerprintForTest bool

// SetCollidingFingerprintForTest toggles the deliberate fingerprint
// collision. Callers must not toggle it while a detection run is in flight.
func SetCollidingFingerprintForTest(on bool) { collidingFingerprintForTest = on }

// staleFenceFingerprintForTest breaks the fingerprint cache's invalidation
// contract: a fence processing a pending line no longer drops the line's
// cached hash — and its page ignores every later invalidation too — so the
// cached hashes are frozen at a previous failure point's state while the
// true state moves on. Later, genuinely distinct crash states then alias the
// frozen one and are pruned without testing. A one-shot staleness would be
// provably harmless (a later, cleaner state aliasing an earlier dirtier
// one only over-reports), which is why the mutant is sticky.
var staleFenceFingerprintForTest bool

// SetStaleFenceFingerprintForTest toggles the deliberate fence-invalidation
// omission. Callers must not toggle it while a detection run is in flight.
func SetStaleFenceFingerprintForTest(on bool) { staleFenceFingerprintForTest = on }

// staleLineFingerprintForTest breaks the line-granular fingerprint cache:
// every invalidation stops one line short, so the last line of each range
// a mutation touches keeps its stale hash (and a single-line range
// invalidates nothing). A crash state that differs from an earlier one
// only in such a line then aliases it and is pruned without testing — the
// off-by-one the line cache's [lo, hi) bookkeeping must exclude.
var staleLineFingerprintForTest bool

// SetStaleLineFingerprintForTest toggles the deliberate line-invalidation
// off-by-one. Callers must not toggle it while a detection run is in
// flight.
func SetStaleLineFingerprintForTest(on bool) { staleLineFingerprintForTest = on }
