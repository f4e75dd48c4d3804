package pmem

// Soundness-mutation test hooks for the snapshot layer.
//
// The incremental-snapshot and copy-on-write machinery (snapshot.go) must be
// invisible to detection: the paper's correctness argument assumes every
// post-failure execution starts from the exact PM image at the failure
// point (footnote 3). The differential fuzzer validates that against the
// brute-force oracle's crash images, and the Table 4 mutation tests against
// the default run's report keys — and, to prove those suites can actually
// catch a snapshot-soundness regression rather than co-evolving with it,
// the mutation tests flip these switches:
//
//   - staleDirtyForTest stops the store paths from marking dirty pages, so
//     an incremental snapshot silently reuses stale base pages: the classic
//     missed-invalidation bug of any delta-copy scheme.
//
//   - tornCOWForTest corrupts every page a COW view privatizes, the
//     analogue of a torn or miscopied page on first write: the triggering
//     store still lands on top, so only the bytes the copy was supposed to
//     carry over are wrong.
//
//   - shortMsyncForTest makes every dirty-range writeback of a file-backed
//     pool (file.go) silently persist only its first shortMsyncKeep bytes
//     while clearing the range's dirty bits anyway: the classic
//     short-write-whose-error-was-dropped bug of any writeback scheme. No
//     error is raised, so nothing quarantines — only the file-backed
//     differential-fuzzer config, which digests the backing file against
//     the oracle's final image, can catch it.
//
// With any switch on, the suites must report mismatches; if they ever
// stop doing so, they have lost their teeth. Production code must never set
// these; they exist solely for the mutation tests (internal/fuzzgen,
// internal/bench).
var (
	staleDirtyForTest bool
	tornCOWForTest    bool
	shortMsyncForTest bool
)

// shortMsyncKeep is the per-range prefix the seeded short-msync mutant
// persists. 256 cuts inside the fuzz programs' data region — their stores
// land in [0x000, 0x300) of a single-page pool (fuzzgen/gen.go) — so a
// page-granular cut could never truncate mid-data and the mutant would be
// invisible to the fuzzer.
const shortMsyncKeep = 256

// SetStaleDirtyForTest toggles the deliberate dirty-bitmap staleness.
// Callers must not toggle it while a detection run is in flight.
func SetStaleDirtyForTest(on bool) { staleDirtyForTest = on }

// SetTornCOWForTest toggles the deliberate COW-page corruption. Callers
// must not toggle it while a detection run is in flight.
func SetTornCOWForTest(on bool) { tornCOWForTest = on }

// SetShortMsyncForTest toggles the deliberate silent short writeback on
// file-backed pools. Callers must not toggle it while a detection run is
// in flight.
func SetShortMsyncForTest(on bool) { shortMsyncForTest = on }

// tearPage corrupts a freshly privatized page, before the write that
// triggered the privatization lands.
func tearPage(pg []byte) {
	for i := range pg {
		pg[i] ^= 0xFF
	}
}
