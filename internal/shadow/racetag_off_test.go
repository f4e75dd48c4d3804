//go:build !race

package shadow

// raceEnabled reports whether this build runs under the Go race detector
// (racetag_on_test.go is the -race counterpart). The fingerprint-cache
// property test, whose from-scratch reference re-reads every byte of the
// pool at every step, runs fewer seeds under -race; the concurrent
// fork-reader case is what the race build is for.
const raceEnabled = false
