//go:build race

package shadow

// raceEnabled reports whether this build runs under the Go race detector.
// See racetag_off_test.go for why the fingerprint property test consults it.
const raceEnabled = true
