package fuzzgen

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/shadow"
)

// pruneMutants are the deliberate bugs seeded into crash-state
// fingerprinting, the foundation of failure-point pruning. Colliding
// fingerprints hash every non-empty shadow page to one constant, so
// genuinely distinct crash states fall into one class and the bugs
// reachable only from the non-representative states are silently skipped.
// Stale fingerprints freeze a page's cached line hashes at the state a
// fence already consumed, so later, dirtier crash states alias an earlier
// clean one and are pruned without testing. Stale line fingerprints stop
// every line invalidation one line short, so the last line a mutation
// touches keeps its old hash. All three surface as a lost report key —
// the exact soundness property the differential suite pins. No mutant
// touches shared state across goroutines, so all also run under -race.
var pruneMutants = []struct {
	name string
	set  func(bool)
}{
	{"colliding-fingerprint", shadow.SetCollidingFingerprintForTest},
	{"stale-fence-fingerprint", shadow.SetStaleFenceFingerprintForTest},
	{"stale-line-fingerprint", shadow.SetStaleLineFingerprintForTest},
}

// pruneMutationKnobs bias the generator toward programs with many
// distinguishable crash states: dropped-fence programs leave long
// mid-persistence tails that differ fence to fence, and mixed programs add
// commit-variable protocols whose geometry and Eq. 3 outcomes feed the
// fingerprint.
var pruneMutationKnobs = []Knob{KnobDroppedFence, KnobMixed}

// TestPruneMutationCaught proves the differential suite would notice a
// fingerprint soundness regression: with any mutant active, pruning
// collapses distinct crash states and some seed's pruned run loses a
// report key (or breaks the accounting) relative to the brute-force
// oracle. A stale-cache mutant can instead surface in the recorded
// config: a resumed replay fingerprints none of its completed points, so
// its stale line hashes need not match the ones the recording pass
// stored, and the replay's fingerprint tripwire refuses the artifact —
// that refusal counts as a catch too. Must not run in parallel
// with other tests: the mutation switches are package-level toggles in
// internal/shadow.
func TestPruneMutationCaught(t *testing.T) {
	const n = 40
	for seed := int64(0); seed < n; seed++ {
		for _, k := range pruneMutationKnobs {
			if err := CheckSeed(seed, k); err != nil {
				t.Fatalf("pre-mutation sanity failed (seed %d, knob %s): %v", seed, k, err)
			}
		}
	}
	for _, mut := range pruneMutants {
		t.Run(mut.name, func(t *testing.T) {
			mut.set(true)
			defer mut.set(false)
			caught := 0
			for seed := int64(0); seed < n; seed++ {
				for _, k := range pruneMutationKnobs {
					err := CheckSeed(seed, k)
					var m *Mismatch
					if errors.As(err, &m) || isTripwire(err) {
						caught++
					} else if err != nil {
						t.Fatalf("seed %d knob %s: non-mismatch error under mutation: %v", seed, k, err)
					}
				}
			}
			if caught == 0 {
				t.Fatalf("seeded %s mutation went undetected on all %d seeds x %d knobs",
					mut.name, n, len(pruneMutationKnobs))
			}
			t.Logf("%s caught on %d/%d seed-knob pairs", mut.name, caught, n*len(pruneMutationKnobs))
		})
	}
}

// TestPruneMutationCaughtByCorpus requires that the checked-in corpus
// alone catches every fingerprint mutant, so the safety net does not
// depend on which seeds a fuzzing campaign explores.
// corpus/prune-class-stale-fence.json is the hand-written minimized
// reproducer for all of them: failure point 0 freezes one
// writeback-pending line and its post-run is clean; failure point 1 adds
// a second, unpersisted line whose post-failure load is a cross-failure
// race. Collide the page hashes, leave the cached hashes frozen at the
// state the first fence consumed, or skip the store's single-line
// invalidation, and failure point 1 aliases failure point 0's clean class
// — the race key disappears from the pruned run's report set.
func TestPruneMutationCaughtByCorpus(t *testing.T) {
	entries, err := os.ReadDir("corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range pruneMutants {
		t.Run(mut.name, func(t *testing.T) {
			mut.set(true)
			defer mut.set(false)
			caught := 0
			caughtByReproducer := false
			for _, e := range entries {
				if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
					continue
				}
				data, err := os.ReadFile(filepath.Join("corpus", e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				p, err := ParseProgram(data)
				if err != nil {
					t.Fatalf("%s: %v", e.Name(), err)
				}
				var m *Mismatch
				if err := CheckProgram(p); errors.As(err, &m) {
					caught++
					if e.Name() == "prune-class-stale-fence.json" {
						caughtByReproducer = true
					}
				} else if err != nil {
					t.Fatalf("%s: non-mismatch error under mutation: %v", e.Name(), err)
				}
			}
			if caught == 0 {
				t.Fatalf("%s mutation went undetected by the entire corpus", mut.name)
			}
			if !caughtByReproducer {
				t.Fatalf("%s mutation not caught by its minimized reproducer prune-class-stale-fence.json", mut.name)
			}
			t.Logf("%s caught by %d corpus programs", mut.name, caught)
		})
	}
}

// isTripwire reports whether err is a replay's fingerprint tripwire
// refusing a recorded artifact.
func isTripwire(err error) bool {
	return errors.Is(err, core.ErrFingerprintMismatch)
}
