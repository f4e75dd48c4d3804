package fuzzgen

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/shadow"
)

// shadowMutants are the deliberate bugs seeded into the paged shadow: a
// fence fast path that treats every pending cache line as uniformly
// WritebackPending, spuriously persisting bytes re-modified after the
// writeback — the range-batching soundness hazard. The oracle does not
// share the mechanism, so every divergence it flags is the mutant's.
var shadowMutants = []struct {
	name string
	set  func(bool)
}{
	{"lost-range-batch", shadow.SetLostRangeBatchForTest},
}

// shadowMutationKnobs are the generator biases the seed-based mutation test
// sweeps: dropped-fence programs leave many lines mid-persistence (the
// states the range-batched fence must not conflate), and mixed programs add
// commit-variable protocols whose semantic classification exposes wrongly
// persisted bytes.
var shadowMutationKnobs = []Knob{KnobDroppedFence, KnobMixed}

// TestShadowMutationCaught proves the differential suite would notice a
// regression in the shadow's range batching.
// Must not run in parallel with other tests: the mutation switches are
// package-level toggles in internal/shadow.
func TestShadowMutationCaught(t *testing.T) {
	const n = 40
	for seed := int64(0); seed < n; seed++ {
		for _, k := range shadowMutationKnobs {
			if err := CheckSeed(seed, k); err != nil {
				t.Fatalf("pre-mutation sanity failed (seed %d, knob %s): %v", seed, k, err)
			}
		}
	}
	for _, mut := range shadowMutants {
		t.Run(mut.name, func(t *testing.T) {
			mut.set(true)
			defer mut.set(false)
			caught := 0
			for seed := int64(0); seed < n; seed++ {
				for _, k := range shadowMutationKnobs {
					err := CheckSeed(seed, k)
					var m *Mismatch
					if errors.As(err, &m) {
						caught++
					} else if err != nil {
						t.Fatalf("seed %d knob %s: non-mismatch error under mutation: %v", seed, k, err)
					}
				}
			}
			if caught == 0 {
				t.Fatalf("seeded %s mutation went undetected on all %d seeds x %d knobs",
					mut.name, n, len(shadowMutationKnobs))
			}
			t.Logf("%s caught on %d/%d seed-knob pairs", mut.name, caught, n*len(shadowMutationKnobs))
		})
	}
}

// TestShadowMutationCaughtByCorpus requires that the checked-in corpus
// alone — the deterministic regression tests replayed in CI — catches the
// shadow mutant, so the safety net does not depend on which seeds a
// fuzzing campaign happens to explore. corpus/mixed-state-line.json is the
// hand-written reproducer for lost-range-batch: a full-line store and
// writeback followed by a partial re-store leaves the line mixed
// WritebackPending/Modified at the fence, and the re-modified bytes sit in
// a commit-variable association, so wrongly persisting them turns a
// cross-failure race into a cross-failure semantic bug — a key the oracle
// never predicts.
func TestShadowMutationCaughtByCorpus(t *testing.T) {
	entries, err := os.ReadDir("corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range shadowMutants {
		t.Run(mut.name, func(t *testing.T) {
			mut.set(true)
			defer mut.set(false)
			caught := 0
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
				} else if err != nil {
					t.Fatalf("%s: non-mismatch error under mutation: %v", e.Name(), err)
				}
			}
			if caught == 0 {
				t.Fatalf("%s mutation went undetected by the entire corpus", mut.name)
			}
			t.Logf("%s caught by %d corpus programs", mut.name, caught)
		})
	}
}
