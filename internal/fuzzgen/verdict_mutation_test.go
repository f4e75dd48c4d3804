package fuzzgen

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/vcache"
)

// Seeded mutant for the verdict cache (PR 9). Cross-campaign reuse can go
// wrong in a way no in-process check can see: trusting a cached verdict
// from a *different* program whose pre-failure states happen to
// fingerprint alike (the cache's identity key exists solely to prevent
// this). The mutant disables that guard; the battery proves the
// differential suite notices the lost report keys.

// verdictMutationSeeds is the per-knob seed count of the battery.
const verdictMutationSeeds = 40

// widenPost returns p with one extra post-failure load covering the whole
// pool. The pre-failure stages are untouched, so every crash-state
// fingerprint is identical to p's — but the verdicts are not: the wide load
// classifies every unpersisted byte, so the widened program reports race
// keys p never produces. It is exactly the program change a fingerprint
// cannot see and only the cache identity distinguishes.
func widenPost(p Program) Program {
	q := p
	q.Name = p.Name + "-widened"
	q.Post = append(append([]Op(nil), p.Post...), Op{Kind: OpLoad, Addr: 0, Size: p.PoolSize})
	return q
}

// TestStaleCacheMutationCaught proves the battery catches a verdict cache
// that survives a program change: with the identity component of the cache
// key disabled (vcache.SetIgnoreIdentityForTest), a campaign of program B
// reuses the verdicts a campaign of program A cached — same fingerprints,
// different program — and B's report set silently loses the keys only its
// own post-runs would have produced. Must not run in parallel: the mutation
// switch is a package-level toggle in internal/vcache.
func TestStaleCacheMutationCaught(t *testing.T) {
	knobs := []Knob{KnobDroppedFlush, KnobMixed}
	scenario := func(t *testing.T, seed int64, knob Knob) error {
		a := Generate(seed, knob)
		b := widenPost(a)
		wantB, err := Evaluate(b, EvalOpts{})
		if err != nil {
			return err
		}
		cache, err := vcache.Open(filepath.Join(t.TempDir(), "verdicts.cache"))
		if err != nil {
			return err
		}
		defer cache.Close()
		idA, err := programIdentity(a)
		if err != nil {
			return err
		}
		idB, err := programIdentity(b)
		if err != nil {
			return err
		}
		// Each campaign looks verdicts up under its own identity and
		// feeds the cache its checkpoint lines, as -verdict-cache does.
		cached := func(p Program, id uint64) core.Config {
			verdicts := cache.Bind(id)
			return core.Config{PoolSize: p.PoolSize, Verdicts: verdicts,
				OnPostRunComplete: func(fp int, fpr uint64, fresh []core.Report) {
					verdicts.Add(ckpt.Line{FP: fp, FPrint: fpr, Reports: fresh})
				}}
		}
		if _, err := core.Run(cached(a, idA), BuildTarget(a)); err != nil {
			return fmt.Errorf("fuzzgen: %q: harness error: %w", a.Name, err)
		}
		res, err := core.Run(cached(b, idB), BuildTarget(b))
		if err != nil {
			return fmt.Errorf("fuzzgen: %q: harness error: %w", b.Name, err)
		}
		return compare(b, "stale-cache", "keys", strings.Join(wantB.Keys, " ; "), joinKeys(res))
	}

	for seed := int64(0); seed < verdictMutationSeeds; seed++ {
		for _, k := range knobs {
			if err := scenario(t, seed, k); err != nil {
				t.Fatalf("pre-mutation sanity failed (seed %d, knob %s): %v", seed, k, err)
			}
		}
	}

	vcache.SetIgnoreIdentityForTest(true)
	defer vcache.SetIgnoreIdentityForTest(false)
	caught := 0
	for seed := int64(0); seed < verdictMutationSeeds; seed++ {
		for _, k := range knobs {
			err := scenario(t, seed, k)
			var m *Mismatch
			if errors.As(err, &m) {
				caught++
			} else if err != nil {
				t.Fatalf("seed %d knob %s: non-mismatch error under mutation: %v", seed, k, err)
			}
		}
	}
	if caught == 0 {
		t.Fatalf("seeded stale-cache mutation went undetected on all %d seeds x %d knobs",
			verdictMutationSeeds, len(knobs))
	}
	t.Logf("stale-cache caught on %d/%d seed-knob pairs", caught, verdictMutationSeeds*len(knobs))
}
