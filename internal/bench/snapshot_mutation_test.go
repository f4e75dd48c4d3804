package bench

import (
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/pmem"
)

// TestSnapshotMutationCaughtByTable4 proves the seven-workload table has
// teeth against snapshot-layer soundness regressions: with a deliberately
// stale dirty bitmap (incremental snapshots reuse outdated base pages) or
// a torn COW privatization, at least one workload must diverge from its
// unmutated run — real recovery code branches on the bytes it reads, so
// corrupted post-failure images change reports, entry counts, or crash
// the post stage into a PostFailureFault.
//
// Must not run in parallel with other tests: the mutation switches are
// package-level toggles in internal/pmem.
func TestSnapshotMutationCaughtByTable4(t *testing.T) {
	cases := table4Cases(t)
	type summary struct {
		keys    []string
		fps     int
		posts   int
		benign  uint64
		entries int
	}
	baselines := make(map[string]summary)
	for _, tt := range cases {
		res, err := core.Run(core.Config{PoolSize: DefaultPoolSize}, tt.target())
		if err != nil {
			t.Fatal(err)
		}
		baselines[tt.name] = summary{dedupKeys(res), res.FailurePoints, res.PostRuns, res.BenignReads, res.PostEntries}
	}
	for _, mut := range []struct {
		name string
		set  func(bool)
	}{
		{"stale-dirty-bitmap", pmem.SetStaleDirtyForTest},
		{"torn-cow-page", pmem.SetTornCOWForTest},
	} {
		t.Run(mut.name, func(t *testing.T) {
			mut.set(true)
			defer mut.set(false)
			caught := 0
			for _, tt := range cases {
				res, err := core.Run(core.Config{PoolSize: DefaultPoolSize}, tt.target())
				if err != nil {
					// A harness-level failure under mutation is itself a
					// divergence from the clean baseline run.
					caught++
					continue
				}
				b := baselines[tt.name]
				if !stringSlicesEqual(dedupKeys(res), b.keys) ||
					res.FailurePoints != b.fps || res.PostRuns != b.posts ||
					res.BenignReads != b.benign || res.PostEntries != b.entries {
					caught++
				}
			}
			if caught == 0 {
				t.Fatalf("seeded %s mutation went undetected by all %d workloads", mut.name, len(cases))
			}
			t.Logf("%s caught by %d/%d workloads", mut.name, caught, len(cases))
		})
	}
}
