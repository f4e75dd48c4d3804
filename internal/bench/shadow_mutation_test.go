package bench

import (
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/shadow"
)

// TestShadowMutationCaughtByTable4 proves the seven-workload table has
// teeth against shadow-layer soundness regressions: with the fence fast
// path wrongly range-persisting demoted mixed-state lines
// (lost-range-batch) or copy-on-write privatization disabled so worker
// forks observe shadow state from after their failure point
// (stale-fork-page), at least one workload must diverge from its
// unmutated run. The real workloads update structures in place after
// writebacks and persist continuously across failure points, so both
// corruptions change classifications and hence report keys or counters.
//
// Must not run in parallel with other tests: the mutation switches are
// package-level toggles in internal/shadow.
func TestShadowMutationCaughtByTable4(t *testing.T) {
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
		// workers is the width the mutated runs use: the stale-fork-page
		// corruption only exists where forks do, i.e. in parallel mode
		// (the parallel equivalence tests pin workers runs to the
		// sequential baseline, so the comparison stays fair).
		workers int
		racy    bool
	}{
		{"lost-range-batch", shadow.SetLostRangeBatchForTest, 0, false},
		{"stale-fork-page", shadow.SetStaleForkPageForTest, 2, true},
	} {
		t.Run(mut.name, func(t *testing.T) {
			if mut.racy && raceEnabled {
				t.Skipf("%s disables COW privatization, a genuine data race; exercised without -race", mut.name)
			}
			mut.set(true)
			defer mut.set(false)
			caught := 0
			for _, tt := range cases {
				res, err := core.Run(core.Config{PoolSize: DefaultPoolSize, Workers: mut.workers}, tt.target())
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
