package bench

import (
	"fmt"
	"sort"
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/shadow"
)

// TestPruneEquivalenceAcrossTable4 pins crash-state pruning's soundness
// contract on every evaluated program of the paper's Table 4: a run with
// pruning enabled (the default) must produce the byte-identical
// deduplicated report-key set of the -no-prune run — sequentially, under
// workers (where members park behind in-flight representatives), and
// across shards (where each shard prunes within its own failure-point
// partition and the union must still cover everything). The accounting
// must be exact: every injected failure point is either post-run, pruned,
// or delegated to another shard. A second pass repeats each workload's
// update-heavy ablation configuration, where pruning actually collapses
// long runs of byte-identical crash states, so the equivalence is not
// established only on workloads that never prune.
func TestPruneEquivalenceAcrossTable4(t *testing.T) {
	for _, tt := range table4Cases(t) {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			base, err := core.Run(core.Config{PoolSize: DefaultPoolSize, DisablePruning: true}, tt.target())
			if err != nil {
				t.Fatal(err)
			}
			if tt.wantBug && base.Count(tt.wantClass) == 0 {
				t.Fatalf("seeded fault %q not detected without pruning:\n%s", tt.fault, base)
			}
			if !tt.wantBug && !base.Clean() {
				t.Fatalf("expected a clean run:\n%s", base)
			}
			if base.PrunedFailurePoints != 0 || base.CrashStateClasses != 0 {
				t.Fatalf("-no-prune run reports pruning activity (%d classes, %d pruned)",
					base.CrashStateClasses, base.PrunedFailurePoints)
			}
			for _, workers := range []int{1, 2} {
				for _, shards := range []int{1, 3} {
					name := fmt.Sprintf("workers=%d shards=%d", workers, shards)
					union := map[string]bool{}
					totalPosts, totalPruned := 0, 0
					for shard := 0; shard < shards; shard++ {
						pruned, err := core.Run(core.Config{
							PoolSize:   DefaultPoolSize,
							Workers:    workers,
							ShardCount: shards,
							ShardIndex: shard,
						}, tt.target())
						if err != nil {
							t.Fatal(err)
						}
						if pruned.FailurePoints != base.FailurePoints {
							t.Errorf("%s shard %d: %d failure points, want %d",
								name, shard, pruned.FailurePoints, base.FailurePoints)
						}
						if got := pruned.PostRuns + pruned.PrunedFailurePoints +
							pruned.OtherShardFailurePoints; got != pruned.FailurePoints {
							t.Errorf("%s shard %d: post-runs %d + pruned %d + other-shard %d = %d, want %d failure points",
								name, shard, pruned.PostRuns, pruned.PrunedFailurePoints,
								pruned.OtherShardFailurePoints, got, pruned.FailurePoints)
						}
						if pruned.PostRuns < pruned.CrashStateClasses {
							t.Errorf("%s shard %d: %d post-runs below %d classes tested",
								name, shard, pruned.PostRuns, pruned.CrashStateClasses)
						}
						for _, k := range dedupKeys(pruned) {
							union[k] = true
						}
						totalPosts += pruned.PostRuns
						totalPruned += pruned.PrunedFailurePoints
					}
					if want := base.FailurePoints; totalPosts+totalPruned != want {
						t.Errorf("%s: post-runs %d + pruned %d across shards != %d failure points",
							name, totalPosts, totalPruned, want)
					}
					got := sortedSetKeys(union)
					if want := dedupKeys(base); !stringSlicesEqual(got, want) {
						t.Errorf("%s: pruned report keys diverge from -no-prune\nno-prune: %v\npruned:   %v",
							name, want, got)
					}
				}
			}
		})
	}
}

func sortedSetKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestPruneEquivalenceUpdateHeavy is the half of the equivalence bar where
// pruning demonstrably fires: the ablation configuration repeats each
// workload's update pass thirty times with identical values, a pruned run
// must skip a substantial share of those failure points, and the report
// keys must still match the -no-prune run byte for byte.
func TestPruneEquivalenceUpdateHeavy(t *testing.T) {
	anyPruned := false
	for _, row := range Table4() {
		row := row
		t.Run(row.Name, func(t *testing.T) {
			base, err := core.Run(core.Config{PoolSize: DefaultPoolSize, DisablePruning: true},
				row.Target(PruneAblationConfig))
			if err != nil {
				t.Fatal(err)
			}
			pruned, err := core.Run(core.Config{PoolSize: DefaultPoolSize},
				row.Target(PruneAblationConfig))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := dedupKeys(pruned), dedupKeys(base); !stringSlicesEqual(got, want) {
				t.Errorf("pruned report keys diverge from -no-prune\nno-prune: %v\npruned:   %v", want, got)
			}
			if pruned.FailurePoints != base.FailurePoints {
				t.Errorf("failure points diverge: pruned %d, no-prune %d",
					pruned.FailurePoints, base.FailurePoints)
			}
			if got := pruned.PostRuns + pruned.PrunedFailurePoints; got != pruned.FailurePoints {
				t.Errorf("post-runs %d + pruned %d = %d, want %d failure points",
					pruned.PostRuns, pruned.PrunedFailurePoints, got, pruned.FailurePoints)
			}
			if pruned.PrunedFailurePoints > 0 {
				anyPruned = true
			}
			t.Logf("%s: %d failure points, %d classes tested, %d pruned",
				row.Name, pruned.FailurePoints, pruned.CrashStateClasses, pruned.PrunedFailurePoints)
		})
	}
	if !anyPruned {
		t.Errorf("update-heavy ablation config pruned nothing on any Table 4 workload")
	}
}

// TestPruneMutationCaughtByTable4 proves the seven-workload table has
// teeth against fingerprint soundness regressions: with page hashes
// collapsed to a constant (colliding-fingerprint), the cached line hashes
// frozen at the state a fence already consumed (stale-fence-fingerprint),
// or every line invalidation one line short (stale-line-fingerprint),
// pruning conflates genuinely distinct crash states and at least one
// workload must diverge from its unmutated run — lost report keys or a
// changed post-run/pruned split. Must not run in parallel with other
// tests: the mutation switches are package-level toggles in
// internal/shadow.
func TestPruneMutationCaughtByTable4(t *testing.T) {
	cases := table4Cases(t)
	type summary struct {
		keys   []string
		fps    int
		posts  int
		pruned int
	}
	baselines := make(map[string]summary)
	for _, tt := range cases {
		res, err := core.Run(core.Config{PoolSize: DefaultPoolSize}, tt.target())
		if err != nil {
			t.Fatal(err)
		}
		baselines[tt.name] = summary{dedupKeys(res), res.FailurePoints, res.PostRuns, res.PrunedFailurePoints}
	}
	for _, mut := range []struct {
		name string
		set  func(bool)
	}{
		{"colliding-fingerprint", shadow.SetCollidingFingerprintForTest},
		{"stale-fence-fingerprint", shadow.SetStaleFenceFingerprintForTest},
		{"stale-line-fingerprint", shadow.SetStaleLineFingerprintForTest},
	} {
		t.Run(mut.name, func(t *testing.T) {
			mut.set(true)
			defer mut.set(false)
			caught := 0
			for _, tt := range cases {
				res, err := core.Run(core.Config{PoolSize: DefaultPoolSize}, tt.target())
				if err != nil {
					caught++
					continue
				}
				b := baselines[tt.name]
				if !stringSlicesEqual(dedupKeys(res), b.keys) ||
					res.FailurePoints != b.fps || res.PostRuns != b.posts ||
					res.PrunedFailurePoints != b.pruned {
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
