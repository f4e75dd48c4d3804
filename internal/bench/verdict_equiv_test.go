package bench

import (
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
)

// runClassFleet runs target as a three-shard fleet, each shard owning the
// crash-state classes its fingerprints map to, and returns the fleet's
// total post-runs and tested classes and the union of its report keys.
func runClassFleet(t *testing.T, target func() core.Target) (posts, classes int, union map[string]bool) {
	t.Helper()
	const shards = 3
	union = map[string]bool{}
	for idx := 0; idx < shards; idx++ {
		res, err := core.Run(core.Config{
			PoolSize:   DefaultPoolSize,
			ShardCount: shards,
			ShardIndex: idx,
		}, target())
		if err != nil {
			t.Fatal(err)
		}
		if got := res.BucketedFailurePoints(); got != res.FailurePoints {
			t.Errorf("shard %d: buckets sum to %d, want %d failure points", idx, got, res.FailurePoints)
		}
		posts += res.PostRuns
		classes += res.CrashStateClasses
		for _, k := range dedupKeys(res) {
			union[k] = true
		}
	}
	return posts, classes, union
}

// checkClassFleet holds a three-shard fleet of target to the
// single-process pruned run: byte-identical merged report keys, and
// exactly its post-runs and tested classes, since no class is split
// across shards.
func checkClassFleet(t *testing.T, name string, target func() core.Target) {
	t.Helper()
	single, err := core.Run(core.Config{PoolSize: DefaultPoolSize}, target())
	if err != nil {
		t.Fatal(err)
	}
	posts, classes, union := runClassFleet(t, target)
	if got, want := sortedSetKeys(union), dedupKeys(single); !stringSlicesEqual(got, want) {
		t.Errorf("fleet report keys diverge from the single-process run\nsingle: %v\nfleet:  %v", want, got)
	}
	if posts != single.PostRuns || classes != single.CrashStateClasses {
		t.Errorf("fleet post-ran %d failure points in %d classes, one process %d in %d",
			posts, classes, single.PostRuns, single.CrashStateClasses)
	}
	t.Logf("%s: %d post-runs, %d classes, %d failure points", name, posts, classes, single.FailurePoints)
}

// TestCrossShardPruningEquivalence pins class sharding's contract on every
// Table 4 workload under the update-heavy ablation configuration, whose
// classes have many members: a three-shard fleet reports the
// single-process run's exact key set, post-runs and classes.
func TestCrossShardPruningEquivalence(t *testing.T) {
	for _, row := range Table4() {
		row := row
		t.Run(row.Name, func(t *testing.T) {
			checkClassFleet(t, row.Name, func() core.Target { return row.Target(PruneAblationConfig) })
		})
	}
}

// TestCrossShardPruningAcceptance pins the same contract on the
// steady-state update-loop campaign BenchmarkCrossShardPruning measures,
// whose classes span the whole pre-failure stage.
func TestCrossShardPruningAcceptance(t *testing.T) {
	target := func() core.Target { return UpdateLoopTarget("update-loop", 16, 30) }
	single, err := core.Run(core.Config{PoolSize: DefaultPoolSize}, target())
	if err != nil {
		t.Fatal(err)
	}
	if len(dedupKeys(single)) == 0 || single.PrunedFailurePoints == 0 {
		t.Fatal("update-loop campaign found no bugs or pruned nothing; the fleet equivalence would be vacuous")
	}
	checkClassFleet(t, "update-loop", target)
}
