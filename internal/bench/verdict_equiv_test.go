package bench

import (
	"fmt"
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
)

// runVerdictFleet runs target as a three-shard fleet, optionally sharing
// a class registry (the in-process form of the -serve daemon's class
// registry, settled by direct Resolve calls where the daemon reads the
// representative's checkpoint line; nil models -no-cross-shard-prune,
// where each shard prunes only within its own partition).
func runVerdictFleet(t *testing.T, target func() core.Target, reg *core.ClassRegistry) (posts, cross int, union map[string]bool) {
	t.Helper()
	const shards = 3
	union = map[string]bool{}
	for idx := 0; idx < shards; idx++ {
		var v core.VerdictSource
		if reg != nil {
			v = reg.Bind(fmt.Sprintf("shard%d", idx))
		}
		res, err := core.Run(core.Config{
			PoolSize:   DefaultPoolSize,
			ShardCount: shards,
			ShardIndex: idx,
			Verdicts:   v,
		}, target())
		if err != nil {
			t.Fatal(err)
		}
		if got := res.BucketedFailurePoints(); got != res.FailurePoints {
			t.Errorf("shard %d: buckets sum to %d, want %d failure points", idx, got, res.FailurePoints)
		}
		posts += res.PostRuns
		cross += res.CrossShardPrunedFailurePoints
		for _, k := range dedupKeys(res) {
			union[k] = true
		}
	}
	return posts, cross, union
}

// TestCrossShardPruningEquivalence pins the cross-shard verdict
// channel's soundness contract on every Table 4 workload under the
// update-heavy ablation configuration: a three-shard fleet sharing a
// core.ClassRegistry must produce the byte-identical merged report-key
// set of a fleet with the channel disabled, with no more post-failure
// executions in aggregate, and the drop must be fully accounted by
// cross-shard attributions.
func TestCrossShardPruningEquivalence(t *testing.T) {
	for _, row := range Table4() {
		row := row
		t.Run(row.Name, func(t *testing.T) {
			target := func() core.Target { return row.Target(PruneAblationConfig) }
			localPosts, localCross, localUnion := runVerdictFleet(t, target, nil)
			if localCross != 0 {
				t.Errorf("registry-less fleet attributed %d cross-shard failure points", localCross)
			}
			sharedPosts, sharedCross, sharedUnion := runVerdictFleet(t, target, core.NewClassRegistry())
			if got, want := sortedSetKeys(sharedUnion), sortedSetKeys(localUnion); !stringSlicesEqual(got, want) {
				t.Errorf("shared-registry report keys diverge from the local-only fleet\nlocal:  %v\nshared: %v",
					want, got)
			}
			if sharedPosts > localPosts {
				t.Errorf("sharing verdicts increased post-runs: %d -> %d", localPosts, sharedPosts)
			}
			if localPosts-sharedPosts > 0 && sharedCross == 0 {
				t.Errorf("post-runs dropped %d -> %d with no cross-shard attributions recorded",
					localPosts, sharedPosts)
			}
			t.Logf("%s: post-runs %d local-only -> %d shared (%d cross-shard attributions)",
				row.Name, localPosts, sharedPosts, sharedCross)
		})
	}
}

// TestCrossShardPruningAcceptance is the headline claim of the verdict
// channel, pinned as a test so a regression cannot silently erode it:
// on the steady-state update-loop campaign BenchmarkCrossShardPruning
// measures, the shared-registry fleet must post-run at least 2x fewer
// failure points than the -no-cross-shard-prune fleet, report the
// byte-identical merged key set, and land exactly at the single-process
// pruned run's representative count (sequential shards make ownership
// deterministic, so the bound is an equality).
func TestCrossShardPruningAcceptance(t *testing.T) {
	target := func() core.Target { return UpdateLoopTarget("update-loop", 16, 30) }

	single, err := core.Run(core.Config{PoolSize: DefaultPoolSize}, target())
	if err != nil {
		t.Fatal(err)
	}
	if len(dedupKeys(single)) == 0 {
		t.Fatal("update-loop campaign found no bugs; the key-set equivalence would be vacuous")
	}

	localPosts, _, localUnion := runVerdictFleet(t, target, nil)
	sharedPosts, sharedCross, sharedUnion := runVerdictFleet(t, target, core.NewClassRegistry())

	if got, want := sortedSetKeys(sharedUnion), sortedSetKeys(localUnion); !stringSlicesEqual(got, want) {
		t.Errorf("shared-registry report keys diverge from the local-only fleet\nlocal:  %v\nshared: %v", want, got)
	}
	if got, want := sortedSetKeys(sharedUnion), dedupKeys(single); !stringSlicesEqual(got, want) {
		t.Errorf("fleet report keys diverge from the single-process run\nsingle: %v\nfleet:  %v", want, got)
	}
	if sharedPosts != single.PostRuns {
		t.Errorf("shared fleet post-ran %d failure points, want %d (one per global class)",
			sharedPosts, single.PostRuns)
	}
	if sharedCross == 0 {
		t.Error("no cross-shard attributions; the registry did nothing")
	}
	if sharedPosts*2 > localPosts {
		t.Errorf("cross-shard pruning saved under 2x: %d post-runs shared vs %d local-only",
			sharedPosts, localPosts)
	}
	t.Logf("update-loop: post-runs %d local-only -> %d shared (%.2fx, %d cross-shard attributions)",
		localPosts, sharedPosts, float64(localPosts)/float64(sharedPosts), sharedCross)
}
