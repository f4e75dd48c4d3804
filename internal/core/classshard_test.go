package core_test

import (
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

// TestClassShardSpreadsBTreeClasses: class sharding must spread a real
// campaign's classes over the shards. The campaign is the 654-point
// B-Tree run `xfdetector -workload btree -init 3 -test 80 -patch
// btree-skip-add-leaf`, whose 652 classes are nearly all singletons: at
// N = 2 and N = 3 every shard must own at least a quarter of them. Taking
// the fingerprint modulo N fails this — FNV-1a's lowest bit is the XOR of
// its inputs' lowest bits, and at N = 2 every class lands on one shard.
func TestClassShardSpreadsBTreeClasses(t *testing.T) {
	m, _ := workloads.MakerFor("B-Tree")
	target := workloads.DetectionTarget(m, workloads.TargetConfig{
		InitSize: 3, TestSize: 80, Updates: 1, Removes: 1, UpdateRounds: 1,
		Fault: "btree-skip-add-leaf", FaultInCreate: true, PostOps: true,
	})
	classes := map[uint64]bool{}
	res, err := core.Run(core.Config{
		PoolSize: 4 << 20,
		OnPostRunComplete: func(_ int, fpr uint64, _ []core.Report) {
			if fpr != 0 {
				classes[fpr] = true
			}
		},
	}, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != res.CrashStateClasses || len(classes) < 600 {
		t.Fatalf("collected %d class fingerprints, run tested %d classes; want the same, at least 600",
			len(classes), res.CrashStateClasses)
	}
	for _, n := range []int{2, 3} {
		owned := make([]int, n)
		for fpr := range classes {
			owned[core.ClassShard(fpr, n)]++
		}
		for i, k := range owned {
			if 4*k < len(classes) {
				t.Errorf("N = %d: shard %d owns %d of %d classes, under a quarter (split %v)", n, i, k, len(classes), owned)
			}
		}
		t.Logf("N = %d: %d classes split %v", n, len(classes), owned)
	}
	// Workers > 1 nests W sibling class shards inside each process shard:
	// every class has exactly one owning sibling, inside the process that
	// owns it, and every sibling owns at least a quarter of its fair share.
	// Splitting the siblings by ClassShard(F, W) instead would still
	// partition the classes but starve siblings: at N = W = 2, process 0
	// owns the fingerprints below 2^63 and its sibling 1 those above.
	for _, n := range []int{1, 2, 3} {
		for _, w := range []int{2, 3} {
			owned := make([]int, n*w)
			for fpr := range classes {
				owners := 0
				for i := 0; i < n; i++ {
					for j := 0; j < w; j++ {
						if core.SiblingOwnsClass(fpr, n, i, w, j) {
							owners++
							owned[i*w+j]++
							if core.ClassShard(fpr, n) != i {
								t.Errorf("N = %d, W = %d: class %016x owned by sibling %d of shard %d, which does not own it", n, w, fpr, j, i)
							}
						}
					}
				}
				if owners != 1 {
					t.Fatalf("N = %d, W = %d: class %016x has %d owning siblings, want 1", n, w, fpr, owners)
				}
			}
			for k, c := range owned {
				if 4*c*n*w < len(classes) {
					t.Errorf("N = %d, W = %d: sibling %d of shard %d owns %d of %d classes, under a quarter of its share (split %v)",
						n, w, k%w, k/w, c, len(classes), owned)
				}
			}
			t.Logf("N = %d, W = %d: %d classes split %v over the siblings", n, w, len(classes), owned)
		}
	}
}
