package core_test

import (
	"testing"

	"github.com/pmemgo/xfdetector/internal/bench"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/pmredis"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

// TestReportIDMatchesDedupKey: the report set deduplicates by a struct of
// DedupKey's fields instead of the rendered key, which checkpoints, -merge
// and -keys-out keep using. Over every report of the Table 4 programs with
// their seeded bugs, the two B-Tree performance patches and C (the
// 80-insert B-Tree campaign), two reports share the struct iff they share
// DedupKey.
func TestReportIDMatchesDedupKey(t *testing.T) {
	micro := func(workload, fault string, testSize int) func() core.Target {
		return func() core.Target {
			m, ok := workloads.MakerFor(workload)
			if !ok {
				t.Fatalf("unknown workload %q", workload)
			}
			return workloads.DetectionTarget(m, workloads.TargetConfig{
				InitSize: 3, TestSize: testSize, Updates: 1, Removes: 1, PostOps: true,
				Fault: fault, FaultInCreate: true,
			})
		}
	}
	cfg := workloads.TargetConfig{InitSize: 2, TestSize: 2, Removes: 1, PostOps: true}
	cases := []struct {
		name   string
		target func() core.Target
	}{
		{"B-Tree", micro("B-Tree", "btree-skip-add-leaf", 2)},
		{"C-Tree", micro("C-Tree", "ctree-skip-add-count", 2)},
		{"RB-Tree", micro("RB-Tree", "rbt-skip-add-root", 2)},
		{"Hashmap-TX", micro("Hashmap-TX", "hmtx-skip-add-slot", 2)},
		{"Hashmap-Atomic", micro("Hashmap-Atomic", "hma-sem-inverted-dirty", 2)},
		{"Redis", func() core.Target { return bench.RedisTarget(pmredis.Options{InitRaceBug: true}, cfg) }},
		{"Memcached", func() core.Target { return bench.MemcachedTarget(cfg) }},
		{"B-Tree/dup-add", micro("B-Tree", "btree-dup-add-leaf", 8)},
		{"B-Tree/extra-flush", micro("B-Tree", "btree-extra-flush", 8)},
		{"C", micro("B-Tree", "btree-skip-add-leaf", 80)},
	}
	byKey := map[string]any{}
	byID := map[any]string{}
	reports := 0
	for _, tc := range cases {
		res, err := core.Run(core.Config{PoolSize: bench.DefaultPoolSize}, tc.target())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, r := range res.Reports {
			reports++
			key, id := r.DedupKey(), core.ReportID(r)
			if prev, ok := byKey[key]; ok && prev != id {
				t.Errorf("%s: key %q has identities %+v and %+v", tc.name, key, prev, id)
			}
			if prev, ok := byID[id]; ok && prev != key {
				t.Errorf("%s: identity %+v has keys %q and %q", tc.name, id, prev, key)
			}
			byKey[key], byID[id] = id, key
		}
	}
	if reports <= len(byKey) || len(byKey) < 10 {
		t.Fatalf("vacuous check: %d reports with %d distinct keys", reports, len(byKey))
	}
	t.Logf("%d reports, %d distinct keys", reports, len(byKey))
}
