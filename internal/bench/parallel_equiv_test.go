package bench

import (
	"fmt"
	"sort"
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/pmredis"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

// table4Case is one Table 4 workload with (for all but Memcached) a
// seeded bug whose detection makes an equivalence comparison non-trivial.
type table4Case struct {
	name      string
	fault     string // documentation: the seeded fault, if any
	wantClass core.BugClass
	wantBug   bool
	target    func() core.Target
}

// table4Cases builds the seven-workload equivalence table of the paper's
// Table 4: each of the five micro benchmarks with a seeded bug from its
// validation suite, Redis with the paper's Bug 3, and Memcached clean.
func table4Cases(t *testing.T) []table4Case {
	cfg := workloads.TargetConfig{InitSize: 2, TestSize: 2, Removes: 1, PostOps: true}
	micro := func(workload, fault string) func() core.Target {
		return func() core.Target {
			m, ok := workloads.MakerFor(workload)
			if !ok {
				t.Fatalf("unknown workload %q", workload)
			}
			c := cfg
			c.Fault = fault
			return workloads.DetectionTarget(m, c)
		}
	}
	return []table4Case{
		{"B-Tree", "btree-skip-add-leaf", core.CrossFailureRace, true,
			micro("B-Tree", "btree-skip-add-leaf")},
		{"C-Tree", "ctree-skip-add-count", core.CrossFailureRace, true,
			micro("C-Tree", "ctree-skip-add-count")},
		{"RB-Tree", "rbt-skip-add-root", core.CrossFailureRace, true,
			micro("RB-Tree", "rbt-skip-add-root")},
		{"Hashmap-TX", "hmtx-skip-add-slot", core.CrossFailureRace, true,
			micro("Hashmap-TX", "hmtx-skip-add-slot")},
		{"Hashmap-Atomic", "hma-sem-inverted-dirty", core.CrossFailureSemantic, true,
			micro("Hashmap-Atomic", "hma-sem-inverted-dirty")},
		{"Redis", "bug3-init-race", core.CrossFailureRace, true,
			func() core.Target { return RedisTarget(pmredis.Options{InitRaceBug: true}, cfg) }},
		{"Memcached", "", 0, false,
			func() core.Target { return MemcachedTarget(cfg) }},
	}
}

// TestParallelEquivalenceAcrossTable4 pins parallel detection's
// equivalence contract on every evaluated program of the paper's Table 4:
// a Workers>1 run must produce exactly the sequential run's report-key
// set, failure-point count, post-run count and benign byte count. Where a
// bug is seeded, the expected class must actually be detected, so the
// equivalence is established on non-trivial report sets. The sequential
// run must also account its shadow footprint.
func TestParallelEquivalenceAcrossTable4(t *testing.T) {
	for _, tt := range table4Cases(t) {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			seq, err := core.Run(core.Config{PoolSize: DefaultPoolSize}, tt.target())
			if err != nil {
				t.Fatal(err)
			}
			if tt.wantBug && seq.Count(tt.wantClass) == 0 {
				t.Fatalf("seeded fault %q not detected sequentially:\n%s", tt.fault, seq)
			}
			if !tt.wantBug && !seq.Clean() {
				t.Fatalf("expected a clean run:\n%s", seq)
			}
			if seq.ShadowPages == 0 || seq.ShadowPeakBytes == 0 {
				t.Errorf("sequential run reported no shadow footprint (%d pages, %d peak bytes)",
					seq.ShadowPages, seq.ShadowPeakBytes)
			}
			for _, workers := range []int{2, 4} {
				par, err := core.Run(core.Config{PoolSize: DefaultPoolSize, Workers: workers}, tt.target())
				if err != nil {
					t.Fatal(err)
				}
				if got, want := dedupKeys(par), dedupKeys(seq); !stringSlicesEqual(got, want) {
					t.Errorf("workers=%d: report keys diverge\nseq: %v\npar: %v", workers, want, got)
				}
				for _, c := range []struct {
					field    string
					got, seq interface{}
				}{
					{"failure-points", par.FailurePoints, seq.FailurePoints},
					{"post-runs", par.PostRuns, seq.PostRuns},
					{"benign-reads", par.BenignReads, seq.BenignReads},
					{"post-entries", par.PostEntries, seq.PostEntries},
				} {
					if fmt.Sprint(c.got) != fmt.Sprint(c.seq) {
						t.Errorf("workers=%d: %s = %v, want %v", workers, c.field, c.got, c.seq)
					}
				}
			}
		})
	}
}

func dedupKeys(res *core.Result) []string {
	keys := make([]string, 0, len(res.Reports))
	for _, r := range res.Reports {
		keys = append(keys, r.DedupKey())
	}
	sort.Strings(keys)
	return keys
}

func stringSlicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
