package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// checkBuckets asserts the exact-accounting identity: every failure point
// lands in exactly one Result bucket.
func checkBuckets(t *testing.T, res *Result) {
	t.Helper()
	sum := res.PostRuns + res.PrunedFailurePoints + res.OtherShardFailurePoints +
		res.ResumedFailurePoints + res.SkippedFailurePoints
	if sum != res.FailurePoints {
		t.Errorf("bucket sum %d (post %d + pruned %d + other-shard %d + resumed %d + skipped %d) != failure points %d",
			sum, res.PostRuns, res.PrunedFailurePoints, res.OtherShardFailurePoints,
			res.ResumedFailurePoints, res.SkippedFailurePoints, res.FailurePoints)
	}
}

// TestFaultHooksPropagation pins the propagation contract documented on
// pmem.SetFaultHooks: fault hooks armed on the campaign's root pool reach
// every post-failure pool the frontend builds — the copy-on-write snapshot
// views of a sequential run and of every sibling of a Workers > 1 run
// (the subtest keeps its name from the fork-based engine). A fault class
// arming only post-failure stages must therefore quarantine every failure
// point, in every engine mode, with exact accounting and zero false bug
// reports.
func TestFaultHooksPropagation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sequential-cow", Config{}},
		{"parallel-forks", Config{Workers: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var postConsults atomic.Int64
			hooks := &pmem.FaultHooks{Sink: func(e trace.Entry) error {
				if e.Stage == trace.PostFailure {
					postConsults.Add(1)
					return errors.New("post-failure pool lost its spool")
				}
				return nil
			}}
			cfg := tc.cfg
			cfg.DisablePerfBugs = true
			cfg.FaultHooks = hooks
			res, err := Run(cfg, spinMultiFPTarget("hook-propagation"))
			if err != nil {
				t.Fatal(err)
			}
			if res.FailurePoints == 0 {
				t.Fatal("target injected no failure points")
			}
			// Un-propagated hooks would let post-runs complete silently; the
			// contract requires every one to trip the armed class instead.
			if res.SkippedFailurePoints != res.FailurePoints {
				t.Errorf("skipped = %d, want all %d failure points quarantined",
					res.SkippedFailurePoints, res.FailurePoints)
			}
			// Retry-once-then-quarantine: each failure point's post stage is
			// attempted exactly twice, and each attempt's first post-failure
			// entry trips the hook.
			if got := postConsults.Load(); got != int64(2*res.FailurePoints) {
				t.Errorf("post-stage hook consultations = %d, want %d (two attempts per failure point)",
					got, 2*res.FailurePoints)
			}
			if !res.Incomplete || len(res.HarnessFaults) != res.FailurePoints {
				t.Errorf("want Incomplete with %d harness faults, got incomplete=%v faults=%v",
					res.FailurePoints, res.Incomplete, res.HarnessFaults)
			}
			if len(res.Reports) != 0 {
				t.Errorf("harness faults must never become bug reports:\n%s", res)
			}
			checkBuckets(t, res)
		})
	}
}

// TestSnapshotHookSeesFailurePoint: the image-copy hook is consulted once
// per post-run failure point, with that point's index — the key the
// quarantine tests fault on — and sibling shards consult it for exactly
// the points a sequential run does.
func TestSnapshotHookSeesFailurePoint(t *testing.T) {
	var sequential []int
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			seen := map[int]int{}
			hooks := &pmem.FaultHooks{Snapshot: func(fp int) error {
				mu.Lock()
				seen[fp]++
				mu.Unlock()
				return nil
			}}
			res, err := Run(Config{Workers: workers, DisablePerfBugs: true, FaultHooks: hooks},
				spinMultiFPTarget("snapshot-failure-point"))
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != res.PostRuns || res.PostRuns < 2 {
				t.Fatalf("hook saw %d failure points, want one per post-run (%d, at least 2):\n%s", len(seen), res.PostRuns, res)
			}
			var fps []int
			for fp, n := range seen {
				if n != 1 || fp < 0 || fp >= res.FailurePoints {
					t.Errorf("failure point %d consulted %d times (of %d points)", fp, n, res.FailurePoints)
				}
				fps = append(fps, fp)
			}
			sort.Ints(fps)
			if workers == 1 {
				sequential = fps
			} else if !slices.Equal(fps, sequential) {
				t.Errorf("siblings consulted failure points %v, sequential run %v", fps, sequential)
			}
		})
	}
}

// TestQuarantineAccountingExact: with only some failure points quarantined,
// the survivors keep their post-runs and reports, and the buckets still
// partition the failure points exactly — sequential and parallel.
func TestQuarantineAccountingExact(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Fail failure point 1's attempt and its retry, whichever
			// sibling owns the point and however the siblings interleave.
			hooks := &pmem.FaultHooks{Snapshot: func(fp int) error {
				if fp == 1 {
					return errors.New("copy exhausted")
				}
				return nil
			}}
			res, err := Run(Config{Workers: workers, DisablePerfBugs: true, FaultHooks: hooks},
				spinMultiFPTarget("partial-quarantine"))
			if err != nil {
				t.Fatal(err)
			}
			if res.SkippedFailurePoints != 1 {
				t.Fatalf("skipped = %d, want exactly 1:\n%s", res.SkippedFailurePoints, res)
			}
			if res.Count(CrossFailureRace) == 0 {
				t.Errorf("surviving failure points produced no reports:\n%s", res)
			}
			checkBuckets(t, res)
		})
	}
}
