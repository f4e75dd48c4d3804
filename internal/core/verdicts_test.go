package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// mapSource is a VerdictSource over an in-memory map.
type mapSource struct {
	mu       sync.Mutex
	verdicts map[uint64][]Report
}

func (s *mapSource) Lookup(fpr uint64) ([]Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reps, ok := s.verdicts[fpr]
	return reps, ok
}

// TestCachedVerdictsSeedReports: a run against a fully warm cache post-runs
// nothing, lands every class in the CacheHits bucket, and still reports the
// cold run's exact key set — the cached reports are re-seeded, not lost.
// The cold run fills the cache the way a verdict cache learns: from the
// first checkpoint line carrying each fingerprint (every class here is
// clean).
func TestCachedVerdictsSeedReports(t *testing.T) {
	cache := &mapSource{verdicts: make(map[uint64][]Report)}
	learn := func(_ int, fpr uint64, fresh []Report) {
		if _, ok := cache.verdicts[fpr]; !ok && fpr != 0 {
			cache.verdicts[fpr] = append([]Report(nil), fresh...)
		}
	}
	cold, err := Run(Config{Verdicts: cache, OnPostRunComplete: learn}, manyFPTarget("vcache-cold"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.verdicts) == 0 || len(cache.verdicts) != cold.CrashStateClasses {
		t.Fatalf("cold run's lines carry %d class fingerprint(s), want one per class (%d)", len(cache.verdicts), cold.CrashStateClasses)
	}

	warm, err := Run(Config{Verdicts: cache}, manyFPTarget("vcache-warm"))
	if err != nil {
		t.Fatal(err)
	}
	if warm.PostRuns != 0 {
		t.Errorf("warm run post-ran %d classes, want 0 (everything cached)", warm.PostRuns)
	}
	if warm.CacheHitFailurePoints != cold.CrashStateClasses {
		t.Errorf("cache hits = %d, want one per class (%d)", warm.CacheHitFailurePoints, cold.CrashStateClasses)
	}
	if got := warm.BucketedFailurePoints(); got != warm.FailurePoints {
		t.Errorf("warm buckets sum to %d, want %d: %+v", got, warm.FailurePoints, warm)
	}
	if !equalKeys(sortedKeys(warm), sortedKeys(cold)) {
		t.Errorf("warm keys diverge from cold:\nwarm: %v\ncold: %v", sortedKeys(warm), sortedKeys(cold))
	}
}

// TestFaultRidesOnEveryLine: a faulted post-run's PostFailureFault rides on
// its own checkpoint callback even when an earlier failure point already
// reported the same message. A -serve daemon reads each class verdict off
// the representative's line, so a faulted run whose line came out empty
// would be read as clean and cached.
func TestFaultRidesOnEveryLine(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			target := manyFPTarget("fault-on-line")
			target.Post = func(*Ctx) error { return errors.New("recovery refused the pool") }
			calls := 0
			var bare []int
			cfg := Config{Workers: workers, DisablePruning: true, OnPostRunComplete: func(fp int, _ uint64, fresh []Report) {
				calls++
				for _, rep := range fresh {
					if rep.Class == PostFailureFault && rep.FailurePoint == fp {
						return
					}
				}
				bare = append(bare, fp)
			}}
			res, err := Run(cfg, target)
			if err != nil {
				t.Fatal(err)
			}
			if calls < 2 || calls != res.PostRuns {
				t.Fatalf("%d checkpoint callbacks for %d post-runs; want one per post-run, at least 2", calls, res.PostRuns)
			}
			if len(bare) > 0 {
				t.Errorf("faulted post-runs of failure points %v checkpointed without their fault", bare)
			}
			if got := len(res.Reports); got != 1 {
				t.Errorf("result holds %d reports, want the one deduplicated fault: %v", got, res.Reports)
			}
		})
	}
}

// TestDirtyClassMembersCarryNoFingerprint: after a class's representative
// is quarantined — it writes no checkpoint line — the members that run
// inline report no class fingerprint. A -serve daemon settles a class from
// the owner's first line carrying its fingerprint, so a clean member's
// line would otherwise settle the class clean and cache reports that miss
// what the representative's void attempts observed.
func TestDirtyClassMembersCarryNoFingerprint(t *testing.T) {
	target := Target{
		Name: "repeated-store",
		Pre: func(c *Ctx) error {
			p := c.Pool()
			for i := 0; i < 5; i++ {
				p.Store64(0, 1)
				p.Persist(0, 8)
			}
			return nil
		},
		Post: func(c *Ctx) error {
			c.Pool().Load64(0)
			return nil
		},
	}
	class := map[int]uint64{}
	if _, err := Run(Config{OnPostRunComplete: func(fp int, fpr uint64, _ []Report) { class[fp] = fpr }}, target); err != nil {
		t.Fatal(err)
	}
	members := 0
	for fp := 1; class[fp] == class[0]; fp++ {
		members++
	}
	if members < 2 {
		t.Fatalf("failure point 0's class has %d other member(s), want at least 2: %v", members, class)
	}

	// Both attempts of the first post-run (failure point 0, the class's
	// representative) fault, so it is quarantined; every later one runs.
	var faults atomic.Int32
	hooks := &pmem.FaultHooks{Sink: func(e trace.Entry) error {
		if e.Stage == trace.PostFailure && faults.Add(1) <= 2 {
			return errors.New("post-failure pool lost its spool")
		}
		return nil
	}}
	got := map[int]uint64{}
	res, err := Run(Config{FaultHooks: hooks, OnPostRunComplete: func(fp int, fpr uint64, _ []Report) { got[fp] = fpr }}, target)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got[0]; ok || res.SkippedFailurePoints != 1 {
		t.Fatalf("representative not quarantined: %d skipped, callbacks %v", res.SkippedFailurePoints, got)
	}
	for fp := 1; fp <= members; fp++ {
		if fpr, ok := got[fp]; !ok || fpr != 0 {
			t.Errorf("member %d: callback %v with fingerprint %#x; want one without the class fingerprint", fp, ok, fpr)
		}
	}
}
