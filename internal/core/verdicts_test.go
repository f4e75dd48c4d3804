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

// TestClassRegistryStateMachine: ownership, sticky resolution, owner-only
// resolve, Known and owner release at the registry level.
func TestClassRegistryStateMachine(t *testing.T) {
	g := NewClassRegistry()
	if g.Known(1) {
		t.Fatal("unclaimed fingerprint known")
	}
	if v := g.Claim("a", 1); v.Verdict != VerdictOwn {
		t.Fatalf("first claim = %v, want VerdictOwn", v.Verdict)
	}
	if !g.Known(1) {
		t.Fatal("pending class not known")
	}
	if v := g.Claim("b", 1); v.Verdict != VerdictRun {
		t.Fatalf("claim on pending class = %v, want VerdictRun", v.Verdict)
	}
	if g.Resolve("b", 1, true) {
		t.Fatal("non-owner resolve landed")
	}
	if !g.Resolve("a", 1, true) {
		t.Fatal("owner's clean resolve did not land")
	}
	if v := g.Claim("b", 1); v.Verdict != VerdictClean {
		t.Fatalf("claim on clean class = %v, want VerdictClean", v.Verdict)
	}
	// A resolve after the fact (zombie) must not flip a settled class.
	if g.Resolve("a", 1, false) {
		t.Fatal("resolve on a settled class landed")
	}

	// Dirty is sticky: claimants run inline forever.
	g.Claim("a", 2)
	if g.Resolve("a", 2, false) {
		t.Fatal("dirty resolve reported clean")
	}
	if v := g.Claim("b", 2); v.Verdict != VerdictRun {
		t.Fatalf("claim on dirty class = %v, want VerdictRun", v.Verdict)
	}

	// ReleaseOwner frees only the owner's pending classes; settled ones stay.
	g.Claim("a", 3)
	g.ReleaseOwner("a")
	if v := g.Claim("b", 3); v.Verdict != VerdictOwn {
		t.Fatalf("claim on released class = %v, want VerdictOwn", v.Verdict)
	}
	if v := g.Claim("c", 1); v.Verdict != VerdictClean {
		t.Fatalf("settled class lost by ReleaseOwner: %v", v.Verdict)
	}
	if g.Resolve("a", 3, true) {
		t.Fatal("released owner's late resolve landed")
	}

	if classes, attributed := g.Stats(); classes != 3 || attributed != 2 {
		t.Errorf("Stats = %d classes, %d attributed; want 3 and 2", classes, attributed)
	}
}

// TestCrossShardAttributionSequential: three shards of one campaign run
// back to back against a shared registry. Every crash-state class is
// post-run by exactly one shard — the union of post-runs equals the
// single-process pruned run's — and the merged report set is byte-identical
// to the unsharded campaign.
func TestCrossShardAttributionSequential(t *testing.T) {
	seq, err := Run(Config{}, manyFPTarget("xshard-seq"))
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Run(Config{}, manyFPTarget("xshard-pruned"))
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	reg := NewClassRegistry()
	union := newReportSet()
	totalPost, totalCross := 0, 0
	for idx := 0; idx < shards; idx++ {
		res, err := Run(Config{
			ShardCount: shards,
			ShardIndex: idx,
			Verdicts:   reg.Bind(fmt.Sprintf("shard%d", idx)),
		}, manyFPTarget("xshard"))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.BucketedFailurePoints(); got != res.FailurePoints {
			t.Errorf("shard %d: buckets sum to %d, want %d: %+v", idx, got, res.FailurePoints, res)
		}
		for _, rep := range res.Reports {
			union.add(rep)
		}
		totalPost += res.PostRuns
		totalCross += res.CrossShardPrunedFailurePoints
	}

	if got := sortedKeys(&Result{Reports: union.snapshot()}); !equalKeys(got, sortedKeys(seq)) {
		t.Errorf("cross-shard union diverges from sequential:\nunion: %v\nseq:   %v", got, sortedKeys(seq))
	}
	// Sequential shards never race on a class, so the representative count
	// is exact: one post-run per global class, like the unsharded pruned run.
	if totalPost != pruned.PostRuns {
		t.Errorf("total post-runs across shards = %d, want %d (one per global class)", totalPost, pruned.PostRuns)
	}
	if totalCross == 0 && pruned.PrunedFailurePoints > 0 {
		t.Error("no cross-shard attributions despite duplicate crash states; the registry did nothing")
	}
}

// TestCrossShardAttributionConcurrent is the same campaign with all three
// shards running at once on parallel runners — the registry is hit from
// many goroutines (run under -race in CI). Ownership may race (a class
// claimed while pending runs inline), so only soundness is asserted: the
// union must stay byte-identical and every shard's buckets must sum.
func TestCrossShardAttributionConcurrent(t *testing.T) {
	seq, err := Run(Config{}, manyFPTarget("xshard-conc-seq"))
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	reg := NewClassRegistry()
	union := newReportSet()
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for idx := 0; idx < shards; idx++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			res, err := Run(Config{
				Workers:    2,
				ShardCount: shards,
				ShardIndex: idx,
				Verdicts:   reg.Bind(fmt.Sprintf("shard%d", idx)),
			}, manyFPTarget("xshard-conc"))
			if err != nil {
				errs[idx] = err
				return
			}
			if got := res.BucketedFailurePoints(); got != res.FailurePoints {
				errs[idx] = fmt.Errorf("buckets sum to %d, want %d", got, res.FailurePoints)
				return
			}
			mu.Lock()
			for _, rep := range res.Reports {
				union.add(rep)
			}
			mu.Unlock()
		}(idx)
	}
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", idx, err)
		}
	}
	if got := sortedKeys(&Result{Reports: union.snapshot()}); !equalKeys(got, sortedKeys(seq)) {
		t.Errorf("concurrent cross-shard union diverges:\nunion: %v\nseq:   %v", got, sortedKeys(seq))
	}
}

// recordingSource wraps a VerdictSource and captures clean resolutions —
// the shape of a verdict cache being filled.
type recordingSource struct {
	inner    VerdictSource
	mu       sync.Mutex
	resolved map[uint64][]Report
}

func (s *recordingSource) Claim(fpr uint64) ClassClaim { return s.inner.Claim(fpr) }
func (s *recordingSource) Resolve(fpr uint64, clean bool, fresh []Report) {
	s.inner.Resolve(fpr, clean, fresh)
	if clean {
		s.mu.Lock()
		s.resolved[fpr] = append([]Report(nil), fresh...)
		s.mu.Unlock()
	}
}

// cachedSource answers every known fingerprint VerdictCached — a fully
// warm cross-campaign cache.
type cachedSource struct{ verdicts map[uint64][]Report }

func (s cachedSource) Claim(fpr uint64) ClassClaim {
	if reps, ok := s.verdicts[fpr]; ok {
		return ClassClaim{Verdict: VerdictCached, Reports: reps}
	}
	return ClassClaim{Verdict: VerdictOwn}
}
func (s cachedSource) Resolve(uint64, bool, []Report) {}

// TestCachedVerdictsSeedReports: a run against a fully warm cache post-runs
// nothing, lands every class in the CacheHits bucket, and still reports the
// cold run's exact key set — the cached reports are re-seeded, not lost.
func TestCachedVerdictsSeedReports(t *testing.T) {
	rec := &recordingSource{inner: NewClassRegistry().Bind("cold"), resolved: make(map[uint64][]Report)}
	cold, err := Run(Config{Verdicts: rec}, manyFPTarget("vcache-cold"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.resolved) == 0 {
		t.Fatal("cold run resolved no classes; nothing to cache")
	}

	warm, err := Run(Config{Verdicts: cachedSource{verdicts: rec.resolved}}, manyFPTarget("vcache-warm"))
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

// dirtyResolver wraps a registry binding and publishes every resolution as
// dirty — the view a second run has of a predecessor whose representatives
// all died or were quarantined.
type dirtyResolver struct{ inner VerdictSource }

func (s dirtyResolver) Claim(fpr uint64) ClassClaim { return s.inner.Claim(fpr) }
func (s dirtyResolver) Resolve(fpr uint64, clean bool, fresh []Report) {
	s.inner.Resolve(fpr, false, nil)
}

// TestDirtyRepresentativesNeverAttribute: when every class resolved dirty,
// a second run sharing the registry attributes nothing and re-runs every
// representative itself — degrading to PR 6 pruning, never to trust.
func TestDirtyRepresentativesNeverAttribute(t *testing.T) {
	plain, err := Run(Config{}, manyFPTarget("dirty-plain"))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewClassRegistry()
	if _, err := Run(Config{Verdicts: dirtyResolver{inner: reg.Bind("a")}}, manyFPTarget("dirty-a")); err != nil {
		t.Fatal(err)
	}
	second, err := Run(Config{Verdicts: reg.Bind("b")}, manyFPTarget("dirty-b"))
	if err != nil {
		t.Fatal(err)
	}
	if second.CrossShardPrunedFailurePoints != 0 || second.CacheHitFailurePoints != 0 {
		t.Errorf("second run attributed %d cross-shard + %d cached from dirty classes; poisoned verdicts must never attribute",
			second.CrossShardPrunedFailurePoints, second.CacheHitFailurePoints)
	}
	if second.PostRuns != plain.PostRuns {
		t.Errorf("second run post-ran %d, want %d (every representative re-run inline)", second.PostRuns, plain.PostRuns)
	}
	if !equalKeys(sortedKeys(second), sortedKeys(plain)) {
		t.Errorf("second run keys diverge from plain run:\nsecond: %v\nplain:  %v", sortedKeys(second), sortedKeys(plain))
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
