package core

import (
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// sortedKeys returns the deduplication keys of a result's reports, sorted,
// so sequential and parallel runs can be compared independent of discovery
// order.
func sortedKeys(res *Result) []string {
	var keys []string
	for _, r := range res.Reports {
		keys = append(keys, r.DedupKey())
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
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

// TestParallelEquivalence: parallel detection (§6.2.1's future work) must
// produce exactly the sequential report set, for clean and buggy targets
// alike.
func TestParallelEquivalence(t *testing.T) {
	targets := []func() Target{
		func() Target { return figure11Target("par-fig11") },
		figure2FixedTarget,
		func() Target {
			tg := figure2FixedTarget()
			tg.Name = "par-fig2-buggy"
			pre := tg.Pre
			tg.Pre = func(c *Ctx) error {
				c.Pool().Store64(0x700, 1) // extra unpersisted write
				if err := pre(c); err != nil {
					return err
				}
				c.Pool().Load64(0x700)
				return nil
			}
			post := tg.Post
			tg.Post = func(c *Ctx) error {
				c.Pool().Load64(0x700) // race
				return post(c)
			}
			return tg
		},
	}
	for _, mk := range targets {
		seq, err := Run(Config{}, mk())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := Run(Config{Workers: workers}, mk())
			if err != nil {
				t.Fatal(err)
			}
			if !equalKeys(sortedKeys(seq), sortedKeys(par)) {
				t.Errorf("%s with %d workers: reports differ\nseq: %v\npar: %v",
					seq.Target, workers, seq.Reports, par.Reports)
			}
			if par.FailurePoints != seq.FailurePoints || par.PostRuns != seq.PostRuns {
				t.Errorf("%s with %d workers: failure points %d/%d vs sequential %d/%d",
					seq.Target, workers, par.FailurePoints, par.PostRuns,
					seq.FailurePoints, seq.PostRuns)
			}
			if par.BenignReads != seq.BenignReads {
				t.Errorf("%s with %d workers: benign %d vs %d",
					seq.Target, workers, par.BenignReads, seq.BenignReads)
			}
		}
	}
}

// TestParallelPostFault: worker-side post-failure crashes are reported and
// do not wedge the pool.
func TestParallelPostFault(t *testing.T) {
	target := Target{
		Name: "par-crash",
		Pre: func(c *Ctx) error {
			for i := 0; i < 8; i++ {
				c.Pool().Store64(uint64(i)*64, 1)
				c.Pool().Persist(uint64(i)*64, 8)
			}
			return nil
		},
		Post: func(c *Ctx) error {
			var s []int
			_ = s[1] // crash in every post run
			return nil
		},
	}
	res, err := Run(Config{Workers: 4, DisablePerfBugs: true}, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count(PostFailureFault) != 1 {
		t.Fatalf("faults = %d, want 1 (deduplicated):\n%s", res.Count(PostFailureFault), res)
	}
	if res.PostRuns < 8 {
		t.Errorf("post runs = %d, want >= 8", res.PostRuns)
	}
}

// TestParallelTraceRetention: Workers > 1 does not force KeepTrace, and
// explicit retention still works alongside workers (sibling 0 keeps the
// trace).
func TestParallelTraceRetention(t *testing.T) {
	res, err := Run(Config{Workers: 2}, figure11Target("par-trace"))
	if err != nil {
		t.Fatal(err)
	}
	if res.PreTrace() != nil {
		t.Fatal("parallel run retained the pre-failure trace without KeepTrace")
	}
	res, err = Run(Config{Workers: 2, KeepTrace: true}, figure11Target("par-trace-keep"))
	if err != nil {
		t.Fatal(err)
	}
	if res.PreTrace() == nil || res.PreTrace().Len() == 0 {
		t.Fatal("KeepTrace ignored in parallel mode")
	}
}

// TestSiblingsDisagreeingOnFailurePoints: Workers > 1 requires a
// deterministic pre-failure stage. Siblings that inject different numbers
// of failure points cannot fold into an accounting that adds up, so the
// run is marked Incomplete and says why.
func TestSiblingsDisagreeingOnFailurePoints(t *testing.T) {
	var starts atomic.Int32
	target := Target{
		Name: "nondeterministic-pre",
		Pre: func(c *Ctx) error {
			// One fence for the first sibling to start, two for the second.
			n := starts.Add(1)
			for i := int32(0); i < n; i++ {
				c.Pool().Store64(uint64(i)*64, 1)
				c.Pool().Persist(uint64(i)*64, 8)
			}
			return nil
		},
		Post: func(c *Ctx) error { return nil },
	}
	res, err := Run(Config{Workers: 2, DisablePerfBugs: true}, target)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete || !strings.Contains(res.IncompleteReason, "not deterministic") {
		t.Errorf("siblings disagreeing on the failure points must mark the run incomplete:\n%s", res)
	}
}
