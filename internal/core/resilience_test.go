package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// Resilience tests: the detection loop must survive hostile targets and
// harness-internal faults, degrading into honest partial results instead of
// crashing, hanging, or leaking goroutines.

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (small slack for runtime bookkeeping goroutines), failing with a
// full stack dump when it does not.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestSetupPanicRecovered: a panicking Setup must become a harness error,
// not a process crash.
func TestSetupPanicRecovered(t *testing.T) {
	target := Target{
		Name:  "setup-panic",
		Setup: func(c *Ctx) error { panic("hostile setup") },
		Pre:   func(c *Ctx) error { return nil },
	}
	res, err := Run(Config{}, target)
	if err == nil {
		t.Fatalf("expected a harness error, got result:\n%v", res)
	}
	if !strings.Contains(err.Error(), "setup panicked") || !strings.Contains(err.Error(), "hostile setup") {
		t.Errorf("error %q does not describe the setup panic", err)
	}
}

// TestPrePanicRecovered: same for the pre-failure stage, including a
// RangeError panic from an out-of-bounds PM access.
func TestPrePanicRecovered(t *testing.T) {
	for _, tc := range []struct {
		name string
		pre  func(c *Ctx) error
		want string
	}{
		{"explicit", func(c *Ctx) error { panic("hostile pre") }, "hostile pre"},
		{"oob", func(c *Ctx) error { c.Pool().Store64(1<<40, 1); return nil }, "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Config{}, Target{Name: "pre-panic", Pre: tc.pre})
			if err == nil {
				t.Fatalf("expected a harness error, got result:\n%v", res)
			}
			if !strings.Contains(err.Error(), "pre-failure stage panicked") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not describe the pre-failure panic", err)
			}
		})
	}
}

// TestStageErrorsKeepWrapping: plain stage errors still come back wrapped,
// with the cause reachable through errors.Is.
func TestStageErrorsKeepWrapping(t *testing.T) {
	cause := errors.New("disk on fire")
	_, err := Run(Config{}, Target{
		Name: "pre-error",
		Pre:  func(c *Ctx) error { return cause },
	})
	if !errors.Is(err, cause) {
		t.Fatalf("pre-failure error lost its cause: %v", err)
	}
}

// TestNoWorkerLeakOnFailingStages: with Workers > 1, every sibling
// goroutine must finish even when Setup or Pre fails or panics.
func TestNoWorkerLeakOnFailingStages(t *testing.T) {
	stages := map[string]Target{
		"setup-error": {
			Name:  "leak-setup-error",
			Setup: func(c *Ctx) error { return errors.New("setup says no") },
			Pre:   func(c *Ctx) error { return nil },
			Post:  func(c *Ctx) error { return nil },
		},
		"setup-panic": {
			Name:  "leak-setup-panic",
			Setup: func(c *Ctx) error { panic("setup panic") },
			Pre:   func(c *Ctx) error { return nil },
			Post:  func(c *Ctx) error { return nil },
		},
		"pre-error": {
			Name: "leak-pre-error",
			Pre:  func(c *Ctx) error { return errors.New("pre says no") },
			Post: func(c *Ctx) error { return nil },
		},
		"pre-panic": {
			Name: "leak-pre-panic",
			Pre:  func(c *Ctx) error { panic("pre panic") },
			Post: func(c *Ctx) error { return nil },
		},
	}
	for name, target := range stages {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if _, err := Run(Config{Workers: 4}, target); err == nil {
				t.Fatal("expected a harness error")
			}
			waitForGoroutines(t, base)
		})
	}
}

// spinTarget returns a target with many failure points whose post stage
// spins forever in the given way.
func spinTarget(name string, post func(c *Ctx) error) Target {
	return Target{
		Name: name,
		Pre: func(c *Ctx) error {
			for i := 0; i < 6; i++ {
				c.Pool().Store64(uint64(i)*64, uint64(i)+1)
				c.Pool().Persist(uint64(i)*64, 8)
			}
			return nil
		},
		Post: post,
	}
}

// TestPostRunTimeoutAbandonsPMSpinner: a post-failure stage looping on PM
// reads forever (within the MaxPostOps budget) is abandoned at the
// deadline, reported as a post-failure fault, counted in
// AbandonedPostRuns, and its goroutines drain (they unwind at their next
// PM operation). Sequential and parallel modes alike.
func TestPostRunTimeoutAbandonsPMSpinner(t *testing.T) {
	post := func(c *Ctx) error {
		for {
			c.Pool().Load64(0)
			time.Sleep(100 * time.Microsecond)
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			res, err := Run(Config{
				Workers:         workers,
				PostRunTimeout:  30 * time.Millisecond,
				DisablePerfBugs: true,
			}, spinTarget("pm-spinner", post))
			if err != nil {
				t.Fatal(err)
			}
			if res.AbandonedPostRuns != res.PostRuns || res.PostRuns == 0 {
				t.Errorf("abandoned = %d, post runs = %d: every post run should be abandoned",
					res.AbandonedPostRuns, res.PostRuns)
			}
			if got := res.Count(PostFailureFault); got != 1 {
				t.Errorf("post-failure faults = %d, want 1 (deduplicated deadline report):\n%s", got, res)
			}
			if res.Incomplete {
				t.Errorf("deadline abandonment must not mark the result incomplete:\n%s", res)
			}
			waitForGoroutines(t, base)
		})
	}
}

// TestPostRunTimeoutAbandonsSilentSpinner: a post-failure stage that never
// touches PM — invisible to the MaxPostOps budget — is still abandoned; a
// cooperative spinner watching Ctx.Abandoned drains promptly.
func TestPostRunTimeoutAbandonsSilentSpinner(t *testing.T) {
	post := func(c *Ctx) error {
		<-c.Abandoned() // park without ever touching PM
		return errors.New("abandoned")
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			res, err := Run(Config{
				Workers:         workers,
				PostRunTimeout:  20 * time.Millisecond,
				DisablePerfBugs: true,
			}, spinTarget("silent-spinner", post))
			if err != nil {
				t.Fatal(err)
			}
			if res.AbandonedPostRuns != res.PostRuns || res.PostRuns == 0 {
				t.Errorf("abandoned = %d, post runs = %d", res.AbandonedPostRuns, res.PostRuns)
			}
			waitForGoroutines(t, base)
		})
	}
}

// TestPostRunTimeoutSparesFastRuns: with a generous deadline, the timed
// path must behave exactly like the untimed one.
func TestPostRunTimeoutSparesFastRuns(t *testing.T) {
	plain, err := Run(Config{}, figure11Target("timed-base"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		timed, err := Run(Config{Workers: workers, PostRunTimeout: time.Minute}, figure11Target("timed-base"))
		if err != nil {
			t.Fatal(err)
		}
		if !equalKeys(sortedKeys(plain), sortedKeys(timed)) {
			t.Errorf("workers=%d: timed run diverges:\nplain: %v\ntimed: %v", workers, plain.Reports, timed.Reports)
		}
		if timed.AbandonedPostRuns != 0 || timed.Incomplete {
			t.Errorf("workers=%d: spurious degradation: %+v", workers, timed)
		}
	}
}

// TestCancellationAtFailurePointBoundaries: once the context is cancelled,
// no further post-runs start; the pre-failure stage still numbers every
// failure point, and the partial result is honest about what was skipped.
// Under workers=4 every sibling runs the pre-failure stage and bumps the
// shared counter, so the cancellation lands wherever the third increment
// does; each sibling still numbers all nine points.
func TestCancellationAtFailurePointBoundaries(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var fired atomic.Int32
			target := Target{
				Name: "cancel-mid-pre",
				Pre: func(c *Ctx) error {
					for i := 0; i < 8; i++ {
						c.Pool().Store64(uint64(i)*64, 1)
						c.Pool().Persist(uint64(i)*64, 8)
						if fired.Add(1) == 3 {
							cancel()
						}
					}
					return nil
				},
				Post: func(c *Ctx) error { c.Pool().Load64(0); return nil },
			}
			res, err := RunContext(ctx, Config{Workers: workers, DisablePerfBugs: true}, target)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Incomplete {
				t.Fatalf("cancelled run not marked incomplete:\n%s", res)
			}
			// 8 ordering points plus the final quiescent injection, all
			// numbered whether or not their post-runs ran.
			if res.FailurePoints != 9 {
				t.Errorf("failure points = %d, want 9 (numbering continues past cancellation)", res.FailurePoints)
			}
			checkBuckets(t, res)
			if workers == 1 && (res.PostRuns != 3 || res.SkippedFailurePoints != 6) {
				// The 5 remaining ordering points plus the final quiescent
				// injection are skipped.
				t.Errorf("post runs / skipped = %d / %d, want 3 / 6", res.PostRuns, res.SkippedFailurePoints)
			}
			if !strings.Contains(res.IncompleteReason, "cancelled") {
				t.Errorf("reason %q does not mention cancellation", res.IncompleteReason)
			}
		})
	}
}

// TestSnapshotFaultQuarantine: a failing image copy is retried once; a
// persistent fault quarantines the failure point and the campaign
// continues, in both engine modes.
func TestSnapshotFaultQuarantine(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			hooks := &pmem.FaultHooks{Snapshot: func(fp int) error {
				// Fail both the first attempt and its retry for the second
				// failure point only.
				if fp == 1 {
					return errors.New("image copy exhausted")
				}
				return nil
			}}
			res, err := Run(Config{Workers: workers, DisablePerfBugs: true, FaultHooks: hooks},
				spinMultiFPTarget("snap-fault"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Incomplete || res.SkippedFailurePoints != 1 {
				t.Fatalf("want exactly one quarantined failure point, got skipped=%d incomplete=%v:\n%s",
					res.SkippedFailurePoints, res.Incomplete, res)
			}
			if len(res.HarnessFaults) != 1 || !strings.Contains(res.HarnessFaults[0], "image-copy") {
				t.Errorf("harness faults = %v, want one image-copy quarantine", res.HarnessFaults)
			}
			// The other failure points still produced their race report.
			if res.Count(CrossFailureRace) == 0 {
				t.Errorf("campaign did not continue past the quarantine:\n%s", res)
			}
		})
	}
}

// spinMultiFPTarget: several failure points, each post-run reads one
// never-persisted location (a stable race report).
func spinMultiFPTarget(name string) Target {
	return Target{
		Name: name,
		Pre: func(c *Ctx) error {
			c.Pool().Store64(0x800, 7) // never persisted
			for i := 0; i < 4; i++ {
				c.Pool().Store64(uint64(i)*64, 1)
				c.Pool().Persist(uint64(i)*64, 8)
			}
			return nil
		},
		Post: func(c *Ctx) error { c.Pool().Load64(0x800); return nil },
	}
}

// TestSnapshotFaultRetrySucceeds: a transient copy fault (fails once,
// retry succeeds) must not degrade the campaign at all.
func TestSnapshotFaultRetrySucceeds(t *testing.T) {
	clean, err := Run(Config{DisablePerfBugs: true}, spinMultiFPTarget("snap-retry"))
	if err != nil {
		t.Fatal(err)
	}
	var failed atomic.Bool
	hooks := &pmem.FaultHooks{Snapshot: func(int) error {
		if failed.CompareAndSwap(false, true) {
			return errors.New("transient copy failure")
		}
		return nil
	}}
	res, err := Run(Config{DisablePerfBugs: true, FaultHooks: hooks}, spinMultiFPTarget("snap-retry"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete || res.SkippedFailurePoints != 0 {
		t.Fatalf("transient fault degraded the run: %+v", res)
	}
	if !equalKeys(sortedKeys(clean), sortedKeys(res)) {
		t.Errorf("report set diverged after a retried copy fault:\nclean: %v\nfault: %v", clean.Reports, res.Reports)
	}
}

// TestSinkFaultQuarantine: a post-failure trace sink that persistently
// fails quarantines the affected post-runs; the pre-failure stage is
// unaffected because the hook targets the post stage.
func TestSinkFaultQuarantine(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			hooks := &pmem.FaultHooks{Sink: func(e trace.Entry) error {
				if e.Stage == trace.PostFailure {
					return errors.New("post trace spool broken")
				}
				return nil
			}}
			res, err := Run(Config{Workers: workers, DisablePerfBugs: true, FaultHooks: hooks},
				spinMultiFPTarget("sink-fault"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Incomplete || res.SkippedFailurePoints == 0 {
				t.Fatalf("persistent sink faults must quarantine post-runs:\n%s", res)
			}
			if res.SkippedFailurePoints != res.FailurePoints {
				t.Errorf("skipped = %d, want all %d failure points", res.SkippedFailurePoints, res.FailurePoints)
			}
			for _, f := range res.HarnessFaults {
				if !strings.Contains(f, "trace-sink") {
					t.Errorf("harness fault %q does not name the trace sink", f)
				}
			}
			if got := res.Count(CrossFailureRace); got != 0 {
				t.Errorf("quarantined post-runs still produced %d race reports", got)
			}
		})
	}
}

// TestSinkFaultInPreStage: a harness fault while tracing the pre-failure
// stage fails the run with an error — gracefully, and without leaking the
// sibling goroutines of a Workers > 1 run.
func TestSinkFaultInPreStage(t *testing.T) {
	hooks := &pmem.FaultHooks{Sink: func(e trace.Entry) error {
		if e.Stage == trace.PreFailure && e.Kind == trace.Write {
			return errors.New("pre trace spool broken")
		}
		return nil
	}}
	base := runtime.NumGoroutine()
	res, err := Run(Config{Workers: 4, FaultHooks: hooks}, spinMultiFPTarget("pre-sink-fault"))
	if err == nil {
		t.Fatalf("expected a harness error, got:\n%v", res)
	}
	if !strings.Contains(err.Error(), "trace-sink") {
		t.Errorf("error %q does not name the trace sink", err)
	}
	waitForGoroutines(t, base)
}

// TestResumeConvergesToIdenticalReports is the core-level half of the
// crash-safe-resume contract: running the first half of a campaign,
// checkpointing completed failure points, then resuming with those failure
// points marked complete and their reports seeded must converge to exactly
// the uninterrupted run's deduplicated report set.
func TestResumeConvergesToIdenticalReports(t *testing.T) {
	mk := func() Target { return figure11Target("resume") }

	type line struct {
		fp    int
		fresh []Report
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var full []line
			cfg := Config{Workers: workers, OnPostRunComplete: func(fp int, _ uint64, fresh []Report) {
				full = append(full, line{fp, fresh})
			}}
			ref, err := Run(cfg, mk())
			if err != nil {
				t.Fatal(err)
			}
			if len(full) != ref.PostRuns {
				t.Fatalf("checkpoint callbacks = %d, want %d", len(full), ref.PostRuns)
			}

			// Simulate a crash after the first half of the checkpoint.
			done := make(map[int]bool)
			var seed []Report
			for _, l := range full[:len(full)/2] {
				done[l.fp] = true
				seed = append(seed, l.fresh...)
			}
			res, err := Run(Config{
				Workers:                workers,
				CompletedFailurePoints: done,
				SeedReports:            seed,
			}, mk())
			if err != nil {
				t.Fatal(err)
			}
			if !equalKeys(sortedKeys(ref), sortedKeys(res)) {
				t.Errorf("resumed report set diverges:\nfull:    %v\nresumed: %v", sortedKeys(ref), sortedKeys(res))
			}
			if res.ResumedFailurePoints != len(done) {
				t.Errorf("resumed failure points = %d, want %d", res.ResumedFailurePoints, len(done))
			}
			if res.FailurePoints != ref.FailurePoints {
				t.Errorf("failure points = %d, want %d", res.FailurePoints, ref.FailurePoints)
			}
			if res.PostRuns != ref.PostRuns-len(done) {
				t.Errorf("post runs = %d, want %d", res.PostRuns, ref.PostRuns-len(done))
			}
			if res.Incomplete {
				t.Errorf("resume must not mark the run incomplete: %+v", res)
			}
		})
	}
}

// TestMaxPostOpsBudgetUnderWorkers: a post-failure stage that loops over
// PM forever is cut off by the operation budget under Workers > 1 exactly
// as in sequential mode — same post-failure-fault report, same
// deduplicated set.
func TestMaxPostOpsBudgetUnderWorkers(t *testing.T) {
	mk := func() Target {
		return spinTarget("post-budget", func(c *Ctx) error {
			for {
				c.Pool().Load64(0)
			}
		})
	}
	cfg := func(workers int) Config {
		return Config{Workers: workers, MaxPostOps: 500, DisablePerfBugs: true}
	}
	seq, err := Run(cfg(1), mk())
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.Count(PostFailureFault); got != 1 {
		t.Fatalf("sequential budget faults = %d, want 1:\n%s", got, seq)
	}
	if !strings.Contains(seq.ByClass(PostFailureFault)[0].Message, "501 PM operations") {
		t.Errorf("fault does not cite the budget: %s", seq.ByClass(PostFailureFault)[0])
	}
	if seq.Incomplete || seq.AbandonedPostRuns != 0 {
		t.Errorf("budget exhaustion must degrade per-run, not the campaign: %+v", seq)
	}
	for _, workers := range []int{2, 4} {
		par, err := Run(cfg(workers), mk())
		if err != nil {
			t.Fatal(err)
		}
		if !equalKeys(sortedKeys(seq), sortedKeys(par)) {
			t.Errorf("workers=%d: report set diverges from sequential:\nseq: %v\npar: %v",
				workers, seq.Reports, par.Reports)
		}
		if par.PostRuns != seq.PostRuns {
			t.Errorf("workers=%d: post runs = %d, want %d", workers, par.PostRuns, seq.PostRuns)
		}
	}
}
