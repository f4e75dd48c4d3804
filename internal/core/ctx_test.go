package core

import (
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/trace"
)

// TestAnnotationConditionAndStage: every Table 2 function is a no-op when
// its condition is false or its stage does not match.
func TestAnnotationConditionAndStage(t *testing.T) {
	target := Target{
		Name:        "cond-stage",
		ExplicitRoI: true,
		Pre: func(c *Ctx) error {
			p := c.Pool()
			// condition=false: RoI never opens, so no failure points.
			c.RoIBegin(false, trace.PreFailure)
			// wrong stage: still no effect.
			c.RoIBegin(true, trace.PostFailure)
			p.Store64(0, 1)
			p.Persist(0, 8)
			c.RoIEnd(false, trace.PreFailure)
			return nil
		},
		Post: func(c *Ctx) error {
			c.Pool().Load64(0)
			return nil
		},
	}
	res, err := Run(Config{DisablePerfBugs: true}, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailurePoints != 0 {
		t.Errorf("failure points = %d, want 0 (RoI never active)", res.FailurePoints)
	}
}

// TestBothStagesMatchesEverywhere: trace.BothStages satisfies the stage
// check in both stages.
func TestBothStagesMatchesEverywhere(t *testing.T) {
	target := Target{
		Name:        "both-stages",
		ExplicitRoI: true,
		Pre: func(c *Ctx) error {
			c.RoIBegin(true, trace.BothStages)
			c.Pool().Store64(0, 1)
			c.Pool().Persist(0x40, 8) // barrier not covering 0x0
			c.RoIEnd(true, trace.BothStages)
			return nil
		},
		Post: func(c *Ctx) error {
			c.RoIBegin(true, trace.BothStages)
			c.Pool().Load64(0) // race, checked because RoI opened via BothStages
			c.RoIEnd(true, trace.BothStages)
			return nil
		},
	}
	res, err := Run(Config{DisablePerfBugs: true}, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count(CrossFailureRace) != 1 {
		t.Fatalf("races = %d, want 1:\n%s", res.Count(CrossFailureRace), res)
	}
}

// TestCtxAccessors covers the small informational methods.
func TestCtxAccessors(t *testing.T) {
	checked := false
	target := Target{
		Name: "accessors",
		Pre: func(c *Ctx) error {
			if c.Stage() != trace.PreFailure || c.FailurePoint() != -1 {
				t.Errorf("pre ctx: stage=%v fp=%d", c.Stage(), c.FailurePoint())
			}
			c.Pool().Store64(0, 1)
			c.Pool().Persist(0, 8)
			return nil
		},
		Post: func(c *Ctx) error {
			if c.Stage() != trace.PostFailure || c.FailurePoint() < 0 {
				t.Errorf("post ctx: stage=%v fp=%d", c.Stage(), c.FailurePoint())
			}
			checked = true
			return nil
		},
	}
	if _, err := Run(Config{DisablePerfBugs: true}, target); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("post stage never ran")
	}
}

// TestSetupErrors: harness-level failures surface as errors, not reports.
func TestSetupErrors(t *testing.T) {
	boom := Target{
		Name:  "setup-fail",
		Setup: func(c *Ctx) error { return errTest },
		Pre:   func(c *Ctx) error { return nil },
	}
	if _, err := Run(Config{}, boom); err == nil || !strings.Contains(err.Error(), "setup failed") {
		t.Fatalf("err = %v", err)
	}
	boom2 := Target{
		Name: "pre-fail",
		Pre:  func(c *Ctx) error { return errTest },
	}
	if _, err := Run(Config{}, boom2); err == nil || !strings.Contains(err.Error(), "pre-failure stage failed") {
		t.Fatalf("err = %v", err)
	}
	// Every sibling must finish even when Pre fails.
	boom3 := Target{
		Name: "pre-fail-parallel",
		Pre: func(c *Ctx) error {
			c.Pool().Store64(0, 1)
			c.Pool().Persist(0, 8)
			return errTest
		},
		Post: func(c *Ctx) error { return nil },
	}
	if _, err := Run(Config{Workers: 2}, boom3); err == nil {
		t.Fatal("expected error from failing pre stage")
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "synthetic failure" }

// TestNoFailureInjectionDuringSetup: ordering points in Setup inject
// nothing (the artifact initializes the image before testing starts).
func TestNoFailureInjectionDuringSetup(t *testing.T) {
	target := Target{
		Name: "setup-quiet",
		Setup: func(c *Ctx) error {
			for i := 0; i < 5; i++ {
				c.Pool().Store64(uint64(i)*64, 1)
				c.Pool().Persist(uint64(i)*64, 8)
			}
			return nil
		},
		Pre:  func(c *Ctx) error { return nil },
		Post: func(c *Ctx) error { return nil },
	}
	res, err := Run(Config{DisablePerfBugs: true}, target)
	if err != nil {
		t.Fatal(err)
	}
	// Only the final quiescent failure point (setup ops count as opsEver).
	if res.FailurePoints > 1 {
		t.Errorf("failure points = %d, want <= 1", res.FailurePoints)
	}
}

// TestReportFormatting pins the report rendering used throughout the docs.
func TestReportFormatting(t *testing.T) {
	r := Report{
		Class: CrossFailureRace, Addr: 0x40, Size: 8,
		ReaderIP: "post.go:9", WriterIP: "pre.go:4", FailurePoint: 3,
	}
	s := r.String()
	for _, want := range []string{"CROSS-FAILURE RACE", "post.go:9", "pre.go:4", "0x40", "failure point 3"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q misses %q", s, want)
		}
	}
	p := Report{Class: Performance, ReaderIP: "x.go:1", Addr: 1, Size: 2}
	if !strings.Contains(p.String(), "redundant-writeback") {
		t.Errorf("perf report: %q", p.String())
	}
	f := Report{Class: PostFailureFault, Message: "pool exploded", FailurePoint: 7}
	if !strings.Contains(f.String(), "pool exploded") {
		t.Errorf("fault report: %q", f.String())
	}
	var unknown BugClass = 99
	if !strings.Contains(unknown.String(), "BugClass(99)") {
		t.Errorf("unknown class: %q", unknown.String())
	}
}

// TestModeStrings pins the mode names used in CLI flags.
func TestModeStrings(t *testing.T) {
	if ModeDetect.String() != "detect" || ModeTraceOnly.String() != "trace-only" ||
		ModeOriginal.String() != "original" {
		t.Error("mode names changed")
	}
}
