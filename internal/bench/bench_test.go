package bench

import (
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/pmredis"
)

func TestTable4Composition(t *testing.T) {
	rows := Table4()
	if len(rows) != 7 {
		t.Fatalf("Table 4 has %d rows, want 7 (5 micro + Memcached + Redis)", len(rows))
	}
	wantTypes := map[string]string{
		"B-Tree": "Transaction", "C-Tree": "Transaction", "RB-Tree": "Transaction",
		"Hashmap-TX": "Transaction", "Hashmap-Atomic": "Low-level",
		"Memcached": "Low-level", "Redis": "Transaction",
	}
	for _, r := range rows {
		if wantTypes[r.Name] != r.Type {
			t.Errorf("%s type = %q, want %q", r.Name, r.Type, wantTypes[r.Name])
		}
		if r.Target == nil {
			t.Errorf("%s has no target builder", r.Name)
		}
	}
}

// TestRealWorldTargetsCleanUnderDetection runs the Redis and Memcached
// detection targets (the Table 4 real-world rows) with the Fig. 12
// configuration and requires them to be clean.
func TestRealWorldTargetsCleanUnderDetection(t *testing.T) {
	targets := []core.Target{
		RedisTarget(pmredis.Options{}, Fig12Config),
		MemcachedTarget(Fig12Config),
	}
	for _, target := range targets {
		res, err := core.Run(core.Config{PoolSize: DefaultPoolSize}, target)
		if err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		if len(res.Reports) != 0 {
			t.Errorf("%s produced reports:\n%s", target.Name, res)
		}
		if res.FailurePoints == 0 {
			t.Errorf("%s injected no failure points", target.Name)
		}
	}
}

// TestNewBugsReportOutput checks the §6.3.2 reproduction driver reports
// all four bugs as detected.
func TestNewBugsReportOutput(t *testing.T) {
	var sb strings.Builder
	if err := NewBugsReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, bug := range []string{"Bug 1", "Bug 2", "Bug 3", "Bug 4"} {
		if !strings.Contains(out, bug) {
			t.Errorf("report misses %s", bug)
		}
	}
	if strings.Contains(out, "NOT DETECTED") {
		t.Errorf("a paper bug was not detected:\n%s", out)
	}
	if strings.Count(out, "DETECTED") != 4 {
		t.Errorf("want 4 detections:\n%s", out)
	}
}

// TestWriteTable1Output checks the mechanisms driver output shape.
func TestWriteTable1Output(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable1(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, m := range []string{"undo-logging", "redo-logging", "checkpointing",
		"shadow-paging", "operational-logging", "checksum-recovery"} {
		if !strings.Contains(out, m) {
			t.Errorf("table misses %s", m)
		}
	}
	if strings.Contains(out, "false") {
		t.Errorf("a mechanism was not clean:\n%s", out)
	}
	if strings.Contains(out, "(none)") {
		t.Errorf("a seeded mechanism bug was not detected:\n%s", out)
	}
}

// TestFig12aShape runs the Fig. 12a experiment and checks the paper's
// shape on its per-workload medians: the post-failure stage dominates for
// every workload.
func TestFig12aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	rows, err := Fig12a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PostSeconds <= r.PreSeconds {
			t.Errorf("%s: post %.4fs <= pre %.4fs — post-failure stage must dominate",
				r.Workload, r.PostSeconds, r.PreSeconds)
		}
		if r.FailurePoints == 0 || r.PostRuns != r.FailurePoints {
			t.Errorf("%s: failure points %d, post runs %d", r.Workload, r.FailurePoints, r.PostRuns)
		}
	}
}
