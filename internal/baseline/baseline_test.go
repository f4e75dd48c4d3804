package baseline_test

import (
	"testing"

	"github.com/pmemgo/xfdetector/internal/baseline"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/trace"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

// tracePreFailure runs a seeded workload once, uninterrupted, keeping the
// pre-failure trace — the only input a pre-failure-only tool ever sees.
func tracePreFailure(t *testing.T, fault string, workload string) *trace.Trace {
	t.Helper()
	m, ok := workloads.MakerFor(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	cfg := workloads.TargetConfig{
		InitSize: 10, TestSize: 5, Updates: 2, Removes: 5,
		Fault: fault, FaultInCreate: true, PostOps: true,
	}
	res, err := core.Run(core.Config{
		Mode: core.ModeTraceOnly, KeepTrace: true, PoolSize: 4 << 20,
	}, workloads.DetectionTarget(m, cfg))
	if err != nil {
		t.Fatalf("tracing %s/%s: %v", workload, fault, err)
	}
	return res.PreTrace()
}

func hasKind(fs []baseline.Finding, kinds ...baseline.FindingKind) bool {
	for _, f := range fs {
		for _, k := range kinds {
			if f.Kind == k {
				return true
			}
		}
	}
	return false
}

// TestBaselinesCatchSimpleRaces confirms the baselines are not strawmen:
// classic missing-writeback and missing-TX_ADD bugs are within their reach.
func TestBaselinesCatchSimpleRaces(t *testing.T) {
	cases := []struct{ workload, fault string }{
		{"Hashmap-Atomic", "hma-skip-entry-persist"},
		{"Hashmap-Atomic", "hma-update-val-no-persist"},
		{"B-Tree", "btree-skip-add-leaf"},
		{"Hashmap-TX", "hmtx-skip-add-slot"},
	}
	for _, c := range cases {
		tr := tracePreFailure(t, c.fault, c.workload)
		size := baseline.PoolSizeFor(tr)
		pc := baseline.Pmemcheck(tr, size)
		pt := baseline.PMTest(tr, size)
		if !hasKind(pc, baseline.NotPersisted, baseline.NotFenced) &&
			!hasKind(pt, baseline.UnprotectedTxWrite, baseline.NotPersisted, baseline.NotFenced) {
			t.Errorf("%s/%s: neither baseline caught it (pmemcheck=%v, pmtest=%v)",
				c.workload, c.fault, pc, pt)
		}
	}
}

// TestBaselinesMissCrossFailureBugs is the Fig. 3 claim: pre-failure-only
// tools cannot see cross-failure semantic bugs or post-failure-stage bugs,
// all of which XFDetector detects (TestTable5Validation).
func TestBaselinesMissCrossFailureBugs(t *testing.T) {
	cases := []struct{ workload, fault string }{
		// The four cross-failure semantic bugs: every store is flushed and
		// fenced and every TX rule is obeyed — only the ordering relative
		// to the commit variable is wrong, which is invisible without
		// running recovery.
		{"Hashmap-Atomic", "hma-sem-inverted-dirty"},
		{"Hashmap-Atomic", "hma-sem-count-before-dirty"},
		{"Hashmap-Atomic", "hma-sem-dirty-clear-early"},
		// A transient persistence bug: the count's missed writeback is
		// masked by a later operation's persist, so the end-of-run state
		// the baselines inspect looks fine — only failure injection inside
		// the window sees it.
		{"Hashmap-Atomic", "hma-skip-count-persist"},
		// Post-failure-stage bugs: the pre-failure trace is flawless; the
		// recovery code is what is broken.
		{"B-Tree", "btree-naive-recovery"},
		{"C-Tree", "ctree-naive-recovery"},
		{"RB-Tree", "rbt-naive-recovery"},
		{"Hashmap-TX", "hmtx-naive-recovery"},
		{"Hashmap-Atomic", "hma-recovery-skip-scrub"},
	}
	for _, c := range cases {
		tr := tracePreFailure(t, c.fault, c.workload)
		size := baseline.PoolSizeFor(tr)
		// The raw-store statistics (cachedCount and the in-flight windows
		// of low-level protocols) legitimately end the run with a small
		// unpersisted tail only when the trace is cut mid-window; a full
		// uninterrupted run ends quiescent, so any NotPersisted finding
		// here would be a real catch. Require both tools to stay silent.
		if fs := baseline.Pmemcheck(tr, size); hasKind(fs, baseline.NotPersisted, baseline.NotFenced, baseline.RedundantFlush) {
			t.Errorf("%s/%s: pmemcheck unexpectedly reported %v", c.workload, c.fault, fs)
		}
		if fs := baseline.PMTest(tr, size); hasKind(fs, baseline.UnprotectedTxWrite, baseline.NotPersisted, baseline.NotFenced, baseline.DuplicateTxAdd) {
			t.Errorf("%s/%s: PMTest unexpectedly reported %v", c.workload, c.fault, fs)
		}
	}
}

// TestBaselinesCleanOnCorrectPrograms: no false positives on the correct
// workloads either.
func TestBaselinesCleanOnCorrectPrograms(t *testing.T) {
	for _, m := range workloads.Makers() {
		tr := tracePreFailure(t, "", m.Name)
		size := baseline.PoolSizeFor(tr)
		if fs := baseline.Pmemcheck(tr, size); len(fs) != 0 {
			t.Errorf("%s: pmemcheck false positives: %v", m.Name, fs)
		}
		if fs := baseline.PMTest(tr, size); len(fs) != 0 {
			t.Errorf("%s: PMTest false positives: %v", m.Name, fs)
		}
	}
}

// TestPmemcheckDirect exercises the checkers on hand-built traces.
func TestPmemcheckDirect(t *testing.T) {
	tr := trace.New()
	tr.Append(trace.Entry{Kind: trace.Write, Addr: 0, Size: 8, IP: "a.go:1"})
	tr.Append(trace.Entry{Kind: trace.CLWB, Addr: 0, Size: 64, IP: "a.go:2"})
	tr.Append(trace.Entry{Kind: trace.SFence})
	tr.Append(trace.Entry{Kind: trace.Write, Addr: 64, Size: 8, IP: "a.go:4"}) // never flushed
	tr.Append(trace.Entry{Kind: trace.Write, Addr: 128, Size: 8, IP: "a.go:5"})
	tr.Append(trace.Entry{Kind: trace.CLWB, Addr: 128, Size: 64, IP: "a.go:6"}) // never fenced

	fs := baseline.Pmemcheck(tr, baseline.PoolSizeFor(tr))
	if len(fs) != 2 {
		t.Fatalf("findings = %v, want 2", fs)
	}
	wantKinds := map[baseline.FindingKind]string{
		NotPersistedKind(): "a.go:4",
		NotFencedKind():    "a.go:5",
	}
	for _, f := range fs {
		if ip, ok := wantKinds[f.Kind]; !ok || ip != f.IP {
			t.Errorf("unexpected finding %v", f)
		}
	}
}

// Tiny indirections keep the expected-kind table readable.
func NotPersistedKind() baseline.FindingKind { return baseline.NotPersisted }
func NotFencedKind() baseline.FindingKind    { return baseline.NotFenced }

func TestPMTestDirectUnprotectedWrite(t *testing.T) {
	tr := trace.New()
	tr.Append(trace.Entry{Kind: trace.TxBegin})
	tr.Append(trace.Entry{Kind: trace.TxAdd, Addr: 0, Size: 16, IP: "b.go:1"})
	tr.Append(trace.Entry{Kind: trace.Write, Addr: 0, Size: 8, IP: "b.go:2"})  // covered
	tr.Append(trace.Entry{Kind: trace.Write, Addr: 64, Size: 8, IP: "b.go:3"}) // unprotected
	tr.Append(trace.Entry{Kind: trace.TxAdd, Addr: 0, Size: 16, IP: "b.go:4"}) // duplicate
	tr.Append(trace.Entry{Kind: trace.TxCommit})

	fs := baseline.PMTest(tr, baseline.PoolSizeFor(tr))
	if !hasKind(fs, baseline.UnprotectedTxWrite) {
		t.Errorf("missed unprotected tx write: %v", fs)
	}
	if !hasKind(fs, baseline.DuplicateTxAdd) {
		t.Errorf("missed duplicate TX_ADD: %v", fs)
	}
}

// TestPmemcheckLeavesDuplicateTxAddToPMTest: a TX_ADD repeated in one
// transaction is a transaction-checker finding, PMTest's, which the fault
// registry credits for btree-dup-add-leaf. pmemcheck checks flushes, and
// that program has no redundant flush, so it must report none; PMTest
// reports the duplicate.
func TestPmemcheckLeavesDuplicateTxAddToPMTest(t *testing.T) {
	tr := tracePreFailure(t, "btree-dup-add-leaf", "B-Tree")
	size := baseline.PoolSizeFor(tr)
	if fs := baseline.Pmemcheck(tr, size); hasKind(fs, baseline.RedundantFlush) {
		t.Errorf("pmemcheck reports a redundant flush for a duplicate TX_ADD: %v", fs)
	}
	if fs := baseline.PMTest(tr, size); !hasKind(fs, baseline.DuplicateTxAdd) {
		t.Errorf("PMTest missed the duplicate TX_ADD: %v", fs)
	}
}
