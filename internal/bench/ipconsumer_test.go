package bench

import (
	"testing"

	"github.com/pmemgo/xfdetector/internal/baseline"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/trace"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

// TestIPConsumersAcrossTable4 guards the IP capture table (pmem's
// ipReaders), which records an instruction pointer only for the
// (stage, kind) pairs some consumer reads: a table that drops a pair a
// checker reads must fail here. The programs are the Table 4 programs with
// their seeded bugs, C (the 80-insert B-Tree campaign), the two B-Tree
// performance bugs (TX_ADD and CLWB IPs), Hashmap-Atomic's unzeroed bucket
// directory (an atomic allocation's IP as the writer) and
// unfencedMechanismsTarget, for the kinds no Table 4 program issues. Every
// cross-failure race or semantic report carries a reader and a writer IP,
// every performance report its operation's IP, and every pmemcheck and
// PMTest finding over the kept pre-failure trace its IP.
func TestIPConsumersAcrossTable4(t *testing.T) {
	patched := func(workload, fault string, testSize int) func() core.Target {
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
	cases := append(table4Cases(t),
		table4Case{"C", "btree-skip-add-leaf", core.CrossFailureRace, true,
			patched("B-Tree", "btree-skip-add-leaf", 80)},
		table4Case{"B-Tree/dup-add", "btree-dup-add-leaf", core.Performance, true,
			patched("B-Tree", "btree-dup-add-leaf", 8)},
		table4Case{"B-Tree/extra-flush", "btree-extra-flush", core.Performance, true,
			patched("B-Tree", "btree-extra-flush", 8)},
		table4Case{"Hashmap-Atomic/buckets-zero", "hma-skip-buckets-zero", core.CrossFailureRace, true,
			patched("Hashmap-Atomic", "hma-skip-buckets-zero", 8)},
		table4Case{"ip-mechanisms", "", core.Performance, true, unfencedMechanismsTarget},
	)
	var races, perf, findings int
	for _, tt := range cases {
		res, err := core.Run(core.Config{PoolSize: DefaultPoolSize, KeepTrace: true}, tt.target())
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if tt.wantBug && res.Count(tt.wantClass) == 0 {
			t.Fatalf("%s: seeded fault %q not detected:\n%s", tt.name, tt.fault, res)
		}
		for _, r := range res.Reports {
			switch r.Class {
			case core.CrossFailureRace, core.CrossFailureSemantic:
				races++
				if r.ReaderIP == "" || r.WriterIP == "" {
					t.Errorf("%s: %v report lacks an IP: reader %q, writer %q", tt.name, r.Class, r.ReaderIP, r.WriterIP)
				}
			case core.Performance:
				perf++
				if r.ReaderIP == "" {
					t.Errorf("%s: %v performance report lacks its IP", tt.name, r.PerfKind)
				}
			}
		}
		tr := res.PreTrace()
		size := baseline.PoolSizeFor(tr)
		for _, check := range []struct {
			name string
			run  func() []baseline.Finding
		}{
			{"pmemcheck", func() []baseline.Finding { return baseline.Pmemcheck(tr, size) }},
			{"PMTest", func() []baseline.Finding { return baseline.PMTest(tr, size) }},
		} {
			for _, f := range check.run() {
				findings++
				if f.IP == "" {
					t.Errorf("%s: %s finding %v lacks an IP", tt.name, check.name, f.Kind)
				}
			}
		}
	}
	if races == 0 || perf == 0 || findings == 0 {
		t.Fatalf("vacuous guard: %d race/semantic reports, %d performance reports, %d baseline findings", races, perf, findings)
	}
	t.Logf("checked %d race/semantic reports, %d performance reports, %d baseline findings", races, perf, findings)
}

// unfencedMechanismsTarget issues the three IP-carrying kinds no Table 4
// program does: an NT store still unfenced at the first failure point (a
// race's writer), a redundant CLFLUSH (a performance report) and a
// commit-variable write announced without an IP and never persisted (a
// race's writer and a pmemcheck finding).
func unfencedMechanismsTarget() core.Target {
	return core.Target{
		Name: "ip-mechanisms",
		Pre: func(c *core.Ctx) error {
			p := c.Pool()
			p.NTStore(0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
			p.Store64(64, 1)
			p.CLFlush(64, 8)
			p.CLFlush(64, 8)
			p.AnnounceEntry(trace.Entry{Kind: trace.CommitVarWrite, Addr: 128, Size: 8})
			p.SFence()
			return nil
		},
		Post: func(c *core.Ctx) error {
			p := c.Pool()
			p.Load64(0)
			p.Load64(128)
			return nil
		},
	}
}
