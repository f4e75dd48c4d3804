// Benchmark harness regenerating the paper's evaluation (§6): one
// testing.B benchmark per table and figure, plus substrate micro
// benchmarks and ablations of the detector's design choices.
//
//	go test -bench=. -benchmem .
//
// Reported custom metrics:
//
//	pre-s/op, post-s/op   the Fig. 12a stage breakdown
//	failpoints/op         injected failure points per run
//	bugs/op               reports per run (Table 5 benchmarks)
package xfd_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	xfd "github.com/pmemgo/xfdetector"
	"github.com/pmemgo/xfdetector/internal/bench"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/mechanisms"
	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/pmobj"
	"github.com/pmemgo/xfdetector/internal/pmredis"
	"github.com/pmemgo/xfdetector/internal/record"
	"github.com/pmemgo/xfdetector/internal/shadow"
	"github.com/pmemgo/xfdetector/internal/trace"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

// runDetection executes one detection run and accumulates its metrics.
func runDetection(b *testing.B, cfg core.Config, target core.Target) (pre, post float64, fps, bugs int) {
	b.Helper()
	res, err := core.Run(cfg, target)
	if err != nil {
		b.Fatal(err)
	}
	return res.PreSeconds, res.PostSeconds, res.FailurePoints, len(res.Reports)
}

// BenchmarkFig12a measures full detection per workload with the §6.2.1
// configuration (1 init insertion + 1 test insertion, one post-failure
// operation per failure point), reporting the pre/post breakdown.
func BenchmarkFig12a(b *testing.B) {
	for _, w := range bench.Table4() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var pre, post float64
			var fps int
			for i := 0; i < b.N; i++ {
				p1, p2, f, _ := runDetection(b,
					core.Config{PoolSize: bench.DefaultPoolSize}, w.Target(bench.Fig12Config))
				pre += p1
				post += p2
				fps += f
			}
			n := float64(b.N)
			b.ReportMetric(pre/n, "pre-s/op")
			b.ReportMetric(post/n, "post-s/op")
			b.ReportMetric(float64(fps)/n, "failpoints/op")
		})
	}
}

// BenchmarkFig12b runs the three §6.2.1 configurations per workload; the
// slowdown ratios of Fig. 12b fall out of the ns/op columns.
func BenchmarkFig12b(b *testing.B) {
	modes := []struct {
		name string
		mode core.Mode
	}{
		{"Detect", core.ModeDetect},
		{"TraceOnly", core.ModeTraceOnly},
		{"Original", core.ModeOriginal},
	}
	for _, w := range bench.Table4() {
		w := w
		for _, m := range modes {
			m := m
			b.Run(w.Name+"/"+m.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := core.Run(core.Config{
						PoolSize: bench.DefaultPoolSize, Mode: m.mode,
					}, w.Target(bench.Fig12Config))
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig13 sweeps the number of pre-failure transactions (§6.2.2);
// ns/op must scale linearly with the reported failure points.
func BenchmarkFig13(b *testing.B) {
	for _, m := range workloads.Makers() {
		m := m
		for _, n := range bench.Fig13Transactions {
			n := n
			b.Run(fmt.Sprintf("%s/tx=%d", m.Name, n), func(b *testing.B) {
				fps := 0
				for i := 0; i < b.N; i++ {
					cfg := workloads.TargetConfig{InitSize: 1, TestSize: n, PostOps: true}
					_, _, f, _ := runDetection(b,
						core.Config{PoolSize: 16 << 20}, workloads.DetectionTarget(m, cfg))
					fps += f
				}
				b.ReportMetric(float64(fps)/float64(b.N), "failpoints/op")
			})
		}
	}
}

// BenchmarkTable5 measures one representative seeded-bug detection per
// workload (the full 59-bug suite runs in TestTable5Validation).
func BenchmarkTable5(b *testing.B) {
	picks := map[string]string{
		"B-Tree":         "btree-skip-add-leaf",
		"C-Tree":         "ctree-skip-add-link",
		"RB-Tree":        "rbt-skip-add-insert-link",
		"Hashmap-TX":     "hmtx-skip-add-slot",
		"Hashmap-Atomic": "hma-sem-inverted-dirty",
	}
	for _, m := range workloads.Makers() {
		m := m
		fault := picks[m.Name]
		b.Run(m.Name, func(b *testing.B) {
			bugs := 0
			for i := 0; i < b.N; i++ {
				cfg := workloads.TargetConfig{
					InitSize: 5, TestSize: 3, Updates: 1, Removes: 2,
					PostOps: true, Fault: fault, FaultInCreate: true,
				}
				_, _, _, nbugs := runDetection(b,
					core.Config{PoolSize: bench.DefaultPoolSize}, workloads.DetectionTarget(m, cfg))
				bugs += nbugs
			}
			if bugs == 0 {
				b.Fatalf("seeded bug %s not detected", fault)
			}
			b.ReportMetric(float64(bugs)/float64(b.N), "bugs/op")
		})
	}
}

// BenchmarkTable1 measures detection over each Table 1 mechanism.
func BenchmarkTable1(b *testing.B) {
	for i, m := range mechanisms.All() {
		i := i
		b.Run(m.Name(), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				mech := mechanisms.All()[i]
				target := xfd.Target{
					Name: mech.Name(),
					Setup: func(c *xfd.Ctx) error {
						mech.Init(c, mechanisms.MakePayload(1))
						return nil
					},
					Pre: func(c *xfd.Ctx) error {
						mech.Update(c, mechanisms.MakePayload(2))
						return nil
					},
					Post: func(c *xfd.Ctx) error {
						_, err := mech.Recover(c)
						return err
					},
				}
				if _, err := xfd.Run(xfd.Config{}, target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablations: the detector's design choices called out in DESIGN.md.

// BenchmarkAblationFailurePointElision compares detection with and without
// the §5.4 empty-interval optimization.
func BenchmarkAblationFailurePointElision(b *testing.B) {
	m, _ := workloads.MakerFor("Hashmap-TX")
	for _, disabled := range []bool{false, true} {
		name := "Elide"
		if disabled {
			name = "NoElide"
		}
		disabled := disabled
		b.Run(name, func(b *testing.B) {
			fps := 0
			for i := 0; i < b.N; i++ {
				cfg := workloads.TargetConfig{InitSize: 2, TestSize: 2, PostOps: true}
				_, _, f, _ := runDetection(b, core.Config{
					PoolSize:                   bench.DefaultPoolSize,
					DisableFailurePointElision: disabled,
				}, workloads.DetectionTarget(m, cfg))
				fps += f
			}
			b.ReportMetric(float64(fps)/float64(b.N), "failpoints/op")
		})
	}
}

// BenchmarkAblationPruning compares detection per Table 4 workload with
// crash-state pruning (default: one post-failure execution per distinct
// crash-state fingerprint) against running every failure point
// (DisablePruning, the mechanism as the paper states it). The workload
// configuration repeats the update pass thirty times with identical
// values, the repetitive-loop shape whose failure points freeze
// byte-identical crash states; TestPruneEquivalenceAcrossTable4 proves the
// report-key sets identical either way.
func BenchmarkAblationPruning(b *testing.B) {
	for _, w := range bench.Table4() {
		w := w
		for _, ablate := range []bool{false, true} {
			name, ablate := "Pruned", ablate
			if ablate {
				name = "NoPrune"
			}
			b.Run(w.Name+"/"+name, func(b *testing.B) {
				var fps, classes, pruned float64
				for i := 0; i < b.N; i++ {
					res, err := core.Run(core.Config{
						PoolSize:       bench.DefaultPoolSize,
						DisablePruning: ablate,
					}, w.Target(bench.PruneAblationConfig))
					if err != nil {
						b.Fatal(err)
					}
					fps += float64(res.FailurePoints)
					classes += float64(res.CrashStateClasses)
					pruned += float64(res.PrunedFailurePoints)
				}
				n := float64(b.N)
				b.ReportMetric(fps/n, "failpoints/op")
				b.ReportMetric(classes/n, "classes/op")
				b.ReportMetric(pruned/n, "pruned/op")
			})
		}
	}
}

// BenchmarkCrossShardPruning measures a three-shard campaign partitioned
// by crash-state class: each shard fingerprints every failure point and
// runs only the classes it owns, so the fleet's post-runs equal the
// single-process pruned run's. Two campaigns: the steady-state update
// loop, whose classes span the whole pre-failure stage, and B-Tree under
// the update-heavy ablation configuration as the real-workload point.
// TestCrossShardPruningAcceptance pins the post-run equality and the
// byte-identical merged key sets.
func BenchmarkCrossShardPruning(b *testing.B) {
	const shards = 3
	campaigns := []struct {
		name   string
		target func() core.Target
	}{
		{"UpdateLoop", func() core.Target { return bench.UpdateLoopTarget("update-loop", 16, 30) }},
		{"B-Tree", func() core.Target { return bench.Table4()[0].Target(bench.PruneAblationConfig) }},
	}
	for _, c := range campaigns {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var posts, postSec float64
			for i := 0; i < b.N; i++ {
				for idx := 0; idx < shards; idx++ {
					res, err := core.Run(core.Config{
						PoolSize:   bench.DefaultPoolSize,
						ShardCount: shards,
						ShardIndex: idx,
					}, c.target())
					if err != nil {
						b.Fatal(err)
					}
					posts += float64(res.PostRuns)
					postSec += res.PostSeconds
				}
			}
			n := float64(b.N)
			b.ReportMetric(posts/n, "postruns/op")
			b.ReportMetric(postSec/n, "post-s/op")
		})
	}
}

// BenchmarkRecordedFanout measures the record-once fast-forward path
// (PR 10): a three-shard update-heavy campaign where the pre-failure pass
// is recorded once and every shard replays the artifact — jumping to the
// nearest engine checkpoint below its first owned failure point — against
// the same fleet with the knob off (-no-fast-forward), where every shard
// re-executes the full pre-failure stage live. The fleet's pre-failure
// cost drops from O(shards x trace) to O(trace + per-shard suffixes);
// pre-s/shard carries the per-shard reduction, record-s/op the one-time
// recording cost the fast-forward variant amortizes. The campaign is
// B-Tree under the update-heavy ablation configuration: a live shard
// re-executes every pmobj transaction with source-location capture, which
// is exactly the work the replay drops.
// TestRecordedFanoutAcceptance pins the >= 2x per-shard claim and the
// byte-identical merged key sets.
func BenchmarkRecordedFanout(b *testing.B) {
	const shards = 3
	target := bench.RecordedFanoutTarget
	for _, ff := range []bool{true, false} {
		name, ff := "FastForward", ff
		if !ff {
			name = "NoFastForward"
		}
		b.Run(name, func(b *testing.B) {
			var preSec, recSec float64
			for i := 0; i < b.N; i++ {
				var artifact *record.Artifact
				if ff {
					var buf bytes.Buffer
					cfg := core.Config{PoolSize: bench.DefaultPoolSize}
					cfg.Record = record.NewWriter(&buf, 1, bench.DefaultPoolSize, 0)
					res, err := core.Run(cfg, target())
					if err != nil {
						b.Fatal(err)
					}
					recSec += res.PreSeconds
					if artifact, err = record.Read(&buf); err != nil {
						b.Fatal(err)
					}
				}
				for idx := 0; idx < shards; idx++ {
					cfg := core.Config{
						PoolSize:   bench.DefaultPoolSize,
						ShardCount: shards,
						ShardIndex: idx,
						Replay:     artifact,
					}
					res, err := core.Run(cfg, target())
					if err != nil {
						b.Fatal(err)
					}
					preSec += res.PreSeconds
				}
			}
			n := float64(b.N)
			b.ReportMetric(preSec/n/shards, "pre-s/shard")
			if ff {
				b.ReportMetric(recSec/n, "record-s/op")
			}
		})
	}
}

// BenchmarkPoolSweep sweeps the pool size under a fixed small working set.
// The per-failure-point costs must stay near-flat in the pool size:
// incremental snapshots copy only the pages dirtied since the previous
// failure point, and the paged shadow allocates per-byte metadata only for
// the 4 KiB slabs the execution touches.
func BenchmarkPoolSweep(b *testing.B) {
	target := core.Target{
		Name: "sweep",
		Pre: func(c *core.Ctx) error {
			p := c.Pool()
			for i := uint64(0); i < 64; i++ {
				p.Store64(i*8, i)
				p.Persist(i*8, 8)
			}
			return nil
		},
		Post: func(c *core.Ctx) error {
			c.Pool().Load64(0)
			return nil
		},
	}
	for _, mib := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("pool=%dMiB", mib), func(b *testing.B) {
			var peak, pages float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{PoolSize: uint64(mib) << 20}, target)
				if err != nil {
					b.Fatal(err)
				}
				peak += float64(res.ShadowPeakBytes)
				pages += float64(res.ShadowPages)
			}
			n := float64(b.N)
			b.ReportMetric(peak/n, "shadow-peak-B/op")
			b.ReportMetric(pages/n, "shadow-pages/op")
		})
	}
}

// BenchmarkBackendSweep compares detection per Table 4 workload on the
// in-memory pool (default) against the file-backed pool, whose durable
// image advances by range-batched msync at every ordering point and
// failure-point snapshot. The delta is the price of durability: the
// dirty-page walks, page copies into the shared mapping, read-back
// verifications and msync calls. The msync accounting metrics show how
// much of that work the compare-skip optimization elides.
func BenchmarkBackendSweep(b *testing.B) {
	for _, w := range bench.Table4() {
		w := w
		for _, file := range []bool{false, true} {
			name, file := "Memory", file
			if file {
				name = "File"
			}
			b.Run(w.Name+"/"+name, func(b *testing.B) {
				if file && runtime.GOOS != "linux" {
					b.Skip("file-backed pools are linux-only")
				}
				var ranges, pages, skipped float64
				for i := 0; i < b.N; i++ {
					cfg := core.Config{PoolSize: bench.DefaultPoolSize}
					if file {
						cfg.Backend = pmem.FileBackend{Path: filepath.Join(b.TempDir(), "pool.img")}
					}
					res, err := core.Run(cfg, w.Target(bench.Fig12Config))
					if err != nil {
						b.Fatal(err)
					}
					ranges += float64(res.MsyncRanges)
					pages += float64(res.MsyncPages)
					skipped += float64(res.MsyncSkipped)
				}
				if file {
					n := float64(b.N)
					b.ReportMetric(ranges/n, "msync-ranges/op")
					b.ReportMetric(pages/n, "msync-pages/op")
					b.ReportMetric(skipped/n, "msync-skipped/op")
				}
			})
		}
	}
}

// Substrate micro benchmarks.

// BenchmarkPmemOps measures the simulated device primitives.
func BenchmarkPmemOps(b *testing.B) {
	b.Run("Store64", func(b *testing.B) {
		p := pmem.New("bench", 1<<20)
		p.SetIPCapture(false)
		for i := 0; i < b.N; i++ {
			p.Store64(uint64(i*8)%(1<<19), uint64(i))
		}
	})
	b.Run("Store64Traced", func(b *testing.B) {
		p := pmem.New("bench", 1<<20)
		p.SetSink(discard{})
		for i := 0; i < b.N; i++ {
			p.Store64(uint64(i*8)%(1<<19), uint64(i))
		}
	})
	b.Run("PersistBarrier", func(b *testing.B) {
		p := pmem.New("bench", 1<<20)
		p.SetIPCapture(false)
		for i := 0; i < b.N; i++ {
			off := uint64(i*64) % (1 << 19)
			p.Store64(off, uint64(i))
			p.Persist(off, 8)
		}
	})
}

type discard struct{}

func (discard) Record(trace.Entry) {}

// BenchmarkShadowApply measures the backend state machine.
func BenchmarkShadowApply(b *testing.B) {
	sh := shadow.NewPM(1 << 20)
	entries := []trace.Entry{
		{Kind: trace.Write, Addr: 0x100, Size: 64, IP: "b.go:1"},
		{Kind: trace.CLWB, Addr: 0x100, Size: 64, IP: "b.go:2"},
		{Kind: trace.SFence},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			sh.Apply(e)
		}
	}
}

// BenchmarkCrashFingerprint measures crash-state fingerprinting on the
// update loop of perfbench's update_loop (B-Tree -init 2 -test 1 -updates 2
// -update-rounds 1000 -removes 0): each op replays the campaign's kept
// pre-failure trace, recorded once in setup, into a fresh shadow and
// fingerprints it at each of its 8,017 failure-point markers. fingerprint-s/op
// is the time inside CrashFingerprint; the rest of ns/op is shadow apply.
func BenchmarkCrashFingerprint(b *testing.B) {
	m, _ := workloads.MakerFor("B-Tree")
	res, err := core.Run(core.Config{PoolSize: bench.DefaultPoolSize, KeepTrace: true},
		workloads.DetectionTarget(m, workloads.TargetConfig{
			InitSize: 2, TestSize: 1, Updates: 2, UpdateRounds: 1000, PostOps: true,
		}))
	if err != nil {
		b.Fatal(err)
	}
	entries := res.PreTrace().Entries()
	var fprint time.Duration
	fps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh := shadow.NewPM(bench.DefaultPoolSize)
		for _, e := range entries {
			sh.Apply(e)
			if e.Kind == trace.FailurePoint && e.Stage == trace.PreFailure {
				start := time.Now()
				fingerprintSink ^= sh.CrashFingerprint()
				fprint += time.Since(start)
				fps++
			}
		}
	}
	b.ReportMetric(fprint.Seconds()/float64(b.N), "fingerprint-s/op")
	b.ReportMetric(float64(fps)/float64(b.N), "failpoints/op")
}

// fingerprintSink keeps BenchmarkCrashFingerprint's results live.
var fingerprintSink uint64

// BenchmarkPostFailureC measures the post-failure layer on C, the faulty
// B-Tree campaign fleet_insert shards (`-init 3 -test 80 -patch
// btree-skip-add-leaf`, 4 MiB pool, one worker): each op runs the whole
// campaign in-process, and post-s/op is its Result.PostSeconds — the
// tested program's recovery and the read check at its 652 representative
// failure points.
func BenchmarkPostFailureC(b *testing.B) {
	m, _ := workloads.MakerFor("B-Tree")
	target := workloads.DetectionTarget(m, workloads.TargetConfig{
		InitSize: 3, TestSize: 80, Updates: 1, Removes: 1, PostOps: true,
		Fault: "btree-skip-add-leaf", FaultInCreate: true,
	})
	post := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{PoolSize: bench.DefaultPoolSize, Workers: 1}, target)
		if err != nil {
			b.Fatal(err)
		}
		post += res.PostSeconds
	}
	b.ReportMetric(post/float64(b.N), "post-s/op")
}

// BenchmarkPmobjTx measures a minimal transaction on the PMDK-like
// substrate (alloc + add + store + commit), without detection.
func BenchmarkPmobjTx(b *testing.B) {
	p := pmem.New("bench", 16<<20)
	p.SetIPCapture(false)
	po, err := pmobj.Create(p, 64, nil)
	if err != nil {
		b.Fatal(err)
	}
	root := po.Root()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := po.Tx(func(tx *pmobj.Tx) error {
			if err := tx.Add(root, 8); err != nil {
				return err
			}
			p.Store64(root, uint64(i))
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelDetection measures the parallelized detector (the
// future work of §6.2.1) against the sequential baseline on the Redis
// workload, whose many failure points make the post-failure stage large.
// Every sibling repeats the pre-failure stage, so on a host with fewer
// cores than workers the speedup shape does not show; it needs real cores
// (see EXPERIMENTS.md).
func BenchmarkParallelDetection(b *testing.B) {
	cfg := workloads.TargetConfig{InitSize: 2, TestSize: 2, PostOps: true}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					PoolSize: bench.DefaultPoolSize, Workers: workers,
				}, bench.RedisTarget(pmredis.Options{}, cfg))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Reports) != 0 {
					b.Fatalf("unexpected reports:\n%s", res)
				}
			}
		})
	}
}
