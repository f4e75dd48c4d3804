package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// Sharded campaigns: Config.ShardCount/ShardIndex partition the failure
// points of one campaign across processes. These tests pin the contract the
// CLI orchestrator builds on: every shard counts every failure point, each
// shard's report set is a sound subset of the single-process result, and
// the union over shards is exactly the single-process report-key set.

// manyFPTarget: a pre-failure stage with enough ordering points that every
// shard of a 2- or 3-way split owns several failure points, and a trailing
// unpersisted write so every post-run has a distinct race to observe.
func manyFPTarget(name string) Target {
	const lines = 12
	return Target{
		Name: name,
		Pre: func(c *Ctx) error {
			p := c.Pool()
			for i := 0; i < lines; i++ {
				p.Store64(uint64(i)*64, uint64(i)+1)
				p.Persist(uint64(i)*64, 8)
			}
			p.Store64(uint64(lines)*64, 1) // never persisted
			return nil
		},
		Post: func(c *Ctx) error {
			p := c.Pool()
			for l := 0; l <= lines; l++ {
				p.Load64(uint64(l) * 64)
			}
			return nil
		},
	}
}

// TestShardConfigValidation: an out-of-range shard layout is a harness
// error, not a silently empty campaign.
func TestShardConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{ShardCount: -1},
		{ShardCount: 2, ShardIndex: -1},
		{ShardCount: 2, ShardIndex: 2},
		{ShardCount: 3, ShardIndex: 5},
	} {
		if _, err := Run(cfg, figure11Target("shard-cfg")); err == nil {
			t.Errorf("ShardCount=%d ShardIndex=%d: expected a config error", cfg.ShardCount, cfg.ShardIndex)
		}
	}
	// ShardCount 1 and 0 both mean "not sharded" and must behave alike.
	for _, count := range []int{0, 1} {
		res, err := Run(Config{ShardCount: count}, figure11Target("shard-cfg"))
		if err != nil {
			t.Fatal(err)
		}
		if res.ShardCount != 0 || res.OtherShardFailurePoints != 0 {
			t.Errorf("ShardCount=%d: spurious shard accounting: %+v", count, res)
		}
	}
}

// TestWorkersConfigValidation: a negative Workers is a harness error, like
// a negative ShardCount, while 0 and 1 both mean sequential detection.
func TestWorkersConfigValidation(t *testing.T) {
	if _, err := Run(Config{Workers: -1}, figure11Target("workers-cfg")); err == nil {
		t.Error("Workers=-1: expected a config error")
	}
	seq, err := Run(Config{Workers: 1}, figure11Target("workers-cfg"))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Run(Config{Workers: 0}, figure11Target("workers-cfg"))
	if err != nil {
		t.Fatal(err)
	}
	if !equalKeys(sortedKeys(zero), sortedKeys(seq)) || zero.PostRuns != seq.PostRuns || zero.FailurePoints != seq.FailurePoints {
		t.Errorf("Workers=0 diverges from Workers=1: %+v vs %+v", zero, seq)
	}
}

// TestShardUnionEquivalence: for both targets, both worker modes, and
// N ∈ {2, 3}: every shard injects the full failure-point count, owns a
// disjoint subset of post-runs, reports a sound subset of the sequential
// key set, and the union over shards equals it exactly.
func TestShardUnionEquivalence(t *testing.T) {
	targets := map[string]func(string) Target{
		"fig11":  figure11Target,
		"manyFP": manyFPTarget,
	}
	for tname, mk := range targets {
		seq, err := Run(Config{}, mk(tname+"-seq"))
		if err != nil {
			t.Fatal(err)
		}
		seqKeys := sortedKeys(seq)
		for _, workers := range []int{1, 4} {
			for _, shards := range []int{2, 3} {
				t.Run(fmt.Sprintf("%s/workers=%d/shards=%d", tname, workers, shards), func(t *testing.T) {
					union := newReportSet()
					postRuns, delegated := 0, 0
					for idx := 0; idx < shards; idx++ {
						res, err := Run(Config{
							Workers:    workers,
							ShardCount: shards,
							ShardIndex: idx,
						}, mk(tname+"-shard"))
						if err != nil {
							t.Fatal(err)
						}
						if res.Incomplete {
							t.Fatalf("shard %d marked incomplete: %+v", idx, res)
						}
						if res.FailurePoints != seq.FailurePoints {
							t.Errorf("shard %d: failure points = %d, want %d (every shard counts all points)",
								idx, res.FailurePoints, seq.FailurePoints)
						}
						if res.OtherShardFailurePoints != seq.FailurePoints-res.PostRuns {
							t.Errorf("shard %d: delegated = %d, want %d",
								idx, res.OtherShardFailurePoints, seq.FailurePoints-res.PostRuns)
						}
						if !subsetOf(sortedKeys(res), seqKeys) {
							t.Errorf("shard %d reports keys outside the sequential set:\nshard: %v\nseq:   %v",
								idx, sortedKeys(res), seqKeys)
						}
						for _, rep := range res.Reports {
							union.add(rep)
						}
						postRuns += res.PostRuns
						delegated += res.OtherShardFailurePoints
					}
					if postRuns != seq.PostRuns {
						t.Errorf("post runs across shards = %d, want %d (disjoint ownership)", postRuns, seq.PostRuns)
					}
					if delegated != (shards-1)*seq.FailurePoints {
						t.Errorf("delegated across shards = %d, want %d", delegated, (shards-1)*seq.FailurePoints)
					}
					got := sortedKeys(&Result{Reports: union.snapshot()})
					if !equalKeys(got, seqKeys) {
						t.Errorf("union diverges from sequential:\nunion: %v\nseq:   %v", got, seqKeys)
					}
				})
			}
		}
	}
}

// repeatTarget rewrites the same lines with the same values for several
// rounds, so later rounds revisit earlier crash states: its classes have
// many members, which class sharding must keep together on one shard. A
// round has a prime number of failure points, so a split by failure point
// would scatter every class over the shards.
func repeatTarget(name string) Target {
	const lines, rounds = 7, 4
	t := manyFPTarget(name)
	t.Pre = func(c *Ctx) error {
		p := c.Pool()
		for r := 0; r < rounds; r++ {
			for i := 0; i < lines; i++ {
				p.Store64(uint64(i)*64, uint64(i)+1)
				p.Persist(uint64(i)*64, 8)
			}
		}
		p.Store64(uint64(lines)*64, 1) // never persisted
		return nil
	}
	return t
}

// TestClassShardsPostRunLikeOneProcess: under pruning a shard owns whole
// crash-state classes, so an N-shard campaign post-runs and tests exactly
// the failure points and classes one process does — no class is split, no
// verdict crosses shards — with every shard's buckets summing and the
// union of keys equal to the single-process set. Under -no-prune the
// shards partition failure points and each post-runs its own. Workers > 1
// nests W sibling class shards inside each process shard, which must
// leave every merged figure unchanged, shards=1 included.
func TestClassShardsPostRunLikeOneProcess(t *testing.T) {
	for _, prune := range []bool{true, false} {
		single, err := Run(Config{DisablePruning: !prune}, repeatTarget("class-shards"))
		if err != nil {
			t.Fatal(err)
		}
		if prune && single.PrunedFailurePoints == 0 {
			t.Fatal("repeat target pruned nothing; the class split would be vacuous")
		}
		for _, workers := range []int{1, 2, 3, 4} {
			for _, shards := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("prune=%v/workers=%d/shards=%d", prune, workers, shards), func(t *testing.T) {
					union := newReportSet()
					posts, classes, pruned := 0, 0, 0
					want := PartitionByFailurePoint
					if prune {
						want = PartitionByClass
					}
					if shards == 1 {
						want = ""
					}
					for idx := 0; idx < shards; idx++ {
						res, err := Run(Config{
							DisablePruning: !prune,
							Workers:        workers,
							ShardCount:     shards,
							ShardIndex:     idx,
						}, repeatTarget("class-shards"))
						if err != nil {
							t.Fatal(err)
						}
						if got := res.BucketedFailurePoints(); got != res.FailurePoints || res.FailurePoints != single.FailurePoints {
							t.Errorf("shard %d: buckets sum to %d of %d failure points, one process has %d: %+v",
								idx, got, res.FailurePoints, single.FailurePoints, res)
						}
						if res.ShardPartition != want {
							t.Errorf("shard %d: partition %q, want %q", idx, res.ShardPartition, want)
						}
						for _, rep := range res.Reports {
							union.add(rep)
						}
						posts += res.PostRuns
						classes += res.CrashStateClasses
						pruned += res.PrunedFailurePoints
					}
					if posts != single.PostRuns || classes != single.CrashStateClasses || pruned != single.PrunedFailurePoints {
						t.Errorf("shards post-ran %d, tested %d classes, pruned %d; one process: %d, %d, %d",
							posts, classes, pruned, single.PostRuns, single.CrashStateClasses, single.PrunedFailurePoints)
					}
					if got := sortedKeys(&Result{Reports: union.snapshot()}); !equalKeys(got, sortedKeys(single)) {
						t.Errorf("union diverges from one process:\nunion: %v\none:   %v", got, sortedKeys(single))
					}
				})
			}
		}
	}
}

func subsetOf(sub, super []string) bool {
	seen := make(map[string]bool, len(super))
	for _, k := range super {
		seen[k] = true
	}
	for _, k := range sub {
		if !seen[k] {
			return false
		}
	}
	return true
}

// TestShardResumeConverges: a shard that crashes mid-campaign and resumes
// from its checkpoint (CompletedFailurePoints + SeedReports restricted to
// its own points) still contributes exactly its partition, and the union
// over all shards still equals the single-process set.
func TestShardResumeConverges(t *testing.T) {
	const shards = 3
	seq, err := Run(Config{}, manyFPTarget("shard-resume-seq"))
	if err != nil {
		t.Fatal(err)
	}
	union := newReportSet()
	for idx := 0; idx < shards; idx++ {
		cfg := Config{ShardCount: shards, ShardIndex: idx}
		target := manyFPTarget("shard-resume")
		if idx == 1 {
			// Record the shard's checkpoint stream, keep only the first
			// half — the crash — and resume from it.
			type line struct {
				fp    int
				fresh []Report
			}
			var full []line
			c := cfg
			c.OnPostRunComplete = func(fp int, _ uint64, fresh []Report) {
				full = append(full, line{fp, fresh})
			}
			if _, err := Run(c, target); err != nil {
				t.Fatal(err)
			}
			done := make(map[int]bool)
			var seed []Report
			for _, l := range full[:len(full)/2] {
				done[l.fp] = true
				seed = append(seed, l.fresh...)
			}
			cfg.CompletedFailurePoints = done
			cfg.SeedReports = seed
		}
		res, err := Run(cfg, target)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incomplete {
			t.Fatalf("shard %d incomplete: %+v", idx, res)
		}
		for _, rep := range res.Reports {
			union.add(rep)
		}
	}
	got := sortedKeys(&Result{Reports: union.snapshot()})
	if !equalKeys(got, sortedKeys(seq)) {
		t.Errorf("union after shard crash+resume diverges:\nunion: %v\nseq:   %v", got, sortedKeys(seq))
	}
}

// checkpointRecord mirrors the CLI's JSONL checkpoint line, so this test
// exercises the same serialize-to-disk shape the -checkpoint flag uses.
type checkpointRecord struct {
	FP      int      `json:"fp"`
	Reports []Report `json:"reports,omitempty"`
}

// TestParallelCheckpointSerializedAndResumes is the Workers>1 checkpoint
// contract under the race detector: OnPostRunComplete invocations must be
// serialized even though they originate on sibling goroutines (the callback
// appends to a JSONL file, exactly like the CLI's -checkpoint), and a
// parallel campaign resumed from the first half of that checkpoint must
// converge to the sequential report key set.
func TestParallelCheckpointSerializedAndResumes(t *testing.T) {
	const workers = 4
	seq, err := Run(Config{}, manyFPTarget("par-ckpt-seq"))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var inFlight atomic.Int32
	var overlapped atomic.Bool
	cfg := Config{Workers: workers, OnPostRunComplete: func(fp int, _ uint64, fresh []Report) {
		if inFlight.Add(1) != 1 {
			overlapped.Store(true)
		}
		line, err := json.Marshal(checkpointRecord{FP: fp, Reports: fresh})
		if err == nil {
			f.Write(append(line, '\n'))
		}
		inFlight.Add(-1)
	}}
	ref, err := Run(cfg, manyFPTarget("par-ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if overlapped.Load() {
		t.Fatal("OnPostRunComplete invocations overlapped under Workers>1")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !equalKeys(sortedKeys(ref), sortedKeys(seq)) {
		t.Fatalf("parallel checkpointed run diverges from sequential:\npar: %v\nseq: %v",
			sortedKeys(ref), sortedKeys(seq))
	}

	// Parse the checkpoint back, keep the first half, and resume — still
	// under Workers>1 — asserting convergence to the sequential key set.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []checkpointRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var l checkpointRecord
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("checkpoint line does not parse: %v", err)
		}
		lines = append(lines, l)
	}
	if len(lines) != ref.PostRuns {
		t.Fatalf("checkpoint lines = %d, want %d", len(lines), ref.PostRuns)
	}
	done := make(map[int]bool)
	var seed []Report
	for _, l := range lines[:len(lines)/2] {
		done[l.FP] = true
		seed = append(seed, l.Reports...)
	}
	res, err := Run(Config{
		Workers:                workers,
		CompletedFailurePoints: done,
		SeedReports:            seed,
	}, manyFPTarget("par-ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFailurePoints != len(done) {
		t.Errorf("resumed failure points = %d, want %d", res.ResumedFailurePoints, len(done))
	}
	if !equalKeys(sortedKeys(res), sortedKeys(seq)) {
		t.Errorf("resumed parallel run diverges from sequential:\nres: %v\nseq: %v",
			sortedKeys(res), sortedKeys(seq))
	}
}
