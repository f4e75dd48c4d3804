package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/record"
)

// Recorded-campaign equivalence: a replay from the XFDR artifact must be
// report-for-report identical to executing the target live — sequentially,
// across shards, and when fast-forwarding through an engine checkpoint —
// and the fingerprint tripwire must catch a stale checkpoint instead of
// silently mis-classifying crash states.

const replayTestPool = 1 << 20

// recordArtifact runs one recording pass of mk's target and decodes the
// resulting artifact.
func recordArtifact(t *testing.T, mk func(string) Target, name string, every int) *record.Artifact {
	t.Helper()
	var buf bytes.Buffer
	cfg := Config{PoolSize: replayTestPool}
	cfg.Record = record.NewWriter(&buf, 42, replayTestPool, every)
	res, err := Run(cfg, mk(name))
	if err != nil {
		t.Fatalf("recording %s: %v", name, err)
	}
	if res.PostRuns != 0 {
		t.Fatalf("recording %s ran %d post-failure executions; the record pass is pre-failure only", name, res.PostRuns)
	}
	a, err := record.Read(&buf)
	if err != nil {
		t.Fatalf("decoding artifact for %s: %v", name, err)
	}
	if a.PoolSize != replayTestPool || a.Identity != 42 {
		t.Fatalf("artifact header = identity %d pool %d", a.Identity, a.PoolSize)
	}
	if res.FailurePoints != len(a.FPs) {
		t.Fatalf("recorded %d failure points, artifact has %d records", res.FailurePoints, len(a.FPs))
	}
	return a
}

// TestRecordedReplayMatchesLive: replaying the artifact — sequentially and
// sharded, with and without parallel post-run workers — produces exactly
// the live key set with exact failure-point accounting.
func TestRecordedReplayMatchesLive(t *testing.T) {
	targets := map[string]func(string) Target{
		"fig11":  figure11Target,
		"manyFP": manyFPTarget,
	}
	for tname, mk := range targets {
		live, err := Run(Config{PoolSize: replayTestPool}, mk(tname+"-live"))
		if err != nil {
			t.Fatal(err)
		}
		liveKeys := sortedKeys(live)
		a := recordArtifact(t, mk, tname+"-rec", 0)
		for _, workers := range []int{1, 4} {
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/workers=%d/shards=%d", tname, workers, shards), func(t *testing.T) {
					union := newReportSet()
					for idx := 0; idx < shards; idx++ {
						cfg := Config{
							PoolSize:   replayTestPool,
							Workers:    workers,
							ShardCount: shards,
							ShardIndex: idx,
							Replay:     a,
						}
						if shards == 1 {
							cfg.ShardCount, cfg.ShardIndex = 0, 0
						}
						res, err := Run(cfg, mk(tname+"-replay"))
						if err != nil {
							t.Fatalf("shard %d: %v", idx, err)
						}
						if res.Incomplete {
							t.Fatalf("shard %d incomplete: %s", idx, res.IncompleteReason)
						}
						if res.FailurePoints != live.FailurePoints {
							t.Errorf("shard %d: %d failure points, live run had %d", idx, res.FailurePoints, live.FailurePoints)
						}
						if got := res.BucketedFailurePoints(); got != res.FailurePoints {
							t.Errorf("shard %d: buckets account for %d of %d failure points", idx, got, res.FailurePoints)
						}
						if !subsetOf(sortedKeys(res), liveKeys) {
							t.Errorf("shard %d reports keys outside the live set:\nshard: %v\nlive:  %v",
								idx, sortedKeys(res), liveKeys)
						}
						for _, rep := range res.Reports {
							union.add(rep)
						}
					}
					if got := sortedKeySet(union); !equalKeys(got, liveKeys) {
						t.Errorf("replayed union differs from live run:\nreplay: %v\nlive:   %v", got, liveKeys)
					}
				})
			}
		}
	}
}

// TestRecordedResumeJumpEquivalence: a resumed replay whose completed
// prefix lets it jump through an engine checkpoint reports exactly what a
// full-trace replay of the same resume reports, with the prefix bucketed
// as resumed.
func TestRecordedResumeJumpEquivalence(t *testing.T) {
	a := recordArtifact(t, manyFPTarget, "resume-rec", 2)
	if len(a.Checkpoints) < 2 {
		t.Fatalf("need ≥2 checkpoints to exercise the jump, have %d", len(a.Checkpoints))
	}
	total := len(a.FPs)
	completed := map[int]bool{}
	for fp := 0; fp < total-1; fp++ {
		completed[fp] = true
	}
	run := func(keepTrace bool) *Result {
		t.Helper()
		res, err := Run(Config{
			PoolSize:               replayTestPool,
			Replay:                 a,
			KeepTrace:              keepTrace, // true forces the full-trace path (no jump)
			CompletedFailurePoints: completed,
		}, manyFPTarget("resume-replay"))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	jumped, full := run(false), run(true)
	for _, res := range []*Result{jumped, full} {
		if res.ResumedFailurePoints != total-1 {
			t.Errorf("resumed = %d, want %d", res.ResumedFailurePoints, total-1)
		}
		if got := res.BucketedFailurePoints(); got != res.FailurePoints {
			t.Errorf("buckets account for %d of %d failure points", got, res.FailurePoints)
		}
	}
	if jumped.PostRuns != full.PostRuns {
		t.Errorf("post runs: jumped %d, full replay %d", jumped.PostRuns, full.PostRuns)
	}
	if !equalKeys(sortedKeys(jumped), sortedKeys(full)) {
		t.Errorf("jumped replay keys differ from full replay:\njumped: %v\nfull:   %v",
			sortedKeys(jumped), sortedKeys(full))
	}
}

// TestStaleCheckpointTripwire: a stale engine checkpoint (recorded with the
// seeded mutant) must fail the replay at the fingerprint tripwire, never
// complete with wrong classifications.
func TestStaleCheckpointTripwire(t *testing.T) {
	record.SetStaleCheckpointForTest(true)
	a := recordArtifact(t, manyFPTarget, "stale-rec", 2)
	record.SetStaleCheckpointForTest(false)
	total := len(a.FPs)
	if total < 4 {
		t.Fatalf("target too small to reach a stale checkpoint: %d failure points", total)
	}
	completed := map[int]bool{}
	for fp := 0; fp < total-1; fp++ {
		completed[fp] = true
	}
	_, err := Run(Config{
		PoolSize:               replayTestPool,
		Replay:                 a,
		CompletedFailurePoints: completed,
	}, manyFPTarget("stale-replay"))
	if err == nil {
		t.Fatal("replay through a stale engine checkpoint completed; the fingerprint tripwire must fail it")
	}
}

// twoPageTarget persists one word on page 1 and never touches that page
// again, then keeps updating and persisting page 0: every failure point
// after the first carries page 1 unchanged.
func twoPageTarget(name string) Target {
	const rounds = 8
	return Target{
		Name: name,
		Pre: func(c *Ctx) error {
			p := c.Pool()
			p.Store64(pmem.PageSize, 7)
			p.Persist(pmem.PageSize, 8)
			for i := uint64(0); i < rounds; i++ {
				p.Store64(i*64, i+1)
				p.Persist(i*64, 8)
			}
			return nil
		},
		Post: func(c *Ctx) error {
			p := c.Pool()
			p.Load64(pmem.PageSize)
			for i := uint64(0); i < rounds; i++ {
				p.Load64(i * 64)
			}
			return nil
		},
	}
}

// TestCorruptCheckpointTripwire: an engine checkpoint with one
// fingerprint-visible byte altered — the write epoch of a persisted byte
// on a page nothing touches after the checkpoint, zeroed so the byte reads
// as never written — must fail the replay at the fingerprint tripwire. The
// fingerprint cache is not part of the checkpoint, so the restored page
// hashes its altered data instead of vouching for it with a carried-over
// hash.
func TestCorruptCheckpointTripwire(t *testing.T) {
	a := recordArtifact(t, twoPageTarget, "corrupt-rec", 2)
	total := len(a.FPs)
	ck := a.BestCheckpoint(total - 1)
	if ck == nil || ck.FP == 0 {
		t.Fatalf("need a checkpoint past failure point 0 below %d, have %+v", total-1, ck)
	}
	// Page 1 is the highest allocated page, so its record ends the blob.
	// A version-2 page record is the u32 page index, then the 4096-byte
	// state array, the writeEpoch array, and the rest (persistEpoch,
	// writerIdx, txSafe, txAddGen, txExplicit, anyTxSafe).
	const pageRecord = 4 + pmem.PageSize + 5*4*pmem.PageSize + pmem.PageSize + 1
	rec := len(ck.Shadow) - pageRecord
	if rec < 0 || binary.LittleEndian.Uint32(ck.Shadow[rec:]) != 1 {
		t.Fatal("checkpoint blob does not end with page 1's version-2 record")
	}
	we := ck.Shadow[rec+4+pmem.PageSize:]
	if binary.LittleEndian.Uint32(we) == 0 {
		t.Fatal("page 1 byte 0 has no write epoch to corrupt")
	}
	binary.LittleEndian.PutUint32(we, 0)

	completed := map[int]bool{}
	for fp := 0; fp < total-1; fp++ {
		completed[fp] = true
	}
	_, err := Run(Config{
		PoolSize:               replayTestPool,
		Replay:                 a,
		CompletedFailurePoints: completed,
	}, twoPageTarget("corrupt-replay"))
	if err == nil || !strings.Contains(err.Error(), "stale or corrupt engine checkpoint") {
		t.Fatalf("replay through a corrupted engine checkpoint = %v; the fingerprint tripwire must fail it", err)
	}
}

// sortedKeySet returns a reportSet's dedup keys in sorted order.
func sortedKeySet(s *reportSet) []string {
	res := &Result{Reports: s.snapshot()}
	return sortedKeys(res)
}
