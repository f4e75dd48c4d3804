package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/record"
)

// Recorded-campaign equivalence: a replay from the XFDR artifact must be
// report-for-report identical to executing the target live — sequentially,
// across shards, and resumed — and the fingerprint tripwire must catch an
// artifact that disagrees with its own trace instead of silently
// mis-classifying crash states.

const replayTestPool = 1 << 20

// recordArtifact runs one recording pass of mk's target and decodes the
// resulting artifact.
func recordArtifact(t *testing.T, mk func(string) Target, name string) *record.Artifact {
	t.Helper()
	var buf bytes.Buffer
	cfg := Config{PoolSize: replayTestPool}
	cfg.Record = record.NewWriter(&buf, 42, replayTestPool, 0)
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
// the live key set with exact failure-point accounting, pre-failure
// performance reports included.
func TestRecordedReplayMatchesLive(t *testing.T) {
	targets := map[string]func(string) Target{
		"fig11":  figure11Target,
		"manyFP": manyFPTarget,
		"perf":   redundantFlushTarget,
	}
	for tname, mk := range targets {
		live, err := Run(Config{PoolSize: replayTestPool}, mk(tname+"-live"))
		if err != nil {
			t.Fatal(err)
		}
		if tname == "perf" && live.Count(Performance) == 0 {
			t.Fatal("redundantFlushTarget reports no pre-failure performance bug live")
		}
		liveKeys := sortedKeys(live)
		a := recordArtifact(t, mk, tname+"-rec")
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

// redundantFlushTarget flushes one persisted line a second time: a
// pre-failure performance bug that a replay re-detects from the trace.
func redundantFlushTarget(name string) Target {
	return Target{
		Name: name,
		Pre: func(c *Ctx) error {
			p := c.Pool()
			p.Store64(0, 1)
			p.Persist(0, 8)
			p.Persist(0, 8)
			p.Store64(64, 2)
			p.Persist(64, 8)
			return nil
		},
		Post: func(c *Ctx) error {
			p := c.Pool()
			p.Load64(0)
			p.Load64(64)
			return nil
		},
	}
}

// TestRecordedResumeMatchesLive: a resumed replay — every failure point
// but the last completed — reports exactly what the live run of the same
// resume reports: the keys, the post-runs and the resumed count.
func TestRecordedResumeMatchesLive(t *testing.T) {
	a := recordArtifact(t, manyFPTarget, "resume-rec")
	total := len(a.FPs)
	completed := map[int]bool{}
	for fp := 0; fp < total-1; fp++ {
		completed[fp] = true
	}
	run := func(replay *record.Artifact) *Result {
		t.Helper()
		res, err := Run(Config{
			PoolSize:               replayTestPool,
			Replay:                 replay,
			CompletedFailurePoints: completed,
		}, manyFPTarget("resume"))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.BucketedFailurePoints(); got != res.FailurePoints {
			t.Errorf("buckets account for %d of %d failure points", got, res.FailurePoints)
		}
		return res
	}
	live, replayed := run(nil), run(a)
	if live.ResumedFailurePoints != total-1 || replayed.ResumedFailurePoints != total-1 {
		t.Errorf("resumed: live %d, replay %d, want %d", live.ResumedFailurePoints, replayed.ResumedFailurePoints, total-1)
	}
	if live.PostRuns != replayed.PostRuns || live.PostRuns == 0 {
		t.Errorf("post runs: live %d, replay %d (want equal and nonzero)", live.PostRuns, replayed.PostRuns)
	}
	if !equalKeys(sortedKeys(replayed), sortedKeys(live)) {
		t.Errorf("resumed replay keys differ from the live resume:\nreplay: %v\nlive:   %v",
			sortedKeys(replayed), sortedKeys(live))
	}
}

// TestFlippedFingerprintTripwire: an artifact whose recorded fingerprint of
// one failure point no longer matches the state its trace replays to must
// fail the replay at that failure point, never complete with the crash
// state in the wrong class or on the wrong shard.
func TestFlippedFingerprintTripwire(t *testing.T) {
	a := recordArtifact(t, manyFPTarget, "flip-rec")
	const flipped = 3
	if len(a.FPs) <= flipped {
		t.Fatalf("target too small: %d failure points", len(a.FPs))
	}
	a.FPs[flipped].Fingerprint ^= 1
	_, err := Run(Config{PoolSize: replayTestPool, Replay: a}, manyFPTarget("flip-replay"))
	if !errors.Is(err, ErrFingerprintMismatch) || !strings.Contains(err.Error(), fmt.Sprintf("at failure point %d ", flipped)) {
		t.Fatalf("replay of an artifact with failure point %d's fingerprint flipped = %v; want ErrFingerprintMismatch naming it", flipped, err)
	}
}

// sortedKeySet returns a reportSet's dedup keys in sorted order.
func sortedKeySet(s *reportSet) []string {
	res := &Result{Reports: s.snapshot()}
	return sortedKeys(res)
}
