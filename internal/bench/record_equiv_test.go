package bench

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/record"
)

// TestRecordedFanoutAcceptance pins the record-once replay path on
// the three-shard update-heavy B-Tree campaign BenchmarkRecordedFanout
// measures: the merged report-key set of a fleet replaying the recorded
// artifact must be byte-identical to that of a fleet executing the
// pre-failure stage live. The per-shard pre-failure speedup of replay
// over live execution is logged, not bounded: most of the gap was the live
// stage's source-location capture, and since IPs are captured with a
// frame-pointer walk and only where a checker reads them it reads
// 1.2-1.5x on a 2-vCPU host.
func TestRecordedFanoutAcceptance(t *testing.T) {
	const shards = 3
	target := RecordedFanoutTarget

	var buf bytes.Buffer
	recCfg := core.Config{PoolSize: DefaultPoolSize}
	recCfg.Record = record.NewWriter(&buf, 1, DefaultPoolSize, 0)
	if _, err := core.Run(recCfg, target()); err != nil {
		t.Fatal(err)
	}
	a, err := record.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	runFleet := func(artifact *record.Artifact) (preSec float64, union []string) {
		seen := map[string]bool{}
		for idx := 0; idx < shards; idx++ {
			res, err := core.Run(core.Config{
				PoolSize:   DefaultPoolSize,
				ShardCount: shards,
				ShardIndex: idx,
				Replay:     artifact,
			}, target())
			if err != nil {
				t.Fatal(err)
			}
			preSec += res.PreSeconds
			for _, k := range dedupKeys(res) {
				seen[k] = true
			}
		}
		for k := range seen {
			union = append(union, k)
		}
		sort.Strings(union)
		return preSec, union
	}

	livePre, liveKeys := runFleet(nil)
	ffPre, ffKeys := runFleet(a)
	if len(liveKeys) == 0 {
		t.Fatal("B-Tree campaign found no bugs; the key-set equivalence would be vacuous")
	}
	if !stringSlicesEqual(ffKeys, liveKeys) {
		t.Fatalf("fast-forwarded fleet keys diverge from the live fleet\nlive: %v\nff:   %v", liveKeys, ffKeys)
	}
	t.Logf("pre-failure %.4fs/shard live -> %.4fs/shard fast-forwarded (%.2fx)",
		livePre/shards, ffPre/shards, livePre/ffPre)
}

// TestFastForwardEquivalenceAcrossTable4 pins the record/replay contract on
// every evaluated program of the paper's Table 4: a campaign replayed from
// the recorded pre-failure artifact (fast-forward on) must produce exactly
// the same report-key set and exact per-failure-point bucket accounting as
// the same campaign executed live (fast-forward off, the -no-fast-forward
// ablation), across workers 1/2 and shards 1/3. Where a bug is seeded, the
// expected class must actually be detected, so the equivalence is
// established on non-trivial report sets.
func TestFastForwardEquivalenceAcrossTable4(t *testing.T) {
	for _, tt := range table4Cases(t) {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			live, err := core.Run(core.Config{PoolSize: DefaultPoolSize}, tt.target())
			if err != nil {
				t.Fatal(err)
			}
			if tt.wantBug && live.Count(tt.wantClass) == 0 {
				t.Fatalf("seeded fault %q not detected live:\n%s", tt.fault, live)
			}
			if !tt.wantBug && !live.Clean() {
				t.Fatalf("expected a clean run:\n%s", live)
			}
			liveKeys := dedupKeys(live)

			// Record once: the artifact every fast-forwarded config replays.
			var buf bytes.Buffer
			recCfg := core.Config{PoolSize: DefaultPoolSize}
			recCfg.Record = record.NewWriter(&buf, 7, DefaultPoolSize, 0)
			if _, err := core.Run(recCfg, tt.target()); err != nil {
				t.Fatalf("recording: %v", err)
			}
			a, err := record.Read(&buf)
			if err != nil {
				t.Fatalf("decoding artifact: %v", err)
			}

			for _, ff := range []bool{true, false} {
				for _, workers := range []int{1, 2} {
					for _, shards := range []int{1, 3} {
						name := fmt.Sprintf("ff=%v/workers=%d/shards=%d", ff, workers, shards)
						union := map[string]bool{}
						for idx := 0; idx < shards; idx++ {
							cfg := core.Config{PoolSize: DefaultPoolSize, Workers: workers}
							if shards > 1 {
								cfg.ShardCount, cfg.ShardIndex = shards, idx
							}
							if ff {
								cfg.Replay = a
							}
							res, err := core.Run(cfg, tt.target())
							if err != nil {
								t.Fatalf("%s shard %d: %v", name, idx, err)
							}
							if res.Incomplete {
								t.Fatalf("%s shard %d incomplete: %s", name, idx, res.IncompleteReason)
							}
							if res.FailurePoints != live.FailurePoints {
								t.Errorf("%s shard %d: %d failure points, live had %d",
									name, idx, res.FailurePoints, live.FailurePoints)
							}
							if got := res.BucketedFailurePoints(); got != res.FailurePoints {
								t.Errorf("%s shard %d: buckets account for %d of %d failure points",
									name, idx, got, res.FailurePoints)
							}
							for _, k := range dedupKeys(res) {
								union[k] = true
							}
						}
						got := make([]string, 0, len(union))
						for k := range union {
							got = append(got, k)
						}
						sort.Strings(got)
						if !stringSlicesEqual(got, liveKeys) {
							t.Errorf("%s: merged keys diverge from live\nlive: %v\ngot:  %v", name, liveKeys, got)
						}
					}
				}
			}
		})
	}
}
