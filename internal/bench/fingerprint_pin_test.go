package bench

import (
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/shadow"
	"github.com/pmemgo/xfdetector/internal/trace"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

// fingerprintDigest replays a kept pre-failure trace into a fresh shadow
// and folds the crash-state fingerprint of every failure-point marker into
// one FNV-1a-style digest, h = (h ^ f) * prime from the offset basis. It
// returns the digest and the number of markers folded.
func fingerprintDigest(tr *trace.Trace, poolSize uint64) (uint64, int) {
	sh := shadow.NewPM(poolSize)
	h, n := uint64(0xcbf29ce484222325), 0
	for _, e := range tr.Entries() {
		sh.Apply(e)
		if e.Kind == trace.FailurePoint && e.Stage == trace.PreFailure {
			h = (h ^ sh.CrashFingerprint()) * 0x100000001b3
			n++
		}
	}
	return h, n
}

// TestCrashFingerprintsPinned pins the crash-state fingerprint values. A
// fingerprint keys every verdict-cache entry, checkpoint line and recorded
// artifact, so a scheme change, however consistent with itself, turns
// every durable verdict into a miss; the cache-soundness tests in
// internal/shadow compare the code only with itself. The campaigns are L,
// the clean B-Tree update loop (`-init 2 -test 1 -updates 2
// -update-rounds 1000 -removes 0`, perfbench's update_loop), and C, the
// faulty 80-insert B-Tree (`-init 3 -test 80 -patch btree-skip-add-leaf`,
// the program fleet_insert shards), both in a 4 MiB pool on one worker.
// The digests were computed before the per-line geometry test existed.
func TestCrashFingerprintsPinned(t *testing.T) {
	m, ok := workloads.MakerFor("B-Tree")
	if !ok {
		t.Fatal("B-Tree workload not registered")
	}
	cases := []struct {
		name   string
		cfg    workloads.TargetConfig
		points int
		digest uint64
	}{
		{"L", workloads.TargetConfig{InitSize: 2, TestSize: 1, Updates: 2, UpdateRounds: 1000, PostOps: true},
			8017, 0x563e4a5e71a75230},
		{"C", workloads.TargetConfig{InitSize: 3, TestSize: 80, Updates: 1, Removes: 1, PostOps: true,
			Fault: "btree-skip-add-leaf", FaultInCreate: true},
			654, 0xa4765dd71ecddbdb},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Run(core.Config{PoolSize: DefaultPoolSize, KeepTrace: true},
				workloads.DetectionTarget(m, tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			digest, points := fingerprintDigest(res.PreTrace(), DefaultPoolSize)
			if points != tc.points || res.FailurePoints != tc.points {
				t.Fatalf("%d failure-point markers in the trace, %d failure points, want %d", points, res.FailurePoints, tc.points)
			}
			if digest != tc.digest {
				t.Fatalf("fingerprint digest over %d failure points = %016x, want %016x", points, digest, tc.digest)
			}
		})
	}
}
