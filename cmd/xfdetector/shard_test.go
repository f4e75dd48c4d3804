package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Sharded-campaign tests at the CLI level: manual -shards/-shard-index
// runs merged with -merge, and -spawn fleets (an in-process daemon and
// workers) with a crashed shard rescheduled by lease expiry. All of them
// pin the contract that the merged report key set is byte-identical to
// the single-process campaign's -keys-out.

// spawnFleet are the fleet settings of every -spawn test: a crashed
// worker's lease expires after the TTL, while the heartbeat keeps healthy
// leases alive even with seven fleets running in parallel.
const spawnFleet = "-lease-ttl 2s -heartbeat 500ms"

// spawnCrash arms the crash hook on a -spawn fleet's first worker: it
// SIGKILLs its shard child after two streamed checkpoint lines and stops
// without telling the daemon.
var spawnCrash = []string{workerCrashEnv + "=2"}

// Readers of a report's class and resumed counts. Anchored at line start:
// under -spawn the shards' own reports reach the output first, prefixed
// by their worker, and only the merged report's lines start a line.
var (
	classesRe = regexp.MustCompile(`(?m)^pruning: (\d+) crash-state class`)
	resumedRe = regexp.MustCompile(`(?m)^resumed: (\d+) failure point`)
)

// checkFleetCounts holds a fleet's merged post-runs and crash-state
// classes to the single-process run's. Shards own whole classes, so an
// uncrashed fleet matches exactly. A crashed and resumed shard counts its
// first incarnation's points as resumed, and re-runs a member of each
// class whose representative it resumed: then post-runs plus resumed
// points lie between the single-process count and that count plus the
// resumed points, and so do classes plus resumed points.
func checkFleetCounts(t *testing.T, label, single, fleet string) {
	t.Helper()
	resumed := extract(t, resumedRe, fleet)
	for _, c := range []struct {
		what string
		re   *regexp.Regexp
	}{{"post-runs", mergedPostRunsRe}, {"classes", classesRe}} {
		want, got := extract(t, c.re, single), extract(t, c.re, fleet)
		if want == 0 {
			t.Errorf("%s: the single-process run reports no %s:\n%s", label, c.what, single)
		}
		if got+resumed < want || got > want {
			t.Errorf("%s: merged %s %d with %d resumed, single-process run %d; want %s + resumed in [%d, %d]",
				label, c.what, got, resumed, want, c.what, want, want+resumed)
		}
	}
}

// TestShardFlagValidation: inconsistent shard flags are usage errors, not
// silently partial campaigns.
func TestShardFlagValidation(t *testing.T) {
	for _, args := range []string{
		"-shards 2",                           // no -shard-index
		"-shards 2 -shard-index 2",            // index out of range
		"-shard-index 0",                      // index without -shards
		"-spawn 1",                            // fewer than 2 shards
		"-spawn 2 -shards 2",                  // conflicting layouts
		"-spawn 2 -shard-index 0",             // ditto
		"-spawn 2 -checkpoint c",              // the daemon holds the checkpoints
		"-spawn 2 -resume",                    // rescheduling decides -resume
		"-merge -spawn 2",                     // conflicting modes
		"-merge",                              // nothing to merge
		"-merge /nonexistent/definitely.ckpt", // typo'd operand
	} {
		if code, out := runCLI(t, args); code != 2 {
			t.Errorf("%q exited %d, want 2:\n%s", args, code, out)
		}
	}
}

// TestWorkersFlagValidation: -workers below 1 is a usage error, not a
// silently sequential campaign.
func TestWorkersFlagValidation(t *testing.T) {
	for _, args := range []string{
		"-workload btree -init 2 -test 2 -workers -3",
		"-workload btree -init 2 -test 2 -workers 0",
	} {
		if code, out := runCLI(t, args); code != 2 || !strings.Contains(out, "-workers must be >= 1") {
			t.Errorf("%q exited %d, want 2 with a -workers usage error:\n%s", args, code, out)
		}
	}
}

// shardTable is the Table 4 workload matrix the sharded-equivalence
// acceptance criterion runs over: the five micro benchmarks with a seeded
// bug, Redis with the paper's Bug 3, and Memcached clean (whose empty
// report set also exercises the empty -keys-out encoding). The update-loop
// B-Tree revisits its crash-state classes throughout the campaign, so its
// classes have many members each, which class sharding keeps on one shard.
var shardTable = []struct {
	name string
	args string
}{
	{"btree", "-workload btree -init 2 -test 2 -patch btree-skip-add-leaf"},
	{"ctree", "-workload ctree -init 2 -test 2 -patch ctree-skip-add-count"},
	{"rbtree", "-workload rbtree -init 2 -test 2 -patch rbt-skip-add-root"},
	{"hashmap-tx", "-workload hashmap-tx -init 2 -test 2 -patch hmtx-skip-add-slot"},
	{"hashmap-atomic", "-workload hashmap-atomic -init 2 -test 2 -patch hma-sem-inverted-dirty"},
	{"redis", "-workload redis -init 2 -test 2 -patch init-race"},
	{"memcached", "-workload memcached -init 2 -test 2"},
	{"btree-update-loop", "-workload btree -init 2 -test 1 -updates 2 -update-rounds 20 -patch btree-skip-add-leaf"},
}

// TestShardedCampaignEquivalence: for every workload in the equivalence
// table, an N-shard -spawn fleet (N ∈ {2, 3}) merges to the byte-identical
// key set of the single-process run, and to its post-runs and crash-state
// classes (checkFleetCounts) — including when one shard is SIGKILLed
// mid-run and rescheduled with -resume (the 3-shard variant arms the
// worker crash hook).
func TestShardedCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs full detection campaigns")
	}
	for _, tt := range shardTable {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			refKeys := filepath.Join(dir, "ref-keys.txt")
			code, out := runCLI(t, tt.args+" -keys-out "+refKeys)
			if code != 0 && code != 1 {
				t.Fatalf("single-process run exited %d:\n%s", code, out)
			}
			ref, err := os.ReadFile(refKeys)
			if err != nil {
				t.Fatal(err)
			}

			for _, shards := range []int{2, 3} {
				workdir := filepath.Join(dir, fmt.Sprintf("n%d", shards))
				keys := filepath.Join(dir, fmt.Sprintf("n%d-keys.txt", shards))
				var env []string
				if shards == 3 {
					env = spawnCrash
				}
				mcode, mout := runCLIEnv(t, env, fmt.Sprintf("%s -spawn %d %s -workdir %s -keys-out %s",
					tt.args, shards, spawnFleet, workdir, keys))
				if mcode != code {
					t.Fatalf("spawn %d exited %d, single-process run exited %d:\n%s", shards, mcode, code, mout)
				}
				got, err := os.ReadFile(keys)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ref, got) {
					t.Errorf("spawn %d merged keys diverge from single-process run:\nref:\n%s\nmerged:\n%s\nfleet output:\n%s",
						shards, ref, got, mout)
				}
				checkFleetCounts(t, fmt.Sprintf("spawn %d", shards), out, mout)
				if shards == 2 && extract(t, resumedRe, mout) != 0 {
					t.Errorf("spawn 2 resumed failure points without a crash:\n%s", mout)
				}
			}
		})
	}
}

// TestManualShardingAndMerge: the two-terminal workflow — each shard run
// by hand with -shards/-shard-index and its own checkpoint, then -merge.
// A merge over a strict subset of the shards must exit 3 (the union does
// not cover the campaign); the full merge must equal the single-process
// key set byte for byte.
func TestManualShardingAndMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs full detection campaigns")
	}
	const base = "-workload btree -init 2 -test 4 -patch btree-skip-add-leaf"
	dir := t.TempDir()
	refKeys := filepath.Join(dir, "ref-keys.txt")
	refCode, out := runCLI(t, base+" -keys-out "+refKeys)
	if refCode != 1 {
		t.Fatalf("single-process run exited %d, want 1 (seeded bug):\n%s", refCode, out)
	}

	const shards = 3
	paths := make([]string, shards)
	for i := 0; i < shards; i++ {
		paths[i] = filepath.Join(dir, fmt.Sprintf("s%d.ckpt", i))
		code, out := runCLI(t, fmt.Sprintf("%s -shards %d -shard-index %d -checkpoint %s", base, shards, i, paths[i]))
		if code != 0 && code != 1 {
			t.Fatalf("shard %d exited %d:\n%s", i, code, out)
		}
		if !strings.Contains(out, fmt.Sprintf("shard %d/%d:", i, shards)) {
			t.Errorf("shard %d did not report its shard accounting:\n%s", i, out)
		}
	}

	// Partial union: the orchestration equivalent of a lost shard.
	code, out := runCLI(t, "-merge "+paths[0]+" "+paths[2])
	if code != 3 {
		t.Fatalf("partial merge exited %d, want 3 (union does not cover the campaign):\n%s", code, out)
	}
	if !strings.Contains(out, "INCOMPLETE") {
		t.Errorf("partial merge does not report incompleteness:\n%s", out)
	}

	mergedKeys := filepath.Join(dir, "merged-keys.txt")
	code, out = runCLI(t, fmt.Sprintf("-merge -keys-out %s %s", mergedKeys, strings.Join(paths, " ")))
	if code != refCode {
		t.Fatalf("full merge exited %d, want %d:\n%s", code, refCode, out)
	}
	ref, err := os.ReadFile(refKeys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(mergedKeys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Errorf("merged keys diverge from single-process run:\nref:\n%s\nmerged:\n%s", ref, got)
	}
}

// TestSpawnRespawnsKilledShard: on a campaign long enough that the crash
// hook reliably lands mid-run, the fleet must actually reschedule the
// SIGKILLed shard with -resume and still merge to the single-process key
// set.
func TestSpawnRespawnsKilledShard(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs a full detection campaign")
	}
	dir := t.TempDir()
	refKeys := filepath.Join(dir, "ref-keys.txt")
	code, out := runCLI(t, campaign+" -keys-out "+refKeys)
	if code != 1 {
		t.Fatalf("single-process run exited %d, want 1:\n%s", code, out)
	}

	workdir := filepath.Join(dir, "fleet")
	keys := filepath.Join(dir, "spawn-keys.txt")
	mcode, mout := runCLIEnv(t, spawnCrash,
		fmt.Sprintf("%s -spawn 3 %s -workdir %s -keys-out %s", campaign, spawnFleet, workdir, keys))
	if mcode != 1 {
		t.Fatalf("fleet exited %d, want 1:\n%s", mcode, mout)
	}
	if !strings.Contains(mout, "rescheduling with -resume") {
		t.Fatalf("fleet never rescheduled the killed shard:\n%s", mout)
	}
	if !strings.Contains(mout, "resumed:") {
		t.Errorf("rescheduled shard did not resume from its checkpoint:\n%s", mout)
	}
	ref, err := os.ReadFile(refKeys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(keys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Errorf("merged keys diverge after kill+respawn:\nref:\n%s\nmerged:\n%s", ref, got)
	}
}

// TestSpawnInterruptMergesCheckpoints: ^C on a running -spawn fleet stops
// its shards and reports the merge of the daemon-held shard checkpoints
// written so far — INCOMPLETE, exit 3 — instead of a partial result posing
// as the campaign.
func TestSpawnInterruptMergesCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs a shard fleet")
	}
	workdir := filepath.Join(t.TempDir(), "fleet")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "XFDETECTOR_HELPER_ARGS=-workload btree -init 3 -test 300 -patch btree-skip-add-leaf -spawn 3 -workdir "+workdir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "streamed checkpoint lines", func() bool {
		n := 0
		for i := 0; i < 3; i++ {
			n += countLines(filepath.Join(workdir, "c1", fmt.Sprintf("shard%d.ckpt", i)))
		}
		return n >= 5
	})
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("interrupted fleet exited with %v, want exit 3:\n%s", err, out.String())
	}
	for _, want := range []string{"INCOMPLETE", "merged checkpoints:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("interrupted fleet output lacks %q:\n%s", want, out.String())
		}
	}
}
