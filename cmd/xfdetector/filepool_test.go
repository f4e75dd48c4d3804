package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// CLI tests for file-backed pools: flag validation, pool-file collision,
// kill -9 + -resume over the surviving image, the XFDETECTOR_DISK_FAULT
// injection hook, and the -spawn fleet laying out per-shard pool files
// under its campaign directory in -workdir.

// msyncLine extracts the "pool file: ..." accounting line from a run's
// output: ranges, pages written, pages already persisted (compare-skipped).
func msyncLine(t *testing.T, out string) (ranges, written, skipped int) {
	t.Helper()
	m := regexp.MustCompile(`pool file: (\d+) msync range\(s\), (\d+) page\(s\) written, (\d+) already persisted`).
		FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output has no pool-file msync accounting line:\n%s", out)
	}
	ranges, _ = strconv.Atoi(m[1])
	written, _ = strconv.Atoi(m[2])
	skipped, _ = strconv.Atoi(m[3])
	return ranges, written, skipped
}

// TestFilePoolFlagValidation: the campaign-directory flags are validated
// before any pool file is created.
func TestFilePoolFlagValidation(t *testing.T) {
	for _, args := range []string{
		"-workdir d",                          // workdir without -spawn
		"-workdir d -workload btree",          // ditto, with a workload
		"-spawn 2 -checkpoint c -pool-file p", // the daemon lays out the pools and checkpoints
		"-spawn 2 -workdir /dev/null/x -pool-file p -workload btree", // uncreatable workdir
	} {
		if code, out := runCLI(t, args); code != 2 {
			t.Errorf("%q exited %d, want 2:\n%s", args, code, out)
		}
	}
}

// TestFileBackedCampaignCLI: a -pool-file campaign reports msync accounting,
// produces the byte-identical key set of the in-memory run, and a second
// fresh campaign over the same pool file is refused.
func TestFileBackedCampaignCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs full detection campaigns")
	}
	const args = "-workload btree -init 2 -test 2 -patch btree-skip-add-leaf"
	dir := t.TempDir()
	refKeys := filepath.Join(dir, "ref-keys.txt")
	code, out := runCLI(t, args+" -keys-out "+refKeys)
	if code != 1 {
		t.Fatalf("in-memory run exited %d, want 1 (seeded bug):\n%s", code, out)
	}

	pool := filepath.Join(dir, "pool.img")
	fileKeys := filepath.Join(dir, "file-keys.txt")
	fcode, fout := runCLI(t, fmt.Sprintf("%s -pool-file %s -keys-out %s", args, pool, fileKeys))
	if fcode != code {
		t.Fatalf("file-backed run exited %d, in-memory exited %d:\n%s", fcode, code, fout)
	}
	if ranges, written, _ := msyncLine(t, fout); ranges == 0 || written == 0 {
		t.Errorf("file-backed run persisted nothing: %d ranges, %d pages:\n%s", ranges, written, fout)
	}
	ref, err := os.ReadFile(refKeys)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fileKeys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Errorf("file-backed keys diverge from in-memory run:\nref:\n%s\nfile:\n%s", ref, got)
	}

	// Collision: without -resume, the surviving image must be an error, not
	// a silently mixed campaign.
	ccode, cout := runCLI(t, fmt.Sprintf("%s -pool-file %s", args, pool))
	if ccode != 2 || !strings.Contains(cout, "already exists") {
		t.Errorf("pool-file collision exited %d (%q), want 2 with an already-exists error", ccode, cout)
	}
}

// TestFileBackedKillAndResume is the CLI half of the resume acceptance
// criterion: a file-backed checkpointed campaign SIGKILLed mid-run and
// resumed over the surviving pool file yields the byte-identical key set of
// an uninterrupted in-memory run, and the resumed incarnation compare-skips
// pages its predecessor already persisted instead of re-msyncing them.
func TestFileBackedKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs a full detection campaign")
	}
	dir := t.TempDir()
	refKeys := filepath.Join(dir, "ref-keys.txt")
	code, out := runCLI(t, campaign+" -keys-out "+refKeys)
	if code != 1 {
		t.Fatalf("in-memory reference run exited %d, want 1:\n%s", code, out)
	}

	pool := filepath.Join(dir, "pool.img")
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	run := fmt.Sprintf("%s -pool-file %s -checkpoint %s", campaign, pool, ckpt)

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "XFDETECTOR_HELPER_ARGS="+run)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for countLines(ckpt) < 5 {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("campaign recorded only %d checkpoint lines in 30s", countLines(ckpt))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	killedAt := countLines(ckpt)

	resKeys := filepath.Join(dir, "resumed-keys.txt")
	rcode, rout := runCLI(t, run+" -resume -keys-out "+resKeys)
	if rcode != 1 {
		t.Fatalf("resumed run exited %d, want 1:\n%s", rcode, rout)
	}
	if !strings.Contains(rout, "resumed:") {
		t.Errorf("resumed run reused no failure points (killed at %d lines):\n%s", killedAt, rout)
	}
	// The surviving image already holds every page the killed incarnation
	// persisted; the deterministic replay must find at least some of them
	// byte-identical at their persist boundaries and skip the msync.
	if _, _, skipped := msyncLine(t, rout); skipped == 0 {
		t.Errorf("resumed run compare-skipped no pages — it never consulted the surviving image:\n%s", rout)
	}
	ref, err := os.ReadFile(refKeys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := os.ReadFile(resKeys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, res) {
		t.Errorf("report sets diverge after kill+resume (killed at %d checkpoint lines):\nreference:\n%s\nresumed:\n%s",
			killedAt, ref, res)
	}
}

// TestDiskFaultEnvQuarantine: XFDETECTOR_DISK_FAULT arms a deterministic
// disk fault on the file-backed campaign; the affected failure point is
// quarantined (exit 3, INCOMPLETE, the fault class named) and the surviving
// failure points still converge to the in-memory key set — degradation,
// never fabrication.
func TestDiskFaultEnvQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs full detection campaigns")
	}
	const args = "-workload btree -init 2 -test 2 -patch btree-skip-add-leaf"
	dir := t.TempDir()
	refKeys := filepath.Join(dir, "ref-keys.txt")
	code, out := runCLI(t, args+" -keys-out "+refKeys)
	if code != 1 {
		t.Fatalf("in-memory run exited %d, want 1:\n%s", code, out)
	}

	pool := filepath.Join(dir, "pool.img")
	keys := filepath.Join(dir, "faulted-keys.txt")
	fcode, fout := runCLIEnv(t, []string{diskFaultEnv + "=short-msync:2"},
		fmt.Sprintf("%s -pool-file %s -keys-out %s", args, pool, keys))
	if fcode != 3 {
		t.Fatalf("faulted run exited %d, want 3 (incomplete):\n%s", fcode, fout)
	}
	for _, want := range []string{"INCOMPLETE", "quarantined", "short-msync"} {
		if !strings.Contains(fout, want) {
			t.Errorf("faulted output does not mention %q:\n%s", want, fout)
		}
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
		t.Errorf("faulted key set diverges from in-memory run:\nref:\n%s\nfaulted:\n%s", ref, got)
	}
}

// TestSpawnFileBackedWorkdir: -spawn with -pool-file lays out per-shard
// pool files and checkpoints under -workdir, survives a SIGKILLed shard
// whose rescheduled incarnation reopens its own pool file with -resume,
// and merges to the single-process key set.
func TestSpawnFileBackedWorkdir(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs full detection campaigns")
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
		fmt.Sprintf("%s -spawn 3 %s -workdir %s -pool-file pool -keys-out %s",
			campaign, spawnFleet, workdir, keys))
	if mcode != 1 {
		t.Fatalf("fleet exited %d, want 1:\n%s", mcode, mout)
	}
	if !strings.Contains(mout, "rescheduling with -resume") {
		t.Fatalf("fleet never rescheduled the killed shard:\n%s", mout)
	}
	for i := 0; i < 3; i++ {
		for _, name := range []string{fmt.Sprintf("shard%d.pool", i), fmt.Sprintf("shard%d.ckpt", i)} {
			if _, err := os.Stat(filepath.Join(workdir, "c1", name)); err != nil {
				t.Errorf("fleet file %s missing under -workdir: %v", name, err)
			}
		}
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
		t.Errorf("merged keys diverge after kill+respawn over pool files:\nref:\n%s\nmerged:\n%s", ref, got)
	}
}
