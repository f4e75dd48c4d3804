package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/pmemgo/xfdetector/internal/serve"
)

// TestMain doubles as the CLI when re-exec'd by the kill-and-resume and
// sharding tests: with XFDETECTOR_SHARD_ARGS (JSON, set by a worker or the
// daemon's record launcher) or XFDETECTOR_HELPER_ARGS set, the test binary
// IS xfdetector. The shard vector must win: a -spawn fleet running as a
// helper passes its own helper env down to the children it starts.
func TestMain(m *testing.M) {
	if encoded := os.Getenv(serve.ShardArgsEnv); encoded != "" {
		var args []string
		if err := json.Unmarshal([]byte(encoded), &args); err != nil {
			fmt.Fprintf(os.Stderr, "bad %s: %v\n", serve.ShardArgsEnv, err)
			os.Exit(2)
		}
		os.Exit(realMain(args))
	}
	if args := os.Getenv("XFDETECTOR_HELPER_ARGS"); args != "" {
		os.Exit(realMain(strings.Fields(args)))
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	return runCLIEnv(t, nil, args...)
}

// runCLIEnv is runCLI with extra environment entries for the re-exec'd
// process (e.g. the worker crash hook), usable from parallel tests where
// t.Setenv is not.
func runCLIEnv(t *testing.T, extraEnv []string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "XFDETECTOR_HELPER_ARGS="+strings.Join(args, " "))
	cmd.Env = append(cmd.Env, extraEnv...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running helper: %v", err)
	}
	return code, out.String()
}

const campaign = "-workload btree -init 3 -test 80 -patch btree-skip-add-leaf"

// TestKillAndResume is the acceptance test for crash-safe resume: a
// checkpointed campaign killed with SIGKILL mid-run and then resumed must
// produce the byte-identical deduplicated report set of an uninterrupted
// run — sequentially and with the parallel engine's worker-goroutine
// checkpoint callbacks.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs a full detection campaign")
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := fmt.Sprintf("%s -workers %d", campaign, workers)
			dir := t.TempDir()
			refKeys := filepath.Join(dir, "ref-keys.txt")
			ckpt := filepath.Join(dir, "ckpt.jsonl")
			resKeys := filepath.Join(dir, "resumed-keys.txt")

			// Reference: the same campaign, uninterrupted.
			code, out := runCLI(t, run+" -keys-out "+refKeys)
			if code != 0 && code != 1 {
				t.Fatalf("reference run exited %d:\n%s", code, out)
			}

			// Start the checkpointed campaign and SIGKILL it once enough
			// failure points are durably recorded — no chance to flush or
			// trap anything.
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(),
				"XFDETECTOR_HELPER_ARGS="+run+" -checkpoint "+ckpt)
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

			// Resume and compare.
			code, out = runCLI(t, run+" -checkpoint "+ckpt+" -resume -keys-out "+resKeys)
			if code != 0 && code != 1 {
				t.Fatalf("resumed run exited %d:\n%s", code, out)
			}
			if !strings.Contains(out, "resumed:") {
				t.Errorf("resumed run does not report reused failure points (killed at %d lines):\n%s", killedAt, out)
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
		})
	}
}

// TestTruncatedCheckpointTolerated: a torn trailing line (the write the
// crash interrupted) is discarded on load instead of failing the resume.
func TestTruncatedCheckpointTolerated(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	if err := os.WriteFile(ckpt, []byte(`{"fp":0}
{"fp":1,"reports":[{"Class":0,"ReaderIP":"a.go:1","WriterIP":"b.go:2"}]}
{"fp":2,"repor`), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := loadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Done) != 2 || !cp.Done[0] || !cp.Done[1] {
		t.Errorf("done = %v, want fps 0 and 1 (torn fp 2 discarded)", cp.Done)
	}
	if len(cp.Seed) != 1 || cp.Seed[0].ReaderIP != "a.go:1" {
		t.Errorf("seed = %v, want the one recorded report", cp.Seed)
	}
	if cp.Total != -1 {
		t.Errorf("total = %d, want -1 (no summary line)", cp.Total)
	}
}

// TestFreshCheckpointRefusesExisting: without -resume, an existing
// checkpoint must be an error, not a silent mixed campaign.
func TestFreshCheckpointRefusesExisting(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if err := os.WriteFile(ckpt, []byte(`{"fp":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openCheckpoint(ckpt, false); err == nil {
		t.Fatal("openCheckpoint overwrote an existing campaign")
	}
	if w, err := openCheckpoint(ckpt, true); err != nil {
		t.Fatalf("resume open failed: %v", err)
	} else {
		w.close()
	}
}

func countLines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return bytes.Count(data, []byte("\n"))
}
