package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/serve"
)

// Distributed-campaign tests: the daemon/worker/lease machinery at the
// CLI level, pinned to the same contract every other orchestration mode
// upholds — the merged report key set is byte-identical to the
// single-process campaign's.

// TestServeFlagValidation: the serve modes are mutually exclusive and own
// their flags; inconsistent combinations are usage errors.
func TestServeFlagValidation(t *testing.T) {
	for _, args := range []string{
		"-serve 127.0.0.1:0 -worker http://x",  // two modes at once
		"-serve 127.0.0.1:0 -submit http://x",  // two modes at once
		"-worker http://x -spawn 2",            // two modes at once
		"-serve 127.0.0.1:0 -shards 2",         // the daemon has no shard layout
		"-worker http://x -shards 2",           // shard layout comes from the daemon
		"-worker http://x -workdir /tmp/x",     // the daemon owns the workdir
		"-submit http://x -shard-index 0",      // the daemon schedules every shard
		"-submit http://x -checkpoint c.jsonl", // campaigns checkpoint on the daemon
		"-submit http://x -resume",             // resume is the daemon's decision
		"-submit http://x -workdir /tmp/x",     // ditto the workdir
		"-spawn 2 -checkpoint -",               // -spawn shards stream to its daemon
	} {
		if code, out := runCLI(t, args); code != 2 {
			t.Errorf("%q exited %d, want 2:\n%s", args, code, out)
		}
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeCampaignEquivalence is the distributed acceptance test: an
// in-process daemon, two workers re-exec'ing this test binary for shard
// children, one worker crashing mid-shard (SIGKILLing its child and
// vanishing without a word). The daemon must expire the dead lease by
// heartbeat deadline, reschedule the shard onto the surviving worker with
// -resume against the daemon-held checkpoint, and the final merged key
// set must be byte-identical to the single-process run — with honest
// bucket accounting on the merged result.
func TestServeCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs full detection campaigns")
	}
	dir := t.TempDir()
	refKeys := filepath.Join(dir, "ref-keys.txt")
	code, out := runCLI(t, campaign+" -keys-out "+refKeys)
	if code != 1 {
		t.Fatalf("single-process run exited %d, want 1 (seeded bug):\n%s", code, out)
	}
	ref, err := os.ReadFile(refKeys)
	if err != nil {
		t.Fatal(err)
	}

	work := filepath.Join(dir, "daemon")
	if err := os.MkdirAll(work, 0o755); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(work, 500*time.Millisecond)
	srv.Logf = t.Logf
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &serve.Client{BaseURL: ts.URL}

	id, err := client.Submit(serve.CampaignSpec{Args: strings.Fields(campaign), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mkWorker := func(name string) *serve.Worker {
		return &serve.Worker{
			Client:         client,
			ID:             name,
			Exe:            os.Args[0],
			Poll:           20 * time.Millisecond,
			HeartbeatEvery: 100 * time.Millisecond,
			Grace:          5 * time.Second,
			Output:         io.Discard,
		}
	}

	// The doomed worker goes first and must be holding a lease before the
	// survivor starts, so the crash provably interrupts real work.
	doomed := mkWorker("doomed")
	doomed.CrashAfterLines = 2
	crashErr := make(chan error, 1)
	go func() { crashErr <- doomed.Run(ctx) }()
	waitUntil(t, "the doomed worker to hold a lease", func() bool {
		st, err := client.Campaign(id)
		if err != nil {
			return false
		}
		for _, sh := range st.ShardStates {
			if sh.State == "leased" && sh.Worker == "doomed" {
				return true
			}
		}
		return false
	})

	survivor := mkWorker("survivor")
	go survivor.Run(ctx)

	st, err := client.WaitDone(ctx, id, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatalf("waiting for campaign: %v", err)
	}
	select {
	case err := <-crashErr:
		if !errors.Is(err, serve.ErrWorkerCrashed) {
			t.Errorf("doomed worker returned %v, want ErrWorkerCrashed", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("doomed worker never returned from its crash")
	}

	if st.State != "done" || st.ExitCode != 1 {
		t.Fatalf("campaign = state %s exit %d, want done/1 (seeded bug):\n%+v", st.State, st.ExitCode, st)
	}
	if st.Incomplete {
		t.Fatalf("campaign incomplete: %s", st.IncompleteReason)
	}

	// The crash must have cost the shard an attempt and forced a -resume
	// reschedule, visible in the lease accounting and the Resumed bucket.
	rescheduled := false
	for _, sh := range st.ShardStates {
		if sh.Attempts >= 2 && sh.Resume {
			rescheduled = true
		}
	}
	if !rescheduled {
		t.Errorf("no shard was rescheduled after the worker crash: %+v", st.ShardStates)
	}
	if st.Buckets.Resumed == 0 {
		t.Errorf("resumed bucket empty after a -resume reschedule: %+v", st.Buckets)
	}
	b := st.Buckets
	if sum := b.PostRuns + b.Pruned + b.Resumed + b.Skipped + b.OtherShard; sum != st.FailurePoints {
		t.Errorf("merged bucket invariant broken: %d+%d+%d+%d+%d = %d, %d failure points",
			b.PostRuns, b.Pruned, b.Resumed, b.Skipped, b.OtherShard, sum, st.FailurePoints)
	}

	if got := ckpt.KeysFileText(st.Keys); !bytes.Equal(ref, []byte(got)) {
		t.Errorf("distributed keys diverge from single-process run:\nref:\n%s\nmerged:\n%s", ref, got)
	}
}

// TestCheckpointStdoutStreams: -checkpoint - writes the checkpoint JSONL
// to stdout (the wire format a worker parses) and moves the human report
// to stderr; with -resume the prior checkpoint arrives on stdin.
func TestCheckpointStdoutStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs a detection campaign")
	}
	const small = "-workload btree -init 2 -test 2 -patch btree-skip-add-leaf"
	code, stdout, stderr := runCLISplit(t, "", small+" -checkpoint -")
	if code != 1 {
		t.Fatalf("run exited %d, want 1:\n%s", code, stderr)
	}
	lines, err := ckpt.Read(strings.NewReader(stdout), "stdout")
	if err != nil {
		t.Fatalf("stdout is not a parseable checkpoint stream: %v\n%s", err, stdout)
	}
	summaries := 0
	for _, l := range lines {
		if l.IsSummary() {
			summaries++
		}
	}
	if summaries != 1 {
		t.Errorf("stdout stream carries %d summaries, want 1:\n%s", summaries, stdout)
	}
	if strings.Contains(stdout, "XFDetector report") {
		t.Errorf("human report leaked into the checkpoint stream:\n%s", stdout)
	}
	if !strings.Contains(stderr, "failure points:") {
		t.Errorf("human report missing from stderr:\n%s", stderr)
	}

	// Resume over stdin: feed the full checkpoint back; every point must
	// be reused (resumed == total) and the stream re-summarized.
	code, stdout2, stderr2 := runCLISplit(t, stdout, small+" -checkpoint - -resume")
	if code != 1 {
		t.Fatalf("stdin-resumed run exited %d, want 1:\n%s", code, stderr2)
	}
	if !strings.Contains(stderr2, "resumed:") {
		t.Errorf("stdin-resumed run did not reuse completed failure points:\n%s", stderr2)
	}
	relines, err := ckpt.Read(strings.NewReader(stdout2), "stdout")
	if err != nil {
		t.Fatalf("resumed stdout unparseable: %v", err)
	}
	perPoint := 0
	for _, l := range relines {
		if !l.IsSummary() {
			perPoint++
		}
	}
	if perPoint != 0 {
		t.Errorf("fully-resumed run re-streamed %d per-point lines, want 0", perPoint)
	}
}

// runCLISplit is runCLIEnv with stdin and separated stdout/stderr, for
// tests that inspect the -checkpoint - wire format.
func runCLISplit(t *testing.T, stdin, args string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "XFDETECTOR_HELPER_ARGS="+args)
	cmd.Stdin = strings.NewReader(stdin)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running helper: %v", err)
	}
	return code, out.String(), errb.String()
}
