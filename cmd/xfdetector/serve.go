package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/serve"
	"github.com/pmemgo/xfdetector/internal/vcache"
)

// Distributed campaign modes. The daemon and workers share one binary:
//
//	xfdetector -serve 0.0.0.0:7433 -workdir /var/lib/xfd     # daemon
//	xfdetector -worker http://daemon:7433                     # per machine
//	xfdetector -submit http://daemon:7433 -shards 8 \
//	    -workload btree -test 500 -patch btree-skip-add-leaf  # a campaign
//
// The submit mode blocks until the campaign resolves and exits by the
// usual contract (0 clean, 1 bugs, 2 failed, 3 incomplete). -spawn N runs
// all three in one process: the daemon on a loopback listener, N worker
// loops, and the submission.

// workerCrashEnv is the deterministic worker crash hook for the serve
// tests and CI smokes: XFDETECTOR_WORKER_TEST_CRASH=N makes the worker
// (under -spawn, the first in-process worker) SIGKILL its shard child
// after streaming N checkpoint lines and stop without telling the daemon
// — a machine loss the lease expiry must absorb.
const workerCrashEnv = "XFDETECTOR_WORKER_TEST_CRASH"

// spawnPoll is the -spawn workers' lease poll and the status poll of its
// completion wait: far below campaign time, so a small campaign does not
// sit idle between its record pass, its leases and its result.
const spawnPoll = 5 * time.Millisecond

// newDaemon builds the campaign daemon -serve and -spawn share: a
// serve.Server over workdir (created; a fresh temporary directory when
// empty) whose record-once launcher execs this binary with -record into
// the campaign directory, for every shard to replay. The record child is
// stopped when ctx ends.
func newDaemon(ctx context.Context, workdir string, leaseTTL, killGrace time.Duration) (*serve.Server, error) {
	if workdir == "" {
		dir, err := os.MkdirTemp("", "xfdserve-")
		if err != nil {
			return nil, fmt.Errorf("creating serve workdir: %v", err)
		}
		workdir = dir
	} else if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, fmt.Errorf("creating -workdir: %v", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating daemon binary: %v", err)
	}
	srv := serve.NewServer(workdir, leaseTTL)
	srv.Record = func(dir string, args []string) (string, error) {
		return recordForDaemon(ctx, exe, dir, args, killGrace)
	}
	return srv, nil
}

// runServe hosts the campaign daemon until SIGINT/SIGTERM.
func runServe(addr, workdir string, leaseTTL, killGrace time.Duration) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv, err := newDaemon(ctx, workdir, leaseTTL, killGrace)
	if err != nil {
		return errorf("%v", err)
	}
	// The daemon owns the cross-campaign verdict cache: one file under the
	// workdir, shared by every campaign it ever schedules.
	cache, err := vcache.Open(filepath.Join(srv.Workdir, "verdicts.cache"))
	if err != nil {
		return errorf("opening verdict cache: %v", err)
	}
	defer cache.Close()
	srv.Cache = cache
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return errorf("listening on %s: %v", addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	shutdown := make(chan struct{})
	go func() {
		defer close(shutdown)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "[serve] campaign daemon listening on %s (workdir %s, lease TTL %s)\n",
		ln.Addr(), srv.Workdir, leaseTTL)
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return errorf("serving: %v", err)
	}
	<-shutdown
	srv.WaitRecords()
	return 0
}

// recordForDaemon runs one campaign's record-once child and returns the
// artifact path. Exit 0 and 1 (clean / pre-failure bugs reported) both
// leave a complete artifact. When ctx ends the child is stopped as a
// worker stops a shard: SIGTERM, then SIGKILL after killGrace.
func recordForDaemon(ctx context.Context, exe, dir string, baseArgs []string, killGrace time.Duration) (string, error) {
	path := filepath.Join(dir, "campaign.xfdr")
	args := append(append([]string{}, baseArgs...), "-record", path)
	encoded, err := json.Marshal(args)
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), serve.ShardArgsEnv+"="+string(encoded))
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		return "", fmt.Errorf("record child: %v", err)
	}
	waitDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			serve.TerminateThenKill(cmd.Process, waitDone, killGrace)
		case <-waitDone:
		}
	}()
	err = cmd.Wait()
	close(waitDone)
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() == 1 {
			return path, nil // pre-failure bugs reported; the artifact is complete
		}
		return "", fmt.Errorf("record child: %v: %s", err, ckpt.Truncate(out.String(), 2048))
	}
	return path, nil
}

// workerCaps are the capability tags this machine's workers advertise.
// File-backed pools are mmap/msync-based and linux-only; only linux
// workers can run -pool-file campaign shards.
func workerCaps() []string {
	if runtime.GOOS == "linux" {
		return []string{serve.CapFileBacked}
	}
	return nil
}

// newWorker builds a worker loop that execs this same binary for shard
// children.
func newWorker(daemonURL, id string, heartbeat, killGrace time.Duration) (*serve.Worker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating worker binary: %v", err)
	}
	return &serve.Worker{
		Client:         &serve.Client{BaseURL: daemonURL},
		ID:             id,
		Exe:            exe,
		Caps:           workerCaps(),
		HeartbeatEvery: heartbeat,
		Grace:          killGrace,
	}, nil
}

// crashAfterLines reads workerCrashEnv: the worker crash hook's line
// count, 0 when unset.
func crashAfterLines() (int, error) {
	spec := os.Getenv(workerCrashEnv)
	if spec == "" {
		return 0, nil
	}
	var n int
	if _, err := fmt.Sscanf(spec, "%d", &n); err != nil || n < 1 {
		return 0, fmt.Errorf("bad %s=%q: want a positive line count", workerCrashEnv, spec)
	}
	return n, nil
}

// runWorker joins a daemon's fleet until SIGINT/SIGTERM.
func runWorker(daemonURL string, heartbeat, killGrace time.Duration) int {
	host, _ := os.Hostname()
	w, err := newWorker(daemonURL, fmt.Sprintf("%s-%d", host, os.Getpid()), heartbeat, killGrace)
	if err != nil {
		return errorf("%v", err)
	}
	if w.CrashAfterLines, err = crashAfterLines(); err != nil {
		return errorf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch err := w.Run(ctx); {
	case errors.Is(err, serve.ErrWorkerCrashed):
		fmt.Fprintf(os.Stderr, "xfdetector: worker crash hook fired after %d line(s)\n", w.CrashAfterLines)
		return 1
	case errors.Is(err, context.Canceled):
		return 0
	case err != nil:
		return errorf("worker: %v", err)
	}
	return 0
}

// runSubmit submits one campaign, waits for it, prints the merged report,
// and optionally writes the key fingerprint.
func runSubmit(daemonURL string, spec serve.CampaignSpec, keysOut string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := &serve.Client{BaseURL: daemonURL}
	id, err := client.Submit(spec)
	if err != nil {
		return errorf("submitting campaign: %v", err)
	}
	fmt.Fprintf(os.Stderr, "submitted campaign %s (%d shard(s)) to %s\n", id, spec.Shards, daemonURL)
	code, err := awaitCampaign(ctx, client, id, 500*time.Millisecond, keysOut)
	if err != nil {
		return errorf("waiting for campaign %s: %v", id, err)
	}
	return code
}

// awaitCampaign is the tail -submit and -spawn share: wait for campaign id
// (polling its status every poll, coverage progress on stderr), print the
// shard states and the merged report, write the keys, and return the
// campaign's exit code. A wait that fails, ^C included, prints no report
// and returns the error.
func awaitCampaign(ctx context.Context, client *serve.Client, id string, poll time.Duration, keysOut string) (int, error) {
	st, err := client.WaitDone(ctx, id, poll, func(st serve.CampaignStatus) {
		total := "?"
		if st.Total >= 0 {
			total = fmt.Sprint(st.Total)
		}
		fmt.Fprintf(os.Stderr, "campaign %s: %d/%s failure point(s) covered, %d report(s)\n",
			st.ID, st.Covered, total, st.Reports)
	})
	if err != nil {
		return 0, err
	}

	for _, sh := range st.ShardStates {
		extra := ""
		if sh.Resume {
			extra = ", rescheduled with -resume"
		}
		if sh.GaveUp {
			extra += ", gave up"
		}
		fmt.Fprintf(os.Stderr, "shard %d/%d: %s (exit %d) on %s after %d attempt(s)%s\n",
			sh.Index, st.Shards, sh.State, sh.ExitCode, sh.Worker, sh.Attempts, extra)
	}
	if st.State == "failed" {
		return errorf("campaign %s failed: %s", id, st.Failure), nil
	}
	fmt.Print(st.ResultText)
	if keysOut != "" {
		if err := os.WriteFile(keysOut, []byte(ckpt.KeysFileText(st.Keys)), 0o644); err != nil {
			return errorf("writing keys: %v", err), nil
		}
	}
	return st.ExitCode, nil
}

// runSpawn runs one campaign on a fleet inside this process: the daemon
// -serve runs, on a loopback listener, and one worker loop per shard —
// what -serve, N × -worker and -submit do across terminals. cachePath is
// the daemon's verdict cache ("" = none); fromRecord, when set, replaces
// the record-once pass with an existing artifact. On ^C the workers tear
// their shard children down and the daemon-held shard checkpoints are
// merged into an INCOMPLETE report.
func runSpawn(spec serve.CampaignSpec, workdir, cachePath, fromRecord, keysOut string, leaseTTL, heartbeat, killGrace time.Duration) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	crashAfter, err := crashAfterLines()
	if err != nil {
		return errorf("%v", err)
	}
	srv, err := newDaemon(ctx, workdir, leaseTTL, killGrace)
	if err != nil {
		return errorf("%v", err)
	}
	if cachePath != "" {
		cache, err := vcache.Open(cachePath)
		if err != nil {
			return errorf("opening verdict cache: %v", err)
		}
		defer cache.Close()
		srv.Cache = cache
	}
	if fromRecord != "" {
		srv.Record = func(string, []string) (string, error) { return fromRecord, nil }
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return errorf("listening on loopback: %v", err)
	}
	url := "http://" + ln.Addr().String()
	ws := make([]*serve.Worker, spec.Shards)
	for i := range ws {
		if ws[i], err = newWorker(url, fmt.Sprintf("spawn-%d", i), heartbeat, killGrace); err != nil {
			ln.Close()
			return errorf("%v", err)
		}
		ws[i].Poll = spawnPoll
		ws[i].ArtifactPath = srv.ArtifactPath
	}
	ws[0].CrashAfterLines = crashAfter
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		httpSrv.Serve(ln)
	}()
	defer func() {
		httpSrv.Close()
		<-served
	}()
	fmt.Fprintf(os.Stderr, "[serve] campaign daemon listening on %s (workdir %s, lease TTL %s)\n",
		url, srv.Workdir, leaseTTL)

	client := &serve.Client{BaseURL: url}
	id, err := client.Submit(spec)
	if err != nil {
		return errorf("submitting campaign: %v", err)
	}
	workers, stopWorkers := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errors.Is(w.Run(workers), serve.ErrWorkerCrashed) {
				fmt.Fprintf(os.Stderr, "xfdetector: worker %s crash hook fired after %d line(s)\n", w.ID, w.CrashAfterLines)
			}
		}()
	}
	code, err := awaitCampaign(ctx, client, id, spawnPoll, keysOut)
	stopWorkers()
	wg.Wait()
	srv.WaitRecords()
	switch {
	case err == nil:
		return code
	case ctx.Err() == nil:
		return errorf("waiting for campaign %s: %v", id, err)
	}
	// ^C: the workers have stopped their shard children at a failure-point
	// boundary (or killed them after -kill-grace) and released the leases.
	paths, err := srv.ShardCheckpoints(id)
	if err != nil {
		return errorf("%v", err)
	}
	return runMerge(paths, false, keysOut)
}
