package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"github.com/pmemgo/xfdetector/internal/ckpt"
)

// ShardArgsEnv carries a shard child's argument vector, JSON-encoded, to
// the child process. The child's real argv carries the same flags (so ps
// and pkill can see them), but the environment copy is authoritative:
// when the supervisor is a re-exec'd test binary, argv must not reach the
// testing package's flag parser. The worker loop and the daemon's
// record-once launcher share this convention.
const ShardArgsEnv = "XFDETECTOR_SHARD_ARGS"

// ErrWorkerCrashed is returned by Worker.Run when the deterministic crash
// hook fired: the worker killed its shard child and vanished without
// finishing or releasing the lease, exactly like a machine going down.
// The daemon finds out by heartbeat expiry.
var ErrWorkerCrashed = errors.New("worker crash hook fired")

// forwardLineCap bounds how much of one shard output line a supervisor
// forwards for display; parsing paths never truncate.
const forwardLineCap = 16 << 10

// Worker runs shard leases against a daemon: poll for a lease, exec the
// shard child it names, stream the child's checkpoint stdout back (each
// send renews the heartbeat; a ticker covers line-less stretches inside
// long post-runs), and resolve the lease with the child's exit code. On
// teardown — shutdown, or the daemon declaring the lease gone — the child
// gets SIGTERM and, after Grace, SIGKILL.
type Worker struct {
	Client *Client
	// ID names this worker in leases and logs.
	ID string
	// Exe is the xfdetector binary to exec for shard children; ExtraEnv
	// is appended to its environment.
	Exe      string
	ExtraEnv []string
	// Caps are the capability tags advertised on every lease poll (e.g.
	// CapFileBacked); the daemon only grants shards whose campaigns this
	// worker can actually run.
	Caps []string
	// Poll is the idle lease-poll interval, HeartbeatEvery the keepalive
	// period while a child runs, Grace the SIGTERM→SIGKILL escalation.
	Poll           time.Duration
	HeartbeatEvery time.Duration
	Grace          time.Duration
	// Output receives forwarded shard progress lines (default stderr).
	Output io.Writer
	// CrashAfterLines, when > 0, is the deterministic crash hook for the
	// lease-expiry tests and CI smoke: after streaming that many
	// checkpoint lines the worker SIGKILLs its child and returns
	// ErrWorkerCrashed without telling the daemon anything.
	CrashAfterLines int
	// ArtifactPath, when set, resolves a lease's recorded artifact to a
	// file the shard child can read in place — the in-process workers of
	// -spawn share the daemon's filesystem — instead of downloading a
	// copy over the lease for every shard.
	ArtifactPath func(lease string) (string, error)

	crashed bool
	sent    int
}

func (w *Worker) out() io.Writer {
	if w.Output != nil {
		return w.Output
	}
	return os.Stderr
}

func (w *Worker) logf(format string, args ...any) {
	fmt.Fprintf(w.out(), "[worker %s] "+format+"\n", append([]any{w.ID}, args...)...)
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 2 * time.Second
}

// Run processes leases until the context is cancelled (returning
// ctx.Err()) or the crash hook fires (ErrWorkerCrashed). A daemon that is
// briefly unreachable is retried at the poll interval — workers outlive
// daemon restarts.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, err := w.Client.Acquire(w.ID, w.Caps...)
		if err != nil {
			w.logf("lease poll failed (will retry): %v", err)
			grant = nil
		}
		if grant == nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.poll()):
			}
			continue
		}
		if err := w.runLease(ctx, grant); err != nil {
			if errors.Is(err, ErrWorkerCrashed) {
				return err
			}
			w.logf("lease %s: %v", grant.Lease, err)
		}
	}
}

// runLease executes one shard child to an outcome and resolves the lease.
func (w *Worker) runLease(ctx context.Context, grant *LeaseGrant) error {
	w.logf("lease %s: campaign %s shard %d/%d%s", grant.Lease, grant.Campaign,
		grant.Shard, grant.Shards, map[bool]string{true: " (-resume)", false: ""}[grant.Resume])

	// Fast-forward: fetch the campaign's recorded pre-failure artifact and
	// hand it to the child with -from-record. Any fetch failure downgrades
	// to a live pre-failure stage — slower, never unsound.
	if grant.Artifact {
		var path string
		var err error
		if w.ArtifactPath != nil {
			path, err = w.ArtifactPath(grant.Lease)
		} else if path, err = w.fetchArtifact(grant.Lease); err == nil {
			defer os.Remove(path)
		}
		if err != nil {
			w.logf("lease %s: artifact fetch failed (%v); running the pre-failure stage live", grant.Lease, err)
		} else {
			grant.Args = append(grant.Args, "-from-record", path)
			w.logf("lease %s: fetched recorded artifact; shard fast-forwards with -from-record", grant.Lease)
		}
	}

	encoded, err := json.Marshal(grant.Args)
	if err != nil {
		return err
	}
	cmd := exec.Command(w.Exe, grant.Args...)
	// The lease rides along so the child's runner can claim crash-state
	// classes against the daemon's per-campaign registry.
	cmd.Env = append(append(os.Environ(), w.ExtraEnv...),
		ShardArgsEnv+"="+string(encoded),
		VerdictURLEnv+"="+w.Client.BaseURL,
		VerdictLeaseEnv+"="+grant.Lease)
	// The daemon-held checkpoint rides in on stdin: with -checkpoint -
	// and -resume the child seeds its completed-failure-point set from
	// it and picks up where the previous incarnation died.
	cmd.Stdin = strings.NewReader(grant.Checkpoint)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}

	// waitDone closes once the child has been waited on; teardown closes
	// leaseLost at most once to trigger the SIGTERM→SIGKILL escalation.
	waitDone := make(chan struct{})
	leaseLost := make(chan struct{})
	var loseOnce sync.Once
	loseLease := func() { loseOnce.Do(func() { close(leaseLost) }) }
	go func() {
		select {
		case <-ctx.Done():
		case <-leaseLost:
		case <-waitDone:
			return
		}
		TerminateThenKill(cmd.Process, waitDone, w.Grace)
	}()

	// Keepalive: a post-run can run far longer than the lease TTL without
	// emitting a checkpoint line.
	hbEvery := w.HeartbeatEvery
	if hbEvery <= 0 {
		hbEvery = 5 * time.Second
	}
	hbStop := make(chan struct{})
	go func() {
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				if err := w.Client.Heartbeat(grant.Lease); errors.Is(err, ErrLeaseGone) {
					w.logf("lease %s: daemon expired it; tearing down shard child", grant.Lease)
					loseLease()
					return
				}
			}
		}
	}()

	w.sent = 0
	var fwd sync.WaitGroup
	fwd.Add(1)
	go func() {
		defer fwd.Done()
		ckpt.ForEachLine(stderr, func(line string) error {
			fmt.Fprintf(w.out(), "[worker %s shard %d] %s\n", w.ID, grant.Shard, ckpt.Truncate(line, forwardLineCap))
			return nil
		})
	}()

	// The checkpoint stream: every stdout line is one durable JSONL
	// record, forwarded verbatim (never truncated — it is the wire
	// format, not display output). The daemon fsyncs each POST under its
	// scheduler lock, so one POST carries every line already read; the
	// crash hook caps a chunk so it still fires after exactly its count.
	lines := bufio.NewReaderSize(stdout, 64<<10)
	for {
		limit := 0
		if w.CrashAfterLines > 0 {
			limit = w.CrashAfterLines - w.sent
		}
		chunk, n, err := readChunk(lines, limit)
		if n > 0 {
			if err := w.Client.SendLines(grant.Lease, chunk); errors.Is(err, ErrLeaseGone) {
				w.logf("lease %s: daemon rejected lines; tearing down shard child", grant.Lease)
				loseLease()
				break
			} else if err != nil {
				w.logf("lease %s: streaming lines failed: %v", grant.Lease, err)
			}
			w.sent += n
			if w.CrashAfterLines > 0 && w.sent >= w.CrashAfterLines {
				w.crashed = true
				cmd.Process.Kill()
				break
			}
		}
		if err != nil {
			if err != io.EOF {
				w.logf("lease %s: checkpoint stream error: %v", grant.Lease, err)
			}
			break
		}
	}
	// Drain whatever the child still writes after we stopped streaming so
	// its pipe cannot block; then reap it.
	io.Copy(io.Discard, stdout)
	fwd.Wait()
	waitErr := cmd.Wait()
	close(waitDone)
	close(hbStop)

	code := 0
	if waitErr != nil {
		code = -1
		var ee *exec.ExitError
		if errors.As(waitErr, &ee) {
			code = ee.ExitCode()
		}
	}

	switch {
	case w.crashed:
		// Crash hook: vanish. No finish, no release — the lease dies by
		// heartbeat expiry, exactly like a machine loss.
		return ErrWorkerCrashed
	case leaseClosed(leaseLost) && ctx.Err() == nil:
		// The daemon already expired the lease; nothing to resolve.
		return nil
	case ctx.Err() != nil:
		// Shutdown teardown: release so the daemon reschedules without
		// waiting out the TTL. Best effort — the lease would expire
		// anyway.
		w.Client.Finish(grant.Lease, code, true)
		return ctx.Err()
	default:
		w.logf("lease %s: shard %d exited %d", grant.Lease, grant.Shard, code)
		return w.Client.Finish(grant.Lease, code, false)
	}
}

// readChunk blocks for one checkpoint line, then takes every further
// complete line already buffered in r — it never waits for more — up to
// limit lines (limit <= 0: no cap). Blank lines are skipped and a final
// unterminated line is newline-terminated. It returns the chunk, its line
// count, and the read error (io.EOF at the end of the stream), which may
// come with a final chunk.
func readChunk(r *bufio.Reader, limit int) ([]byte, int, error) {
	var chunk []byte
	n := 0
	for limit <= 0 || n < limit {
		if n > 0 {
			if buffered, _ := r.Peek(r.Buffered()); bytes.IndexByte(buffered, '\n') < 0 {
				break
			}
		}
		line, err := r.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			chunk = append(append(chunk, bytes.TrimSuffix(line, []byte("\n"))...), '\n')
			n++
		}
		if err != nil {
			return chunk, n, err
		}
	}
	return chunk, n, nil
}

// fetchArtifact downloads the lease's campaign artifact into a temp file
// and returns its path; the caller removes it after the shard child exits.
func (w *Worker) fetchArtifact(leaseID string) (string, error) {
	f, err := os.CreateTemp("", "xfdetector-*.xfdr")
	if err != nil {
		return "", err
	}
	if err := w.Client.FetchArtifact(leaseID, f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

func leaseClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
