package serve

import (
	"os"
	"syscall"
	"time"
)

// TerminateThenKill asks a shard process to stop at its next failure-point
// boundary (SIGTERM, which the CLI turns into a context cancellation with
// a resumable checkpoint) and escalates to SIGKILL if the process has not
// exited within grace — a shard wedged inside a post-run the deadline did
// not catch would otherwise hang its supervisor forever. done must be
// closed when the process has been waited on; a nil process is a no-op.
//
// The worker loop uses it when tearing down a lease (shutdown, or the
// daemon declaring the lease expired), and the CLI's record-once launcher
// on daemon shutdown.
func TerminateThenKill(p *os.Process, done <-chan struct{}, grace time.Duration) {
	if p == nil {
		return
	}
	p.Signal(syscall.SIGTERM)
	if grace <= 0 {
		grace = DefaultKillGrace
	}
	t := time.NewTimer(grace)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
		p.Kill()
	}
}

// DefaultKillGrace is how long a supervisor waits between SIGTERM and
// SIGKILL when no -kill-grace was configured.
const DefaultKillGrace = 30 * time.Second
