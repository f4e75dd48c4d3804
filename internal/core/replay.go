package core

// Recorded-campaign support: the recording hook that captures one
// pre-failure pass into a record.Writer, and the replay path that runs the
// frontend from a record.Artifact instead of executing the target's
// pre-failure stage (Config.Record / Config.Replay).
//
// Replay preserves live semantics exactly: every replay applies the
// recorded trace from its head, feeding each entry to the same
// recordLocked path the tracing sink uses, and recorded failure-point
// markers run the same dispatchFP body live injection runs (resume,
// pruning, class ownership, verdict reuse). Cancellation behaves like a
// live run's — remaining markers are still numbered, owned ones counted as
// skipped, and the rest of the trace still applies. What replay drops is
// everything that made the pre-failure pass expensive: target code,
// source-location capture, and pool instrumentation.

import (
	"context"
	"errors"
	"fmt"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/record"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// recordFailurePoint hands one injected failure point to the artifact
// writer: the crash-state fingerprint and the pool pages dirtied since the
// previous point. Callers hold sinkMu; the recording pass is sequential
// (Post is nil), so the pool delta and the shadow state are exactly the
// failure point's.
func (r *runner) recordFailurePoint(fpID int) {
	if r.recordErr != nil {
		return
	}
	delta := r.pool.TakeDelta()
	if err := r.cfg.Record.OnFailurePoint(fpID, r.sh.CrashFingerprint(), delta); err != nil {
		r.recordErr = err
	}
}

// finishRecording finalizes the artifact after a clean recording pass. A
// cancelled or degraded pass fails instead: a short artifact would
// silently shrink every future campaign.
func (r *runner) finishRecording() error {
	if r.recordErr != nil {
		return fmt.Errorf("core: recording: %w", r.recordErr)
	}
	if r.ctx.Err() != nil {
		return fmt.Errorf("core: recording cancelled (%v); refusing to finalize it", context.Cause(r.ctx))
	}
	if r.incomplete {
		return fmt.Errorf("core: recording degraded (%s); refusing to finalize a partial artifact", r.incompleteWhy)
	}
	if err := r.cfg.Record.Finish(r.target.Name, r.keptTrace); err != nil {
		return fmt.Errorf("core: recording: %w", err)
	}
	return nil
}

// replayRecorded drives the whole frontend from the recorded artifact,
// from the trace head.
func (r *runner) replayRecorded() error {
	a := r.cfg.Replay
	tr := a.Trace
	nextFP := 0
	for i := 0; i < tr.Len(); i++ {
		e := tr.At(i)
		r.sinkMu.Lock()
		var err error
		if e.Kind == trace.FailurePoint && e.Stage == trace.PreFailure {
			err = r.replayFailurePoint(a, nextFP)
			nextFP++
		} else {
			r.recordLocked(e)
		}
		r.sinkMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// replayFailurePoint handles one recorded failure-point marker: it brings
// the pool image up to the failure point with the recorded page delta,
// then mirrors live injection — the counting, the marker, and dispatchFP
// with its cancellation boundary — with one addition: before dispatching,
// the replayed shadow's crash-state fingerprint must match the recorded
// one.
// Callers hold sinkMu.
func (r *runner) replayFailurePoint(a *record.Artifact, fpIdx int) error {
	if fpIdx >= len(a.FPs) {
		return fmt.Errorf("core: recorded trace has more failure-point markers than the artifact's %d records", len(a.FPs))
	}
	fp := a.FPs[fpIdx]
	for _, d := range fp.Delta {
		r.pool.Poke(uint64(d.Index)*pmem.PageSize, d.Data)
	}
	fpID := r.failurePoints
	r.failurePoints++
	r.opsSinceFP = 0
	r.recordLocked(trace.Entry{Kind: trace.FailurePoint, Stage: trace.PreFailure})
	if err := r.verifyReplayFingerprint(fpID, fp.Fingerprint); err != nil {
		return err
	}
	r.dispatchFP(fpID)
	return nil
}

// ErrFingerprintMismatch is wrapped by the error of a replay whose shadow
// fingerprinted a failure point differently from the recording pass
// (verifyReplayFingerprint).
var ErrFingerprintMismatch = errors.New("crash-state fingerprint mismatch")

// verifyReplayFingerprint is the replay's integrity tripwire: at every
// failure point this campaign fingerprints — under pruning, every point it
// has not resumed, owned or not, because the fingerprint decides
// ownership — the fingerprint the replayed shadow produces must equal the
// one the recording pass produced. A corrupt trace or fingerprint record,
// or a shadow that replays the trace differently from the build that
// recorded it, cannot reproduce the recorded fingerprints, so it fails the
// run here instead of silently mis-classifying crash states or handing a
// class to the wrong shard.
func (r *runner) verifyReplayFingerprint(fpID int, want uint64) error {
	if !r.pruning() || r.target.Post == nil || r.cfg.CompletedFailurePoints[fpID] {
		return nil
	}
	if got := r.sh.CrashFingerprint(); got != want {
		return fmt.Errorf("core: %w at failure point %d (recorded %016x, replayed %016x): the replay diverged from the recording", ErrFingerprintMismatch, fpID, want, got)
	}
	return nil
}
