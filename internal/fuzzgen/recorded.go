package fuzzgen

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/record"
)

// Differential configurations for the recorded-campaign artifact (the
// -record / -from-record path). Replaying the pre-failure stage from an
// artifact may only change *how* the frontend trace reaches the backend,
// never what the campaign reports: the key set, the failure-point
// accounting, and the exact bytes every surviving post-run observes must
// all match the live execution.

// recordProgram runs p's recording pass and decodes the artifact.
func recordProgram(p Program) (*record.Artifact, error) {
	id, err := programIdentity(p)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	cfg := core.Config{PoolSize: p.PoolSize}
	cfg.Record = record.NewWriter(&buf, id, p.PoolSize, 0)
	res, err := core.Run(cfg, BuildTarget(p))
	if err != nil {
		return nil, fmt.Errorf("fuzzgen: %q: recording: %w", p.Name, err)
	}
	if res.PostRuns != 0 {
		return nil, fmt.Errorf("fuzzgen: %q: recording ran %d post-failure executions; the record pass is pre-failure only",
			p.Name, res.PostRuns)
	}
	a, err := record.Read(&buf)
	if err != nil {
		return nil, fmt.Errorf("fuzzgen: %q: decoding artifact: %w", p.Name, err)
	}
	if a.Identity != id {
		return nil, fmt.Errorf("fuzzgen: %q: artifact identity %016x, want %016x", p.Name, a.Identity, id)
	}
	return a, nil
}

// checkRecorded records p once and holds every replayed configuration to
// the oracle: a sequential replay must match the live pruned run key for
// key and bucket for bucket (byte-identical post-read digests included), a
// three-shard replay fleet must union to the oracle's key set with exact
// per-shard accounting, and a deep resume (every failure point but the
// last completed) must report exactly what the live run of the same resume
// reports.
func checkRecorded(p Program, want *OracleResult, base *core.Result) error {
	a, err := recordProgram(p)
	if err != nil {
		return err
	}
	if err := compare(p, "recorded", "failure-points", want.FailurePoints, len(a.FPs)); err != nil {
		return err
	}

	// Sequential replay vs the live pruned run (base).
	log := &PostReadLog{}
	res, err := core.Run(core.Config{PoolSize: p.PoolSize, Replay: a}, BuildTargetRecording(p, log))
	if err != nil {
		return replayMismatch(p, "recorded", fmt.Errorf("fuzzgen: %q: replay: %w", p.Name, err))
	}
	if err := compare(p, "recorded",
		"keys", strings.Join(want.Keys, " ; "), joinKeys(res),
		"post-runs", base.PostRuns, res.PostRuns,
		"pruned-failure-points", base.PrunedFailurePoints, res.PrunedFailurePoints,
		"bucket-accounting", res.FailurePoints, res.BucketedFailurePoints()); err != nil {
		return err
	}
	if err := checkDigestsPredicted(p, "recorded", want, log); err != nil {
		return err
	}

	// Three-shard replay fleet: every shard replays the same artifact; the
	// union must still be the oracle's key set.
	shardLog := &PostReadLog{}
	results := make([]*core.Result, 0, verdictShards)
	for idx := 0; idx < verdictShards; idx++ {
		res, err := core.Run(core.Config{
			PoolSize:   p.PoolSize,
			ShardCount: verdictShards,
			ShardIndex: idx,
			Replay:     a,
		}, BuildTargetRecording(p, shardLog))
		if err != nil {
			return replayMismatch(p, "recorded-shards", fmt.Errorf("fuzzgen: %q: replay shard %d: %w", p.Name, idx, err))
		}
		if err := compare(p, "recorded-shards", fmt.Sprintf("shard%d-bucket-accounting", idx),
			res.FailurePoints, res.BucketedFailurePoints()); err != nil {
			return err
		}
		results = append(results, res)
	}
	if err := compare(p, "recorded-shards", "keys", strings.Join(want.Keys, " ; "), unionKeys(results...)); err != nil {
		return err
	}
	if err := checkDigestsPredicted(p, "recorded-shards", want, shardLog); err != nil {
		return err
	}

	// Deep resume: everything but the last failure point completed. The
	// live run of the same resume is the reference.
	total := len(a.FPs)
	if total < 2 {
		return nil
	}
	completed := make(map[int]bool, total-1)
	for fp := 0; fp < total-1; fp++ {
		completed[fp] = true
	}
	resume := func(replay *record.Artifact) (*core.Result, error) {
		return core.Run(core.Config{
			PoolSize:               p.PoolSize,
			Replay:                 replay,
			CompletedFailurePoints: completed,
		}, BuildTarget(p))
	}
	live, err := resume(nil)
	if err != nil {
		return fmt.Errorf("fuzzgen: %q: live resume: %w", p.Name, err)
	}
	replayed, err := resume(a)
	if err != nil {
		return replayMismatch(p, "recorded-resume", fmt.Errorf("fuzzgen: %q: resume replay: %w", p.Name, err))
	}
	return compare(p, "recorded-resume",
		"keys", joinKeys(live), joinKeys(replayed),
		"post-runs", live.PostRuns, replayed.PostRuns,
		"resumed-failure-points", live.ResumedFailurePoints, replayed.ResumedFailurePoints,
		"bucket-accounting", replayed.FailurePoints, replayed.BucketedFailurePoints())
}

// replayMismatch reports a replay that the fingerprint tripwire stopped as
// a differential mismatch: the replayed shadow fingerprinted a crash state
// differently from the recording pass, which only an engine inconsistency
// can cause (a fingerprint the line cache got wrong).
// Every other error passes through unchanged.
func replayMismatch(p Program, config string, err error) error {
	if errors.Is(err, core.ErrFingerprintMismatch) {
		return &Mismatch{Program: p, Config: config, Field: "replay-fingerprint",
			Want: "the recorded crash-state fingerprints", Got: err.Error()}
	}
	return err
}
