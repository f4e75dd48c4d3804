package main

import (
	"errors"
	"fmt"
	"os"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/vcache"
)

// Checkpoint file: one JSON object per line (internal/ckpt), appended and
// fsynced through a ckpt.Log as each failure point's post-run completes,
// so a killed campaign loses at most the line being written, and -resume
// cuts that torn line before it appends. A resumed run seeds every
// recorded report and skips the recorded failure points; because the
// pre-failure execution is deterministic, the union converges to the
// uninterrupted run's report set.
//
// "-checkpoint -" streams the lines to stdout instead of a file (the
// report moves to stderr so stdout stays pure JSONL) — the shard mode a
// -worker runs, forwarding each line to the -serve daemon, which holds the
// durable copy. With -resume, the prior checkpoint is read from stdin.

// stdioCheckpoint is the -checkpoint operand selecting stdout/stdin
// streaming instead of a file.
const stdioCheckpoint = "-"

// openCheckpoint opens the checkpoint log and returns the lines it already
// holds; no path opens none (a nil log). Without -resume an existing
// checkpoint is refused rather than silently mixed with a new campaign.
// The stdioCheckpoint operand streams to stdout and, when resuming, reads
// the prior lines from stdin — the worker pipes the daemon-held checkpoint
// into the shard.
func openCheckpoint(path string, resuming bool) (*ckpt.Log, []ckpt.Line, error) {
	switch path {
	case "":
		return nil, nil, nil
	case stdioCheckpoint:
		var lines []ckpt.Line
		if resuming {
			var err error
			if lines, err = ckpt.Read(os.Stdin, "<stdin>"); err != nil {
				return nil, nil, err
			}
		}
		return ckpt.StreamLog(os.Stdout), lines, nil
	}
	log, lines, err := ckpt.OpenLog(path, !resuming)
	if errors.Is(err, os.ErrExist) {
		return nil, nil, fmt.Errorf("%s exists; pass -resume to continue it or remove it to start over", path)
	}
	return log, lines, err
}

// recordLine is the completion callback's body: the failure point's line
// is appended to the checkpoint (log, when checkpointing), then admitted
// to the campaign's verdict cache (verdicts, when caching), so a class is
// cached only after its representative's line was written. The
// crash-state fingerprint rides along on every per-point line. Write
// failures are reported and the campaign goes on.
func recordLine(log *ckpt.Log, verdicts *vcache.Binding, l ckpt.Line) {
	if log != nil {
		if err := log.Append(l); err != nil {
			fmt.Fprintf(os.Stderr, "xfdetector: checkpoint write failed: %v\n", err)
		}
	}
	if verdicts != nil {
		if err := verdicts.Add(l); err != nil {
			fmt.Fprintf(os.Stderr, "xfdetector: %v\n", err)
		}
	}
}

// writeKeys dumps the sorted deduplication keys, one per line — a stable
// fingerprint of the report set for comparing runs (the kill-and-resume
// test and the CI smoke steps diff these files). An empty report set
// writes an empty file.
func writeKeys(path string, reports []core.Report) error {
	return os.WriteFile(path, []byte(ckpt.KeysFileText(ckpt.SortedKeys(reports))), 0o644)
}
