package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
)

// Checkpoint file: one JSON object per line (internal/ckpt), appended and
// fsynced as each failure point's post-run completes, so a killed campaign
// loses at most the line being written. A resumed run seeds every recorded
// report and skips the recorded failure points; because the pre-failure
// execution is deterministic, the union converges to the uninterrupted
// run's report set.
//
// "-checkpoint -" streams the lines to stdout instead of a file (the
// report moves to stderr so stdout stays pure JSONL) — the shard mode a
// -worker runs, forwarding each line to the -serve daemon, which holds the
// durable copy. With -resume, the prior checkpoint is read from stdin.

// stdioCheckpoint is the -checkpoint operand selecting stdout/stdin
// streaming instead of a file.
const stdioCheckpoint = "-"

// summaryFP marks the summary line; real failure points are 0-based.
const summaryFP = ckpt.SummaryFP

// loadCheckpoint reads a (possibly truncated) checkpoint into resume
// state. Only a torn trailing line is tolerated; mid-file corruption is a
// load error (see ckpt.Read). For stdioCheckpoint the lines come from
// stdin — the worker pipes the daemon-held checkpoint into the shard.
func loadCheckpoint(path string) (ckpt.Data, error) {
	var (
		lines []ckpt.Line
		err   error
	)
	if path == stdioCheckpoint {
		lines, err = ckpt.Read(os.Stdin, "<stdin>")
	} else {
		lines, err = ckpt.ReadFile(path)
	}
	if err != nil {
		return ckpt.Data{Total: -1}, err
	}
	return ckpt.Fold(lines, path)
}

// checkpointWriter appends one line per completed failure point. File
// lines are fsynced individually: a checkpoint exists to survive kill -9,
// so the write must be durable before the campaign moves on. The stdout
// variant skips the sync — durability is the daemon's job — and never
// closes the stream it does not own.
type checkpointWriter struct {
	mu   sync.Mutex
	f    *os.File
	sync bool
	owns bool
}

// openCheckpoint opens the checkpoint for appending. Without -resume an
// existing checkpoint is refused rather than silently mixed with a new
// campaign. The stdioCheckpoint operand returns the stdout streamer.
func openCheckpoint(path string, resuming bool) (*checkpointWriter, error) {
	if path == stdioCheckpoint {
		return &checkpointWriter{f: os.Stdout}, nil
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resuming {
		flags |= os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if os.IsExist(err) {
		return nil, fmt.Errorf("%s exists; pass -resume to continue it or remove it to start over", path)
	}
	if err != nil {
		return nil, err
	}
	return &checkpointWriter{f: f, sync: true, owns: true}, nil
}

// record is installed as core.Config.OnPostRunComplete. The detector
// serializes these calls, but the lock keeps the writer safe regardless.
// The crash-state fingerprint rides along on every per-point line so the
// -serve daemon can cache a clean class from its representative's line.
func (w *checkpointWriter) record(fp int, fpr uint64, fresh []core.Report) {
	w.append(ckpt.Line{FP: fp, FPrint: fpr, Reports: fresh})
}

// recordSummary appends the completion summary: the campaign's total
// failure-point count, the shard layout, the per-bucket accounting, and
// the pre-failure reports (fp < 0, i.e. performance bugs from the trace
// replay) that the per-point lines do not carry. Written only when the
// run was not Incomplete.
func (w *checkpointWriter) recordSummary(res *core.Result, shards int) {
	w.append(ckpt.Summary(res, shards))
}

func (w *checkpointWriter) append(l ckpt.Line) {
	line, err := json.Marshal(l)
	if err != nil {
		return // Report is always marshalable; defensive only
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(append(line, '\n')); err != nil {
		fmt.Fprintf(os.Stderr, "xfdetector: checkpoint write failed: %v\n", err)
		return
	}
	if !w.sync {
		return
	}
	if err := w.f.Sync(); err != nil {
		fmt.Fprintf(os.Stderr, "xfdetector: checkpoint sync failed: %v\n", err)
	}
}

func (w *checkpointWriter) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.owns {
		w.f.Close()
	}
}

// writeKeys dumps the sorted deduplication keys, one per line — a stable
// fingerprint of the report set for comparing runs (the kill-and-resume
// test and the CI smoke steps diff these files). An empty report set
// writes an empty file.
func writeKeys(path string, reports []core.Report) error {
	return os.WriteFile(path, []byte(ckpt.KeysFileText(ckpt.SortedKeys(reports))), 0o644)
}
