// Package ckpt is the checkpoint wire format shared by the CLI and the
// distributed campaign service: one JSON object per line, appended as each
// failure point's post-run completes, with a summary line (fp == -1)
// recording the campaign's failure-point total and its per-bucket
// accounting once the campaign completes.
//
// The same JSONL stream serves four roles: the on-disk crash-recovery
// checkpoint (-checkpoint/-resume), the merge input (-merge, and a -spawn
// fleet interrupted by ^C), the wire format a -worker streams back to a
// -serve daemon, and the verdict cache's entries (internal/vcache), which
// are checkpoint lines stamped with their campaign identity. Parsing is
// therefore deliberately forgiving about exactly one thing — a torn
// trailing line, the write a crash interrupted — and strict about
// everything else. Every file in this format is written through one Log,
// which cuts such a tail before it appends, so a torn write is only ever
// the last line of a file.
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/pmemgo/xfdetector/internal/core"
)

// SummaryFP marks the summary line; real failure points are 0-based.
const SummaryFP = -1

// Line is one checkpoint record. Per-point lines (FP >= 0) carry the
// reports first observed at that failure point, and a faulted post-run's
// PostFailureFault always rides on its own line even when an earlier point
// reported the same message: the -serve daemon settles a crash-state
// class from its representative's line, dirty exactly when the line
// carries a fault. The summary line
// (FP == SummaryFP) carries the campaign totals, the pre-failure reports
// (fp < 0, i.e. performance bugs from the trace replay), and the
// per-bucket failure-point accounting that lets a merge reconstruct an
// honest Result instead of fabricating one from the covered-point count.
type Line struct {
	FP      int           `json:"fp"`
	Reports []core.Report `json:"reports,omitempty"`
	// FPrint is the failure point's crash-state fingerprint, set on
	// per-point lines by pruning runs (zero under -no-prune, on members of
	// a dirty class, whose outcomes speak only for themselves, and on
	// legacy checkpoints, all of which still parse). A campaign's verdict
	// cache binding (internal/vcache) caches a clean class from the first
	// line carrying its fingerprint.
	FPrint uint64 `json:"fpr,omitempty"`
	// ID is set only on verdict-cache lines: the identity of the campaign
	// whose line it is. Cache files written before entries were
	// checkpoint lines hold {"id","fpr","reports"} objects, which parse
	// as lines of failure point 0.
	ID uint64 `json:"id,omitempty"`
	// Total and Shards are only set on the summary line: the campaign's
	// failure-point count and the shard layout that wrote it (0 when the
	// campaign was not sharded).
	Total  int `json:"total,omitempty"`
	Shards int `json:"shards,omitempty"`
	// Partition is only set on a sharded run's summary line: how the
	// shards split the campaign (core.PartitionByClass or
	// core.PartitionByFailurePoint). Checkpoints from before class
	// sharding lack it; their shards split by failure point.
	Partition string `json:"partition,omitempty"`
	// ShadowPeakBytes and ShadowPages are only set on the summary line:
	// the run's peak shadow-PM footprint and cumulative 4 KiB shadow page
	// allocations. Older checkpoints without them still parse.
	ShadowPeakBytes uint64 `json:"shadow_peak_bytes,omitempty"`
	ShadowPages     uint64 `json:"shadow_pages,omitempty"`
	// Classes and Pruned are only set on the summary line: how many
	// crash-state classes the run actually post-ran and how many member
	// failure points it skipped as duplicates (both zero under -no-prune).
	// Pruned points still write their per-point line, so coverage proofs
	// are unaffected.
	Classes int `json:"classes,omitempty"`
	Pruned  int `json:"pruned,omitempty"`
	// The remaining disjoint failure-point buckets of the writing run,
	// only set on the summary line: together with Pruned they satisfy
	// PostRuns + Pruned + CacheHits + OtherShard + Resumed + Skipped ==
	// Total, the invariant every run upholds, so a merge can sum real
	// buckets instead of guessing. CacheHits are the failure points
	// attributed from a previous campaign's verdict cache. Abandoned
	// post-runs are a subset of PostRuns (each also reports a
	// PostFailureFault), carried for visibility. Checkpoints from before
	// these fields parse as all-zero buckets, and the cross_shard bucket
	// of checkpoints from before class sharding is ignored; the merger
	// attributes the covered points those leave unaccounted to PostRuns.
	PostRuns   int `json:"post_runs,omitempty"`
	OtherShard int `json:"other_shard,omitempty"`
	Resumed    int `json:"resumed,omitempty"`
	Skipped    int `json:"skipped,omitempty"`
	Abandoned  int `json:"abandoned,omitempty"`
	CacheHits  int `json:"cache_hits,omitempty"`
}

// IsSummary reports whether the line is a campaign-completion summary.
func (l Line) IsSummary() bool { return l.FP <= SummaryFP }

// partition is the partition scheme of a sharded summary line, reading a
// pre-class-sharding line's missing field as the failure-point split it
// used; "" for an unsharded summary.
func (l Line) partition() string {
	switch {
	case l.Shards <= 1:
		return ""
	case l.Partition == "":
		return core.PartitionByFailurePoint
	}
	return l.Partition
}

// Summary builds the completion summary line for a finished run: the
// failure-point total, the shard layout and partition scheme, the bucket
// accounting, and the pre-failure reports (fp < 0) that no per-point line
// carries.
func Summary(res *core.Result, shards int) Line {
	line := Line{
		FP:              SummaryFP,
		Total:           res.FailurePoints,
		Shards:          shards,
		Partition:       res.ShardPartition,
		ShadowPeakBytes: res.ShadowPeakBytes,
		ShadowPages:     res.ShadowPages,
		Classes:         res.CrashStateClasses,
		Pruned:          res.PrunedFailurePoints,
		PostRuns:        res.PostRuns,
		OtherShard:      res.OtherShardFailurePoints,
		Resumed:         res.ResumedFailurePoints,
		Skipped:         res.SkippedFailurePoints,
		Abandoned:       res.AbandonedPostRuns,
		CacheHits:       res.CacheHitFailurePoints,
	}
	for _, rep := range res.Reports {
		if rep.FailurePoint < 0 {
			line.Reports = append(line.Reports, rep)
		}
	}
	return line
}

// ForEachLine reads r line by line with no length cap — bufio.Reader, not
// bufio.Scanner, whose fixed buffer turns one long line into ErrTooLong
// and silently ends the stream — invoking fn for each line without its
// trailing newline. A final unterminated fragment is delivered too. fn
// returning an error stops the scan and returns that error.
//
// The worker forwards shard progress through it (truncating for display
// with Truncate rather than capping the read); checkpoint data is parsed
// by Read and Parse, and the worker's checkpoint stream batches lines
// itself.
func ForEachLine(r io.Reader, fn func(line string) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadString('\n')
		if err == nil {
			if ferr := fn(strings.TrimSuffix(line, "\n")); ferr != nil {
				return ferr
			}
			continue
		}
		if line != "" {
			if ferr := fn(strings.TrimSuffix(line, "\n")); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
		return err
	}
}

// Truncate caps s at max bytes for display, marking the cut instead of
// pretending the line ended there. Streams being forwarded for humans
// (shard progress) truncate; streams being parsed (checkpoint lines)
// never do.
func Truncate(s string, max int) string {
	if max <= 0 || len(s) <= max {
		return s
	}
	return fmt.Sprintf("%s … [%d byte(s) truncated]", s[:max], len(s)-max)
}

// Read parses a (possibly torn) checkpoint stream into its lines. Only a
// trailing line that does not parse — the write the crash interrupted —
// is discarded; a corrupt line with valid lines after it is mid-file
// damage, and silently dropping those valid lines would make a resumed or
// merged campaign under-count completed failure points, so it is an
// error. name labels error messages (a path, a shard, "<stdin>").
func Read(r io.Reader, name string) ([]Line, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines, _, err := Parse(data, name)
	return lines, err
}

// Parse is Read over bytes. It also returns how many leading bytes of data
// hold those lines whole: a Log cuts a file back to them before its first
// append, and the -serve daemon appends exactly them of a streamed chunk.
// The count ends at a newline unless the last line parsed without one.
func Parse(data []byte, name string) ([]Line, int, error) {
	var lines []Line
	keep := 0
	for off, n := 0, 1; off < len(data); n++ {
		end, next := len(data), len(data)
		if i := bytes.IndexByte(data[off:], '\n'); i >= 0 {
			end, next = off+i, off+i+1
		}
		if s := bytes.TrimSpace(data[off:end]); len(s) > 0 {
			var l Line
			if err := json.Unmarshal(s, &l); err != nil {
				if len(bytes.TrimSpace(data[next:])) == 0 {
					break // torn tail from the crash; rerun from here
				}
				return nil, 0, fmt.Errorf("%s:%d: corrupt checkpoint line before intact ones (not a torn tail): %v", name, n, err)
			}
			lines = append(lines, l)
			keep = next
		}
		off = next
	}
	return lines, keep, nil
}

// ReadFile reads the named checkpoint; a missing file is an empty
// checkpoint (nothing recorded yet), not an error.
func ReadFile(path string) ([]Line, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, path)
}

// Data is a folded checkpoint as resume consumes it: the completed
// failure points, every recorded report (per-point and pre-failure
// alike), and the failure-point total from the summary line (-1 when no
// campaign over this checkpoint completed yet).
type Data struct {
	Done  map[int]bool
	Seed  []core.Report
	Total int
}

// Fold collapses checkpoint lines into resume state. Disagreeing summary
// totals within one checkpoint mean two different campaigns wrote it —
// refusing is the only sound answer.
func Fold(lines []Line, name string) (Data, error) {
	d := Data{Done: make(map[int]bool), Total: -1}
	for _, l := range lines {
		if l.IsSummary() {
			if d.Total >= 0 && d.Total != l.Total {
				return Data{Total: -1}, fmt.Errorf("%s: summary lines disagree on the failure-point total (%d vs %d); refusing to mix campaigns", name, d.Total, l.Total)
			}
			d.Total = l.Total
			d.Seed = append(d.Seed, l.Reports...)
			continue
		}
		d.Done[l.FP] = true
		d.Seed = append(d.Seed, l.Reports...)
	}
	return d, nil
}

// SortedKeys returns the sorted deduplication keys of the reports — the
// stable fingerprint of a report set the equivalence tests and CI smoke
// steps diff between runs.
func SortedKeys(reports []core.Report) []string {
	keys := make([]string, len(reports))
	for i, r := range reports {
		keys[i] = r.DedupKey()
	}
	sort.Strings(keys)
	return keys
}

// KeysFileText renders sorted keys as the -keys-out file body. An empty
// set is an empty file: a lone newline would be byte-identical to a set
// holding one empty key.
func KeysFileText(keys []string) string {
	if len(keys) == 0 {
		return ""
	}
	return strings.Join(keys, "\n") + "\n"
}
