package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
)

// Regression tests for the checkpoint loader/writer bugs that sharding
// exposed: a fixed line cap, silent truncation on mid-file corruption, and
// an empty report set rendering as a lone newline.

// resumeState loads a checkpoint the way -resume does: opened through its
// log (which cuts a torn tail), then folded into resume state.
func resumeState(path string) (ckpt.Data, error) {
	log, lines, err := openCheckpoint(path, true)
	if err != nil {
		return ckpt.Data{Total: -1}, err
	}
	log.Close()
	return ckpt.Fold(lines, path)
}

// ckptLine is failure point fp's per-point line.
func ckptLine(fp int, reports ...core.Report) ckpt.Line {
	return ckpt.Line{FP: fp, Reports: reports}
}

// mustAppend appends lines to a checkpoint log.
func mustAppend(t *testing.T, log *ckpt.Log, lines ...ckpt.Line) {
	t.Helper()
	for _, l := range lines {
		if err := log.Append(l); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadCheckpointHugeLine: a failure point that contributed a large
// report set writes a line far past bufio.Scanner's old 1 MiB cap; resume
// must still read the intact file instead of failing with ErrTooLong.
func TestLoadCheckpointHugeLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	w, _, err := openCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	big := core.Report{Class: core.PostFailureFault, FailurePoint: 1,
		Message: strings.Repeat("stack frame / ", 1<<17)} // ~1.8 MiB marshaled
	mustAppend(t, w, ckptLine(0), ckptLine(1, big), ckptLine(2))
	w.Close()

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 1<<20 {
		t.Fatalf("checkpoint only %d bytes; too small to exercise the old 1 MiB cap", fi.Size())
	}
	cp, err := resumeState(path)
	if err != nil {
		t.Fatalf("loading a >1MiB-line checkpoint: %v", err)
	}
	if len(cp.Done) != 3 || !cp.Done[0] || !cp.Done[1] || !cp.Done[2] {
		t.Errorf("done = %v, want fps 0..2", cp.Done)
	}
	if len(cp.Seed) != 1 || cp.Seed[0].Message != big.Message {
		t.Errorf("the large report did not survive the round trip (%d seeds)", len(cp.Seed))
	}
}

// TestLoadCheckpointMidFileCorruption: a corrupt line with valid lines
// after it is not the torn-write case — silently dropping the valid tail
// would let a merge under-count completed failure points, so it must be a
// load error.
func TestLoadCheckpointMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if err := os.WriteFile(path, []byte(`{"fp":0}
{"fp":1,"repor@@@ damaged
{"fp":2}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := resumeState(path); err == nil {
		t.Fatal("mid-file corruption loaded without error, discarding valid lines")
	} else if !strings.Contains(err.Error(), ":2:") {
		t.Errorf("error %q does not locate the corrupt line", err)
	}
}

// TestLoadCheckpointSummary: the completion summary line carries the
// failure-point total and the pre-failure (fp < 0) reports; repeated
// agreeing summaries are fine, disagreeing ones are a mixed campaign.
func TestLoadCheckpointSummary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.jsonl")
	w, _, err := openCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, ckptLine(0, core.Report{Class: core.CrossFailureRace, ReaderIP: "r.go:1", WriterIP: "w.go:2", FailurePoint: 0}))
	res := &core.Result{
		FailurePoints: 7,
		Reports: []core.Report{
			{Class: core.CrossFailureRace, ReaderIP: "r.go:1", WriterIP: "w.go:2", FailurePoint: 0},
			{Class: core.Performance, ReaderIP: "p.go:3", FailurePoint: -1},
		},
	}
	mustAppend(t, w, ckpt.Summary(res, 3))
	mustAppend(t, w, ckpt.Summary(res, 3)) // a resumed completion appends an identical summary
	w.Close()

	cp, err := resumeState(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Total != 7 {
		t.Errorf("total = %d, want 7", cp.Total)
	}
	if len(cp.Done) != 1 || !cp.Done[0] {
		t.Errorf("done = %v, want fp 0 only (summary lines are not failure points)", cp.Done)
	}
	perf := 0
	for _, rep := range cp.Seed {
		if rep.FailurePoint < 0 {
			perf++
		}
	}
	if perf != 2 { // one per summary line; deduplication happens downstream
		t.Errorf("pre-failure seeds = %d, want 2", perf)
	}

	disagree := filepath.Join(dir, "mixed.jsonl")
	if err := os.WriteFile(disagree, []byte(`{"fp":-1,"total":7}
{"fp":-1,"total":9}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := resumeState(disagree); err == nil {
		t.Error("disagreeing summary totals loaded without error")
	}
}

// TestMergeZeroTotalWithCheckpointedPoints: a summary claiming a
// failure-point total of 0 merged with per-point lines used to read as full
// coverage — missingBelow(done, 0) is 0 — and the union exited 0/1. The
// checkpoints disagree about the campaign, so the merge must come out
// Incomplete (exit 3), for the degenerate zero total and for any summary
// total below a checkpointed failure point.
func TestMergeZeroTotalWithCheckpointedPoints(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// The zero-total summary marshals without its omitempty total field,
	// exactly as ckpt.Summary renders it for an empty campaign.
	zero := write("zero.jsonl", `{"fp":0}
{"fp":1}
{"fp":-1}
`)
	res, err := mergeCheckpoints([]string{zero}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Fatalf("zero-total summary with 2 checkpointed failure points merged as complete:\n%s", res)
	}
	if res.FailurePoints != 0 || res.PostRuns != 2 {
		t.Errorf("merged totals = %d failure points, %d post-runs; want 0 and 2",
			res.FailurePoints, res.PostRuns)
	}

	// Same disagreement with a nonzero total: fp 5 recorded, summary says 3.
	low := write("low.jsonl", `{"fp":5}
{"fp":-1,"total":3}
`)
	res, err = mergeCheckpoints([]string{low}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Fatalf("checkpointed fp 5 beyond summary total 3 merged as complete:\n%s", res)
	}

	// A consistent empty campaign — summary total 0, no per-point lines —
	// still merges complete.
	empty := write("empty.jsonl", `{"fp":-1}
`)
	res, err = mergeCheckpoints([]string{empty}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete {
		t.Errorf("genuinely empty campaign merged as incomplete: %s", res.IncompleteReason)
	}
}

// TestMergedBucketAccounting is the regression test for the fabricated
// merge accounting: mergeCheckpoints used to set PostRuns to the
// covered-point count, so a pruned campaign's merge claimed post-runs
// that never executed. The merged result must instead sum the per-shard
// summary buckets and uphold the same disjoint-bucket invariant every
// single-process run does.
func TestMergedBucketAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs full detection campaigns")
	}
	// The repetitive-update shape makes pruning bite: most failure points
	// collapse into a few crash-state classes, so covered != post-ran.
	const base = "-workload btree -init 2 -test 1 -updates 2 -update-rounds 20 -patch btree-skip-add-leaf"
	const shards = 3
	dir := t.TempDir()
	paths := make([]string, shards)
	wantPostRuns, wantPruned := 0, 0
	for i := 0; i < shards; i++ {
		paths[i] = filepath.Join(dir, fmt.Sprintf("s%d.ckpt", i))
		code, out := runCLI(t, fmt.Sprintf("%s -shards %d -shard-index %d -checkpoint %s", base, shards, i, paths[i]))
		if code != 0 && code != 1 {
			t.Fatalf("shard %d exited %d:\n%s", i, code, out)
		}
		lines, err := ckpt.ReadFile(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lines {
			if l.IsSummary() {
				wantPostRuns += l.PostRuns
				wantPruned += l.Pruned
			}
		}
	}
	if wantPruned == 0 {
		t.Fatal("campaign shape pruned nothing; the regression needs covered > post-ran")
	}

	res, err := mergeCheckpoints(paths, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete {
		t.Fatalf("full merge incomplete: %s", res.IncompleteReason)
	}
	if res.PostRuns != wantPostRuns {
		t.Errorf("merged post-runs = %d, want %d (the sum of the shard summaries, not the covered-point count)",
			res.PostRuns, wantPostRuns)
	}
	if res.PrunedFailurePoints != wantPruned {
		t.Errorf("merged pruned = %d, want %d", res.PrunedFailurePoints, wantPruned)
	}
	if res.PostRuns >= res.FailurePoints {
		t.Errorf("merged post-runs (%d) >= failure points (%d): the pruned campaign's accounting is fabricated",
			res.PostRuns, res.FailurePoints)
	}
	if got := res.BucketedFailurePoints(); got != res.FailurePoints {
		t.Errorf("merged bucket invariant broken: buckets sum to %d, %d failure points", got, res.FailurePoints)
	}
	if res.OtherShardFailurePoints != 0 {
		t.Errorf("merged other-shard = %d, want 0 (the union has no other shards)", res.OtherShardFailurePoints)
	}
}

// TestMergeRefusesMixedPartitions: a pruning shard owns crash-state
// classes, a -no-prune shard owns failure points fp % N, so shard 0 of the
// one and shard 1 of the other cover overlapping and missing points. The
// summary lines name the scheme and -merge refuses the mix with exit 2.
func TestMergeRefusesMixedPartitions(t *testing.T) {
	const base = "-workload btree -init 2 -test 2 -patch btree-skip-add-leaf -shards 2"
	dir := t.TempDir()
	byClass, byPoint := filepath.Join(dir, "class0.ckpt"), filepath.Join(dir, "point1.ckpt")
	for _, run := range []string{
		base + " -shard-index 0 -checkpoint " + byClass,
		base + " -no-prune -shard-index 1 -checkpoint " + byPoint,
	} {
		if code, out := runCLI(t, run); code != 0 && code != 1 {
			t.Fatalf("%q exited %d:\n%s", run, code, out)
		}
	}
	for path, want := range map[string]string{byClass: core.PartitionByClass, byPoint: core.PartitionByFailurePoint} {
		lines, err := ckpt.ReadFile(path)
		if err != nil || len(lines) == 0 || lines[len(lines)-1].Partition != want {
			t.Fatalf("%s: summary does not record partition %q (err %v)", path, want, err)
		}
	}
	code, out := runCLI(t, "-merge "+byClass+" "+byPoint)
	if code != 2 || !strings.Contains(out, "refusing to mix") {
		t.Errorf("mixed-partition merge exited %d, want 2 with a refusal:\n%s", code, out)
	}
}

// TestMergeLegacyCrossShardCheckpoints: shard checkpoints written before
// class sharding — failure-point partition, no partition field, a
// cross_shard bucket on the summary — still merge complete, with the
// bucket identity intact. The format no longer has that bucket: the point
// it accounted is covered beyond the summaries' buckets, so the merger
// counts it as a post-run.
func TestMergeLegacyCrossShardCheckpoints(t *testing.T) {
	dir := t.TempDir()
	race := `{"class":0,"addr":64,"size":8,"reader_ip":"r.go:1","writer_ip":"w.go:2","failure_point":0}`
	legacy := map[string]string{
		// Shard 0 ran points 0 and 2, and attributed point 4 from shard 1's
		// representative of the same class.
		"s0.ckpt": `{"fp":0,"fpr":11,"reports":[` + race + `]}
{"fp":2,"fpr":22}
{"fp":4,"fpr":11}
{"fp":-1,"total":6,"shards":2,"classes":2,"post_runs":2,"cross_shard":1,"other_shard":3}
`,
		"s1.ckpt": `{"fp":1,"fpr":11}
{"fp":3,"fpr":33}
{"fp":5,"fpr":55}
{"fp":-1,"total":6,"shards":2,"classes":2,"post_runs":2,"pruned":1,"other_shard":3}
`,
	}
	var paths []string
	for name, body := range legacy {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	res, err := mergeCheckpoints(paths, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete || res.FailurePoints != 6 || len(res.Reports) != 1 {
		t.Fatalf("legacy merge: incomplete=%v (%s), %d failure points, %d reports; want complete, 6, 1",
			res.Incomplete, res.IncompleteReason, res.FailurePoints, len(res.Reports))
	}
	if res.CrossShardPrunedFailurePoints != 0 || res.PostRuns != 5 || res.PrunedFailurePoints != 1 {
		t.Errorf("legacy buckets: cross-shard %d, post-runs %d, pruned %d; want 0, 5, 1",
			res.CrossShardPrunedFailurePoints, res.PostRuns, res.PrunedFailurePoints)
	}
	if got := res.BucketedFailurePoints(); got != res.FailurePoints {
		t.Errorf("legacy merge breaks the bucket identity: buckets sum to %d, %d failure points", got, res.FailurePoints)
	}
	if code, out := runCLI(t, "-merge "+strings.Join(paths, " ")); code != 1 || !strings.Contains(out, "post-failure runs: 5") {
		t.Errorf("-merge of the legacy pair exited %d, want 1 with 5 post-runs:\n%s", code, out)
	}
}

// TestWriteKeysEmptySet: zero reports must write zero bytes — the old
// rendering (a single newline) was byte-identical to a set holding one
// empty key, confusing the CI diffs of clean workloads.
func TestWriteKeysEmptySet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.txt")
	if err := writeKeys(path, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("empty report set wrote %q, want an empty file", data)
	}

	// And a non-empty set still ends with exactly one trailing newline.
	if err := writeKeys(path, []core.Report{{Class: core.CrossFailureRace, ReaderIP: "a", WriterIP: "b"}}); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' || strings.Count(string(data), "\n") != 1 {
		t.Errorf("single-key file = %q, want one newline-terminated line", data)
	}
}

// updateCampaign is U′, the update-loop campaign whose seeded
// btree-skip-add-update bug reports two keys from 124 failure points, 74
// of them pruned: a class whose representative reported a key comes back
// at later failure points, which is what a resume has to get right.
const updateCampaign = "-workload btree -init 2 -test 1 -updates 2 -update-rounds 20 -patch btree-skip-add-update"

// checkpointPrefix runs U′ with a full checkpoint and returns its keys
// file and the checkpoint's first n lines, plus the first cut bytes of the
// line after them (a torn append).
func checkpointPrefix(t *testing.T, dir string, n, cut int) (keys string, prefix []byte) {
	t.Helper()
	full, keys := filepath.Join(dir, "full.ckpt"), filepath.Join(dir, "cold.txt")
	if code, out := runCLI(t, updateCampaign+" -checkpoint "+full+" -keys-out "+keys); code != 1 {
		t.Fatalf("uninterrupted run exited %d, want 1 (seeded bug):\n%s", code, out)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) <= n {
		t.Fatalf("checkpoint holds %d lines, want more than %d", len(lines), n)
	}
	return keys, []byte(strings.Join(lines[:n], "") + lines[n][:cut])
}

// sameKeysFile fails unless the keys file got equals want byte for byte.
func sameKeysFile(t *testing.T, label, want, got string) {
	t.Helper()
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, g) {
		t.Errorf("%s keys diverge from the uninterrupted run's:\nwant:\n%s\ngot:\n%s", label, w, g)
	}
}

// TestTornTailResumeThenMergeAndResume: a checkpoint that ends in a torn
// append — two kill -9s in a row leave one — resumes, and the resumed run
// appends after whole lines only: -merge of the same file and a second
// -resume both load it and report the uninterrupted run's keys. Appending
// after the fragment instead left a corrupt line before intact ones, which
// both refused with exit 2.
func TestTornTailResumeThenMergeAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs detection campaigns")
	}
	dir := t.TempDir()
	ref, torn := checkpointPrefix(t, dir, 40, 7)
	path := filepath.Join(dir, "torn.ckpt")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	for i, run := range []string{
		updateCampaign + " -checkpoint " + path + " -resume -keys-out ",
		"-merge -keys-out ",
		updateCampaign + " -checkpoint " + path + " -resume -keys-out ",
	} {
		keys := filepath.Join(dir, fmt.Sprintf("keys%d.txt", i))
		args := run + keys
		if strings.HasPrefix(run, "-merge") {
			args += " " + path
		}
		if code, out := runCLI(t, args); code != 1 {
			t.Fatalf("%q exited %d, want 1 (seeded bug):\n%s", args, code, out)
		}
		sameKeysFile(t, args, ref, keys)
	}
}
