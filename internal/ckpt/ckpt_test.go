package ckpt

import (
	"errors"
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/core"
)

// TestForEachLine: unbounded line reads — one line far past any scanner
// buffer survives intact, a final unterminated fragment is delivered, and
// a callback error aborts the scan.
func TestForEachLine(t *testing.T) {
	huge := strings.Repeat("x", 3<<20)
	input := "a\n" + huge + "\nb" // "b" has no trailing newline
	var got []string
	if err := ForEachLine(strings.NewReader(input), func(line string) error {
		got = append(got, line)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != huge || got[2] != "b" {
		lens := make([]int, len(got))
		for i, s := range got {
			lens[i] = len(s)
		}
		t.Errorf("got %d lines with lengths %v, want [1 %d 1]", len(got), lens, len(huge))
	}

	calls := 0
	errAbort := errors.New("abort")
	err := ForEachLine(strings.NewReader("a\nb\nc\n"), func(string) error {
		calls++
		return errAbort
	})
	if err == nil || calls != 1 {
		t.Errorf("callback error did not abort the scan (err=%v, calls=%d)", err, calls)
	}
}

// TestTruncate: display truncation marks the cut; short lines and the
// parse paths (max <= 0) pass through untouched.
func TestTruncate(t *testing.T) {
	if got := Truncate("short", 100); got != "short" {
		t.Errorf("short line truncated to %q", got)
	}
	if got := Truncate("abcdef", 0); got != "abcdef" {
		t.Errorf("max=0 must mean no cap, got %q", got)
	}
	got := Truncate("abcdef", 3)
	if !strings.HasPrefix(got, "abc") || !strings.Contains(got, "3 byte(s) truncated") {
		t.Errorf("Truncate(abcdef, 3) = %q", got)
	}
}

// TestReadTornTail: only an unparseable final line is the torn-write
// case; corruption with intact lines after it is an error that names the
// line.
func TestReadTornTail(t *testing.T) {
	lines, err := Read(strings.NewReader("{\"fp\":0}\n{\"fp\":1,\"repor"), "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0].FP != 0 {
		t.Errorf("torn tail: got %v, want just fp 0", lines)
	}

	_, err = Read(strings.NewReader("{\"fp\":0}\n@@damaged\n{\"fp\":2}\n"), "test")
	if err == nil {
		t.Fatal("mid-stream corruption read without error")
	}
	if !strings.Contains(err.Error(), "test:2:") {
		t.Errorf("error %q does not locate the corrupt line", err)
	}
}

// TestSummaryRoundTrip: the summary line carries the full bucket
// accounting and the pre-failure reports, and folding it back preserves
// both the invariant inputs and the total.
func TestSummaryRoundTrip(t *testing.T) {
	res := &core.Result{
		FailurePoints:           10,
		PostRuns:                4,
		PrunedFailurePoints:     3,
		OtherShardFailurePoints: 1,
		ResumedFailurePoints:    1,
		SkippedFailurePoints:    1,
		CrashStateClasses:       4,
		AbandonedPostRuns:       2,
		Reports: []core.Report{
			{Class: core.Performance, ReaderIP: "p.go:1", FailurePoint: -1},
			{Class: core.CrossFailureRace, ReaderIP: "r.go:1", WriterIP: "w.go:2", FailurePoint: 3},
		},
	}
	line := Summary(res, 2)
	if !line.IsSummary() {
		t.Fatal("summary line does not identify as one")
	}
	if got := line.PostRuns + line.Pruned + line.OtherShard + line.Resumed + line.Skipped; got != line.Total {
		t.Errorf("summary buckets sum to %d, total is %d", got, line.Total)
	}
	if line.Abandoned != 2 || line.Classes != 4 {
		t.Errorf("summary carries abandoned=%d classes=%d, want 2 and 4", line.Abandoned, line.Classes)
	}
	if len(line.Reports) != 1 || line.Reports[0].FailurePoint != -1 {
		t.Errorf("summary reports = %v, want only the pre-failure one", line.Reports)
	}

	d, err := Fold([]Line{line}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if d.Total != 10 || len(d.Done) != 0 || len(d.Seed) != 1 {
		t.Errorf("folded summary: total=%d done=%v seeds=%d", d.Total, d.Done, len(d.Seed))
	}
}

// mkSummary builds a summary line with the given buckets (total is their
// sum, upholding the writer invariant).
func mkSummary(postRuns, pruned, resumed, skipped int) Line {
	return Line{
		FP:       SummaryFP,
		Total:    postRuns + pruned + resumed + skipped,
		PostRuns: postRuns, Pruned: pruned, Resumed: resumed, Skipped: skipped,
	}
}

// TestMergerBucketAccounting: the merged Result sums the per-source
// summary buckets instead of fabricating PostRuns from the covered-point
// count, and the bucket invariant holds on the union.
func TestMergerBucketAccounting(t *testing.T) {
	m := NewMerger()
	// Shard 0 post-ran fps 0 and 3, pruned nothing.
	for _, fp := range []int{0, 3} {
		if err := m.Add("s0", Line{FP: fp}); err != nil {
			t.Fatal(err)
		}
	}
	s0 := mkSummary(2, 0, 0, 0)
	s0.Total = 6
	s0.Skipped = 0
	s0.OtherShard = 4 // delegated to shard 1; the union owns them
	if err := m.Add("s0", s0); err != nil {
		t.Fatal(err)
	}
	// Shard 1 post-ran 1 and 4, pruned 2 and 5 (their lines still appear).
	for _, fp := range []int{1, 4, 2, 5} {
		if err := m.Add("s1", Line{FP: fp}); err != nil {
			t.Fatal(err)
		}
	}
	s1 := mkSummary(2, 2, 0, 0)
	s1.Total = 6
	s1.OtherShard = 2
	if err := m.Add("s1", s1); err != nil {
		t.Fatal(err)
	}

	res := m.Result("test")
	if res.Incomplete {
		t.Fatalf("full union came out incomplete: %s", res.IncompleteReason)
	}
	if res.PostRuns != 4 || res.PrunedFailurePoints != 2 {
		t.Errorf("merged buckets: post-runs=%d pruned=%d, want 4 and 2 (summed, not fabricated)",
			res.PostRuns, res.PrunedFailurePoints)
	}
	if res.OtherShardFailurePoints != 0 {
		t.Errorf("merged other-shard = %d, want 0 (a union has no other shards)", res.OtherShardFailurePoints)
	}
	if got := res.BucketedFailurePoints(); got != res.FailurePoints {
		t.Errorf("bucket invariant broken on the union: buckets sum to %d, %d failure points",
			got, res.FailurePoints)
	}
}

// TestMergerLastSummaryWins: a resumed completion appends a second
// summary for the same source; only the final incarnation's accounting
// counts, or the buckets would double.
func TestMergerLastSummaryWins(t *testing.T) {
	m := NewMerger()
	for fp := 0; fp < 3; fp++ {
		if err := m.Add("s0", Line{FP: fp}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Add("s0", mkSummary(3, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	// The resumed re-verification: all three points now Resumed.
	if err := m.Add("s0", mkSummary(0, 0, 3, 0)); err != nil {
		t.Fatal(err)
	}
	res := m.Result("test")
	if res.PostRuns != 0 || res.ResumedFailurePoints != 3 {
		t.Errorf("post-runs=%d resumed=%d, want 0 and 3 (last summary wins)", res.PostRuns, res.ResumedFailurePoints)
	}
	if got := res.BucketedFailurePoints(); got != res.FailurePoints {
		t.Errorf("bucket invariant broken: %d buckets, %d failure points", got, res.FailurePoints)
	}
}

// TestMergerLegacyFallback: checkpoints from before the bucket fields (or
// sources that never completed) parse as all-zero buckets; their covered
// points fall back to PostRuns — each has a durably recorded post-run —
// and points covered by nobody land in Skipped with Incomplete set.
func TestMergerLegacyFallback(t *testing.T) {
	m := NewMerger()
	for _, fp := range []int{0, 1} {
		if err := m.Add("s0", Line{FP: fp}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Add("s0", Line{FP: SummaryFP, Total: 4}); err != nil { // legacy: no buckets
		t.Fatal(err)
	}
	res := m.Result("test")
	if res.PostRuns != 2 {
		t.Errorf("legacy covered points = %d post-runs, want 2", res.PostRuns)
	}
	if !res.Incomplete || res.SkippedFailurePoints != 2 {
		t.Errorf("missing points: incomplete=%v skipped=%d, want true and 2", res.Incomplete, res.SkippedFailurePoints)
	}
	if got := res.BucketedFailurePoints(); got != res.FailurePoints {
		t.Errorf("bucket invariant broken: %d buckets, %d failure points", got, res.FailurePoints)
	}
}

// TestMergerMixedEraCheckpoints: a legacy bucket-less, fingerprint-less
// checkpoint merged with a new-era one carrying fingerprints and the
// cache-hit bucket must still satisfy the coverage invariant;
// a gap in the union must still come out Incomplete (the CLI's exit 3)
// regardless of which era covered the surrounding points.
func TestMergerMixedEraCheckpoints(t *testing.T) {
	mixed := func(coverNewEra []int) *Merger {
		m := NewMerger()
		// Legacy shard: per-point lines without fingerprints, summary
		// without buckets (pre-PR 8 wire format).
		for _, fp := range []int{0, 2} {
			if err := m.Add("legacy", Line{FP: fp}); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Add("legacy", Line{FP: SummaryFP, Total: 6}); err != nil {
			t.Fatal(err)
		}
		// New-era shard: fingerprint-bearing lines, full buckets including
		// the verdict cache's.
		for _, fp := range coverNewEra {
			if err := m.Add("new", Line{FP: fp, FPrint: 0xdeadbeef + uint64(fp)}); err != nil {
				t.Fatal(err)
			}
		}
		s := Line{FP: SummaryFP, Total: 6, PostRuns: 2, Pruned: 1,
			CacheHits: 1, OtherShard: 2}
		if err := m.Add("new", s); err != nil {
			t.Fatal(err)
		}
		return m
	}

	res := mixed([]int{1, 3, 4, 5}).Result("test")
	if res.Incomplete {
		t.Fatalf("full mixed-era union came out incomplete: %s", res.IncompleteReason)
	}
	if res.CacheHitFailurePoints != 1 {
		t.Errorf("merged cache hits = %d, want 1", res.CacheHitFailurePoints)
	}
	// Legacy's 2 covered points are unaccounted by its bucket-less summary
	// and fall back to PostRuns: 2 (new) + 2 (fallback) = 4.
	if res.PostRuns != 4 {
		t.Errorf("merged post-runs = %d, want 4 (2 summed + 2 legacy fallback)", res.PostRuns)
	}
	if got := res.BucketedFailurePoints(); got != res.FailurePoints {
		t.Errorf("bucket invariant broken on the mixed-era union: buckets sum to %d, %d failure points",
			got, res.FailurePoints)
	}

	// Same merge with failure point 4 missing: a gap is a gap in any era.
	res = mixed([]int{1, 3, 5}).Result("test")
	if !res.Incomplete {
		t.Fatal("mixed-era union with a gap came out complete")
	}
	if got := res.BucketedFailurePoints(); got != res.FailurePoints {
		t.Errorf("bucket invariant broken on the incomplete union: buckets sum to %d, %d failure points",
			got, res.FailurePoints)
	}
}

// TestSummaryCarriesVerdictBuckets: the fp=-1 summary round-trips the
// cache-hit bucket and keeps the extended invariant.
func TestSummaryCarriesVerdictBuckets(t *testing.T) {
	res := &core.Result{
		FailurePoints:         8,
		PostRuns:              3,
		PrunedFailurePoints:   2,
		CacheHitFailurePoints: 2,
		ResumedFailurePoints:  1,
	}
	line := Summary(res, 3)
	if line.CacheHits != 2 {
		t.Fatalf("summary carries cache_hits=%d, want 2", line.CacheHits)
	}
	sum := line.PostRuns + line.Pruned + line.CacheHits +
		line.OtherShard + line.Resumed + line.Skipped
	if sum != line.Total {
		t.Fatalf("extended summary buckets sum to %d, total is %d", sum, line.Total)
	}
}

// TestMergerTotalConflict: sources whose summaries disagree on the
// failure-point total ran different campaigns.
func TestMergerTotalConflict(t *testing.T) {
	m := NewMerger()
	if err := m.Add("s0", Line{FP: SummaryFP, Total: 5}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("s1", Line{FP: SummaryFP, Total: 7}); err == nil {
		t.Fatal("disagreeing totals merged without error")
	}
}

// TestMergerDedup: the union deduplicates reports by key across sources
// in first-seen order.
func TestMergerDedup(t *testing.T) {
	m := NewMerger()
	rep := core.Report{Class: core.CrossFailureRace, ReaderIP: "r.go:1", WriterIP: "w.go:2", FailurePoint: 0}
	dup := rep
	dup.FailurePoint = 1 // same dedup key (location pair), later sighting
	other := core.Report{Class: core.CrossFailureRace, ReaderIP: "r.go:9", WriterIP: "w.go:2", FailurePoint: 1}
	if err := m.Add("s0", Line{FP: 0, Reports: []core.Report{rep}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("s1", Line{FP: 1, Reports: []core.Report{dup, other}}); err != nil {
		t.Fatal(err)
	}
	if got := m.Reports(); len(got) != 2 || got[0].FailurePoint != 0 {
		t.Errorf("dedup union = %v, want [first sighting, other]", got)
	}
	if m.Covered() != 2 {
		t.Errorf("covered = %d, want 2", m.Covered())
	}
}
