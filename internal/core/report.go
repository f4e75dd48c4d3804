// Package core implements XFDetector itself: the failure-injection frontend
// and the shadow-PM detection backend of §4–§5 of the paper.
//
// A detection run (Run) executes a Target's pre-failure stage once. At every
// ordering point inside the region of interest it injects a failure point:
// it suspends the pre-failure execution, copies the PM image (including
// non-persisted updates), executes the Target's post-failure stage on the
// copy, classifies every post-failure read against the shadow PM, and then
// resumes the pre-failure execution — the execute–suspend–spawn–continue
// loop of Fig. 8. Detected cross-failure races, cross-failure semantic
// bugs, performance bugs, and post-failure faults are collected into a
// Result, deduplicated by reader/writer source location the way the paper
// reports file name and line number pairs.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/pmemgo/xfdetector/internal/shadow"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// BugClass classifies a detected bug.
type BugClass uint8

const (
	// CrossFailureRace: the post-failure stage read data modified
	// pre-failure that was not guaranteed persisted (§3.1).
	CrossFailureRace BugClass = iota
	// CrossFailureSemantic: the post-failure stage read persisted data
	// that is semantically inconsistent under the crash-consistency
	// mechanism (§3.2).
	CrossFailureSemantic
	// Performance: an unnecessary PM operation (redundant writeback or
	// duplicated TX_ADD, §5.4).
	Performance
	// PostFailureFault: the post-failure execution itself failed — it
	// panicked (e.g. a segmentation-fault analogue such as an
	// out-of-range PM access) or returned an error (e.g. a pool that can
	// no longer be opened, the paper's Bug 4).
	PostFailureFault
)

// String names the bug class.
func (c BugClass) String() string {
	switch c {
	case CrossFailureRace:
		return "CROSS-FAILURE RACE"
	case CrossFailureSemantic:
		return "CROSS-FAILURE SEMANTIC BUG"
	case Performance:
		return "PERFORMANCE BUG"
	case PostFailureFault:
		return "POST-FAILURE FAULT"
	}
	return fmt.Sprintf("BugClass(%d)", uint8(c))
}

// Report is one detected bug.
type Report struct {
	Class BugClass
	// Addr and Size identify the first PM range on which the bug was
	// observed (informational; deduplication is by source location).
	Addr uint64
	Size uint64
	// ReaderIP is the post-failure read location (races and semantic
	// bugs) or the offending operation (performance bugs).
	ReaderIP string
	// WriterIP is the last pre-failure writer of the range.
	WriterIP string
	// FailurePoint is the 0-based index of the failure point at which the
	// bug was first observed (-1 for performance bugs found while
	// replaying the pre-failure trace).
	FailurePoint int
	// PerfKind refines Performance reports.
	PerfKind shadow.PerfBugKind
	// Message carries the fault description for PostFailureFault reports.
	Message string
}

// DedupKey is the deduplication identity: the paper reports the file/line
// of the reader and the last writer, so repeated observations of the same
// pair collapse into one report. The differential tooling
// (internal/fuzzgen, cmd/xfdfuzz) compares report sets by this key.
func (r Report) DedupKey() string {
	return fmt.Sprintf("%d|%s|%s|%d|%s", r.Class, r.ReaderIP, r.WriterIP, r.PerfKind, r.Message)
}

// reportID holds exactly DedupKey's fields as a comparable value: the
// report set deduplicates by it without rendering a key for every finding.
type reportID struct {
	class          BugClass
	reader, writer string
	perf           shadow.PerfBugKind
	message        string
}

func (r Report) id() reportID {
	return reportID{r.Class, r.ReaderIP, r.WriterIP, r.PerfKind, r.Message}
}

// String formats the report the way the artifact's debug output does.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", r.Class)
	switch r.Class {
	case CrossFailureRace, CrossFailureSemantic:
		fmt.Fprintf(&b, " post-failure read at %s of [0x%x, 0x%x)", orUnknown(r.ReaderIP), r.Addr, r.Addr+r.Size)
		fmt.Fprintf(&b, ", last pre-failure write at %s", orUnknown(r.WriterIP))
		fmt.Fprintf(&b, " (failure point %d)", r.FailurePoint)
	case Performance:
		fmt.Fprintf(&b, " %s at %s on [0x%x, 0x%x)", r.PerfKind, orUnknown(r.ReaderIP), r.Addr, r.Addr+r.Size)
	case PostFailureFault:
		fmt.Fprintf(&b, " %s (failure point %d)", r.Message, r.FailurePoint)
	}
	return b.String()
}

func orUnknown(ip string) string {
	if ip == "" {
		return "<unknown>"
	}
	return ip
}

// reportSet accumulates deduplicated reports in first-seen order. It is
// safe for concurrent use: the siblings of a Workers > 1 run share one,
// and a timed post-run adds from its own goroutine.
type reportSet struct {
	mu      sync.Mutex
	seen    map[reportID]struct{}
	reports []Report
}

func newReportSet() *reportSet {
	return &reportSet{seen: make(map[reportID]struct{})}
}

// add inserts r unless an equivalent report exists; it reports whether r
// was new.
func (s *reportSet) add(r Report) bool {
	k := r.id()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.seen[k]; ok {
		return false
	}
	s.seen[k] = struct{}{}
	s.reports = append(s.reports, r)
	return true
}

// snapshot returns the accumulated reports.
func (s *reportSet) snapshot() []Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Report(nil), s.reports...)
}

// Result is the outcome of one detection run.
type Result struct {
	// Target is the name of the tested target.
	Target string
	// Reports lists the deduplicated bugs in first-seen order.
	Reports []Report
	// FailurePoints is the number of failure points injected.
	FailurePoints int
	// PostRuns is the number of post-failure executions that ran to an
	// outcome (including deadline-abandoned and budget-exceeded runs, which
	// are reported as faults; excluding quarantined and cancelled ones,
	// which count as SkippedFailurePoints). Every failure point lands in
	// exactly one bucket: PostRuns + PrunedFailurePoints +
	// OtherShardFailurePoints + ResumedFailurePoints +
	// SkippedFailurePoints == FailurePoints, complete or degraded alike.
	PostRuns int
	// CrashStateClasses counts the distinct crash-state fingerprint classes
	// whose representative post-run executed, and PrunedFailurePoints
	// counts the failure points skipped because an earlier representative
	// of their class already completed cleanly (Config.DisablePruning).
	// For a complete, unresumed campaign
	// PostRuns + PrunedFailurePoints + OtherShardFailurePoints ==
	// FailurePoints, and with every class clean PostRuns equals
	// CrashStateClasses.
	CrashStateClasses   int
	PrunedFailurePoints int
	// CacheHitFailurePoints counts failure points attributed from a
	// previous campaign's verdict cache (Config.Verdicts); it is disjoint
	// from PrunedFailurePoints: only the first member of a class consults
	// the cache, and later members of the same class land in the pruned
	// bucket.
	CacheHitFailurePoints int
	// CrossShardPrunedFailurePoints is always zero and in no bucket sum:
	// class sharding left no verdict to attribute across shards. It stays
	// only for the benchmark module, which still reads it.
	CrossShardPrunedFailurePoints int
	// PreEntries and PostEntries count traced operations per stage.
	PreEntries  int
	PostEntries int
	// BenignReads counts post-failure bytes read from commit variables
	// (benign cross-failure races, §3.1).
	BenignReads uint64
	// PreSeconds and PostSeconds split the wall-clock detection time into
	// the pre-failure stage and the (repeated) post-failure stage, the
	// breakdown of Fig. 12a. Under Workers > 1 PreSeconds is sibling 0's
	// (every sibling runs the same stage) and PostSeconds sums the
	// siblings' post-runs.
	PreSeconds  float64
	PostSeconds float64

	// Incomplete reports that the campaign degraded: failure points were
	// skipped because the run was cancelled or post-runs were quarantined
	// after harness faults. The reports above are still sound — each one
	// was genuinely observed — but coverage is partial.
	Incomplete bool
	// IncompleteReason is the first cause of degradation.
	IncompleteReason string
	// SkippedFailurePoints counts failure points whose post-failure
	// executions did not run (cancellation) or were quarantined (harness
	// faults surviving a retry).
	SkippedFailurePoints int
	// AbandonedPostRuns counts post-failure executions abandoned at their
	// Config.PostRunTimeout deadline; each is also reported as a
	// PostFailureFault.
	AbandonedPostRuns int
	// ResumedFailurePoints counts failure points skipped because a
	// checkpoint (Config.CompletedFailurePoints) already covered them.
	ResumedFailurePoints int
	// ShardCount and ShardIndex echo the sharding configuration of the
	// run (both zero when the campaign was not sharded), ShardPartition
	// names how the shards split it (PartitionByClass under pruning,
	// PartitionByFailurePoint otherwise; empty when not sharded), and
	// OtherShardFailurePoints counts the failure points whose post-runs
	// were delegated to other shards. Like ResumedFailurePoints, a
	// delegated point is covered elsewhere, not a degradation.
	ShardCount              int
	ShardIndex              int
	ShardPartition          string
	OtherShardFailurePoints int
	// HarnessFaults describes each quarantined failure point.
	HarnessFaults []string
	// ShadowPeakBytes is the peak number of live shadow-PM bytes across
	// the run (under Workers > 1 the sum of the siblings' peaks, an upper
	// bound of their concurrent peak), and ShadowPages is the cumulative
	// number of 4 KiB shadow pages allocated (lazy allocations plus
	// copy-on-write clones). Both are zero in trace-only and original
	// modes, which build no shadow.
	ShadowPeakBytes uint64
	ShadowPages     uint64
	// PoolBackend names the backend the campaign's root pool used
	// ("memory", "file"). For a file-backed pool, MsyncRanges counts the
	// coalesced dirty ranges written back to the pool file at persist
	// boundaries, MsyncPages the 4 KiB pages actually copied and synced,
	// and MsyncSkipped the dirty pages skipped because their on-disk
	// content already matched (compare-skip; a resumed campaign replaying
	// over its surviving file skips everything already persisted).
	PoolBackend  string
	MsyncRanges  uint64
	MsyncPages   uint64
	MsyncSkipped uint64

	trace *trace.Trace
}

// Shard partition schemes (Result.ShardPartition): shards of a pruning
// campaign own crash-state classes, shards of a -no-prune campaign own
// failure points fp % ShardCount. Shard checkpoints of the two schemes
// cover different failure-point sets and must not be merged together.
const (
	PartitionByClass        = "class"
	PartitionByFailurePoint = "failure-point"
)

// PreTrace returns the retained pre-failure trace, or nil unless the run
// was configured with KeepTrace. The baseline pre-failure-only checkers
// consume it.
func (r *Result) PreTrace() *trace.Trace { return r.trace }

// BucketedFailurePoints sums the disjoint per-failure-point buckets. For
// every run — and for every honest merge of runs — it equals
// FailurePoints: each injected point lands in exactly one of post-run,
// pruned-as-class-member, answered-from-the-verdict-cache,
// delegated-to-another-shard, reused-from-a-checkpoint, or skipped. The
// merge paths and the accounting tests assert this invariant instead of
// trusting any single bucket.
func (r *Result) BucketedFailurePoints() int {
	return r.PostRuns + r.PrunedFailurePoints + r.CacheHitFailurePoints +
		r.OtherShardFailurePoints + r.ResumedFailurePoints + r.SkippedFailurePoints
}

// Count returns the number of reports of the given class.
func (r *Result) Count(c BugClass) int {
	n := 0
	for _, rep := range r.Reports {
		if rep.Class == c {
			n++
		}
	}
	return n
}

// ByClass returns the reports of the given class in first-seen order.
func (r *Result) ByClass(c BugClass) []Report {
	var out []Report
	for _, rep := range r.Reports {
		if rep.Class == c {
			out = append(out, rep)
		}
	}
	return out
}

// Clean reports whether the run found no correctness bugs (performance
// reports do not count).
func (r *Result) Clean() bool {
	for _, rep := range r.Reports {
		if rep.Class != Performance {
			return false
		}
	}
	return true
}

// String renders a human-readable summary resembling the artifact's
// <workload>_<testsize>_debug.txt output.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== XFDetector report for %q ===\n", r.Target)
	fmt.Fprintf(&b, "failure points: %d, post-failure runs: %d\n", r.FailurePoints, r.PostRuns)
	fmt.Fprintf(&b, "trace entries: %d pre, %d post; benign commit-variable reads: %d bytes\n",
		r.PreEntries, r.PostEntries, r.BenignReads)
	fmt.Fprintf(&b, "time: %.3fs pre-failure, %.3fs post-failure\n", r.PreSeconds, r.PostSeconds)
	if r.ShadowPeakBytes > 0 {
		fmt.Fprintf(&b, "shadow: peak %d KiB, %d page(s) allocated\n",
			(r.ShadowPeakBytes+1023)/1024, r.ShadowPages)
	}
	if r.PoolBackend == "file" {
		fmt.Fprintf(&b, "pool file: %d msync range(s), %d page(s) written, %d already persisted\n",
			r.MsyncRanges, r.MsyncPages, r.MsyncSkipped)
	}
	if r.CrashStateClasses > 0 || r.PrunedFailurePoints > 0 {
		fmt.Fprintf(&b, "pruning: %d crash-state class(es) tested, %d member failure point(s) skipped\n",
			r.CrashStateClasses, r.PrunedFailurePoints)
	}
	if r.CacheHitFailurePoints > 0 {
		fmt.Fprintf(&b, "verdict cache: %d failure point(s) reused from a previous campaign\n",
			r.CacheHitFailurePoints)
	}
	if r.ResumedFailurePoints > 0 {
		fmt.Fprintf(&b, "resumed: %d failure point(s) reused from a checkpoint\n", r.ResumedFailurePoints)
	}
	if r.ShardCount > 1 {
		fmt.Fprintf(&b, "shard %d/%d: %d failure point(s) delegated to other shards\n",
			r.ShardIndex, r.ShardCount, r.OtherShardFailurePoints)
	}
	if r.AbandonedPostRuns > 0 {
		fmt.Fprintf(&b, "abandoned: %d post-failure run(s) exceeded their deadline\n", r.AbandonedPostRuns)
	}
	if r.Incomplete {
		fmt.Fprintf(&b, "INCOMPLETE: %d failure point(s) skipped — %s\n", r.SkippedFailurePoints, r.IncompleteReason)
	}
	if len(r.Reports) == 0 {
		b.WriteString("no bugs detected\n")
		return b.String()
	}
	classes := []BugClass{CrossFailureRace, CrossFailureSemantic, PostFailureFault, Performance}
	sorted := append([]Report(nil), r.Reports...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return classOrder(sorted[i].Class, classes) < classOrder(sorted[j].Class, classes)
	})
	fmt.Fprintf(&b, "%d bug(s) detected:\n", len(sorted))
	for i, rep := range sorted {
		fmt.Fprintf(&b, "  [%d] %s\n", i+1, rep)
	}
	return b.String()
}

func classOrder(c BugClass, order []BugClass) int {
	for i, o := range order {
		if o == c {
			return i
		}
	}
	return len(order)
}
