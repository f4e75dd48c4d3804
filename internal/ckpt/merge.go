package ckpt

import (
	"fmt"

	"github.com/pmemgo/xfdetector/internal/core"
)

// Merger unions checkpoint lines from any number of sources (shard files
// for -merge, live lease streams for the -serve daemon) into
// one deduplicated campaign result, incrementally: lines are added as
// they arrive and the merged view can be snapshotted at any point for
// live coverage accounting.
//
// Sharded campaigns run the identical deterministic pre-failure
// execution, so their checkpoints agree on failure-point numbering; the
// union of their per-point lines is the single-process campaign's report
// set once every failure point is covered. Coverage is decided against
// the summary lines: each completed (shard) campaign records the total
// failure-point count it observed, and the merge requires every point in
// [0, total) to be present.
//
// Accounting is summed from the per-source summary buckets, not
// fabricated from the covered-point count: a pruned member or a resumed
// point is covered but was never a post-run, and the merged Result must
// uphold the same PostRuns + Pruned + OtherShard + Resumed + Skipped ==
// FailurePoints invariant every single-process path does. Per source only
// the last summary counts — it is the final incarnation's accounting;
// earlier summaries in the same stream (a resumed completion re-verifying
// a finished campaign) describe superseded incarnations of the same
// points.
//
// Shards partition a campaign by crash-state class or, under -no-prune, by
// failure point; the two schemes cover different failure-point sets, so
// sharded summaries that disagree on the scheme are refused.
type Merger struct {
	seen      map[string]bool
	reports   []core.Report
	done      map[int]bool
	total     int // -1 until a summary arrives
	partition string
	sources   map[string]*Line
}

// NewMerger returns an empty merger.
func NewMerger() *Merger {
	return &Merger{
		seen:    make(map[string]bool),
		done:    make(map[int]bool),
		total:   -1,
		sources: make(map[string]*Line),
	}
}

// Add folds one checkpoint line from the named source (a shard index, a
// file path) into the union. Summary lines that disagree on the
// failure-point total describe different campaigns and are an error.
func (m *Merger) Add(source string, l Line) error {
	if l.IsSummary() {
		if m.total >= 0 && m.total != l.Total {
			return fmt.Errorf("failure-point total %d disagrees with %d from earlier checkpoints; these shards ran different campaigns", l.Total, m.total)
		}
		if p := l.partition(); p != "" {
			if m.partition != "" && m.partition != p {
				return fmt.Errorf("shards partitioned by %s and by %s; refusing to mix the two schemes (rerun every shard with the same binary and -no-prune setting)", m.partition, p)
			}
			m.partition = p
		}
		m.total = l.Total
		cp := l
		m.sources[source] = &cp
	} else {
		m.done[l.FP] = true
	}
	for _, rep := range l.Reports {
		if k := rep.DedupKey(); !m.seen[k] {
			m.seen[k] = true
			m.reports = append(m.reports, rep)
		}
	}
	return nil
}

// AddAll folds a source's lines in order.
func (m *Merger) AddAll(source string, lines []Line) error {
	for _, l := range lines {
		if err := m.Add(source, l); err != nil {
			return err
		}
	}
	return nil
}

// Covered returns the number of distinct failure points with a per-point
// line, and Total the campaign's failure-point count (-1 until some
// source completed).
func (m *Merger) Covered() int { return len(m.done) }
func (m *Merger) Total() int   { return m.total }

// Reports returns the deduplicated union in first-seen order.
func (m *Merger) Reports() []core.Report {
	return append([]core.Report(nil), m.reports...)
}

// Result snapshots the merged campaign. The failure-point buckets are the
// sums of the per-source summaries; covered points beyond what the
// summaries account for fall back to PostRuns — each such point's line
// was durably recorded — and points covered by nobody land in
// SkippedFailurePoints with Incomplete set. Such points come from sources
// whose final incarnation never completed, from pre-bucket legacy
// checkpoints, and from the cross_shard bucket that checkpoints from
// before class sharding carry and this merger ignores.
// OtherShardFailurePoints is always 0: a merged campaign has no other
// shards; every delegated point is somebody's own point in the union.
func (m *Merger) Result(target string) *core.Result {
	res := &core.Result{
		Target:  target,
		Reports: m.Reports(),
	}
	accounted := 0
	for _, s := range m.sources {
		res.PostRuns += s.PostRuns
		res.PrunedFailurePoints += s.Pruned
		res.CacheHitFailurePoints += s.CacheHits
		res.ResumedFailurePoints += s.Resumed
		res.SkippedFailurePoints += s.Skipped
		res.CrashStateClasses += s.Classes
		res.AbandonedPostRuns += s.Abandoned
		accounted += s.PostRuns + s.Pruned + s.CacheHits + s.Resumed
	}
	if extra := len(m.done) - accounted; extra > 0 {
		res.PostRuns += extra
	}

	maxFP := -1
	for fp := range m.done {
		if fp > maxFP {
			maxFP = fp
		}
	}
	switch {
	case m.total < 0:
		// No source finished its campaign, so the true failure-point count
		// is unknown; whatever was recorded cannot be shown complete.
		res.FailurePoints = maxFP + 1
		res.Incomplete = true
		res.IncompleteReason = "no checkpoint carries a completion summary; the campaign's failure-point total is unknown"
		res.SkippedFailurePoints += missingBelow(m.done, maxFP+1)
	default:
		res.FailurePoints = m.total
		switch {
		case maxFP >= m.total:
			// A per-point line outside [0, total) contradicts the summary:
			// these checkpoints describe different campaigns, and the
			// degenerate zero-total case must not read as full coverage.
			res.Incomplete = true
			res.IncompleteReason = fmt.Sprintf("checkpoint records failure point %d but the completion summary claims only %d; these checkpoints describe different campaigns", maxFP, m.total)
			res.SkippedFailurePoints += missingBelow(m.done, m.total)
		case missingBelow(m.done, m.total) > 0:
			res.Incomplete = true
			res.IncompleteReason = fmt.Sprintf("union covers %d of %d failure points", len(m.done), m.total)
			res.SkippedFailurePoints += missingBelow(m.done, m.total)
		}
	}
	return res
}

// missingBelow counts failure points in [0, n) absent from done.
func missingBelow(done map[int]bool, n int) int {
	missing := 0
	for fp := 0; fp < n; fp++ {
		if !done[fp] {
			missing++
		}
	}
	return missing
}
