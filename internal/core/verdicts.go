package core

// Cross-campaign verdict reuse.
//
// PR 6's pruning collapses equal-fingerprint failure points within one
// process, and class sharding (prune.go) keeps every class on one shard, so
// no shard ever needs another shard's verdict. What a process can still
// reuse is a previous campaign's: a VerdictSource is a cache of clean class
// verdicts from earlier campaigns of the identical program, consulted once
// per class before its representative runs. Only representatives that
// completed cleanly are ever stored; a dirty, cancelled, abandoned or
// quarantined representative stores nothing, so a later campaign runs the
// class again.
//
// Backends: the standalone -verdict-cache file (internal/vcache), and a
// -serve daemon shard's per-lease copy of its campaign's entries
// (serve.LeaseVerdicts, whose Store is a no-op because the daemon stores
// a class from the representative's checkpoint line). A source that cannot
// reach its backing store answers no hits and drops stores: it degrades to
// in-process pruning, never to a wrong verdict.
type VerdictSource interface {
	// Lookup returns the reports of a class a previous campaign resolved
	// cleanly. A clean representative may still have observed bugs —
	// races, semantic bugs — and a hit re-seeds them, so the merged report
	// set matches an uncached run byte for byte.
	Lookup(fingerprint uint64) ([]Report, bool)
	// Store records a clean representative's fresh reports. It is called
	// after the representative's checkpoint callback, on the goroutine of
	// the runner that owns the class: under Workers > 1 several siblings
	// call Lookup and Store concurrently.
	Store(fingerprint uint64, reports []Report)
}
