package core

// Cross-campaign verdict reuse.
//
// PR 6's pruning collapses equal-fingerprint failure points within one
// process, and class sharding (prune.go) keeps every class on one shard, so
// no shard ever needs another shard's verdict. What a process can still
// reuse is a previous campaign's: a VerdictSource is a cache of clean class
// verdicts from earlier campaigns of the identical program, consulted once
// per class before its representative runs.
//
// The run only reads it. A cache learns from checkpoint lines, by one rule
// kept in internal/vcache (Binding.Add): the first line of a campaign that
// carries a class fingerprint stores the class unless it carries a
// PostFailureFault. Core makes that rule sound: a faulted or abandoned
// representative's fault rides on its own line, and the members of a dirty
// class carry no fingerprint (OnPostRunComplete). A resumed campaign feeds
// its checkpoint's lines first, so a class keeps the reports of the
// representative that first ran it.
//
// Backends: the standalone -verdict-cache file (vcache.Binding), and a
// -serve daemon shard's per-lease copy of its campaign's entries
// (serve.LeaseVerdicts; the daemon feeds the binding from the lines the
// shard streams). A source that cannot reach its backing store answers no
// hits: it degrades to in-process pruning, never to a wrong verdict.
type VerdictSource interface {
	// Lookup returns the reports of a class a previous campaign resolved
	// cleanly. A clean representative may still have observed bugs —
	// races, semantic bugs — and a hit re-seeds them, so the merged report
	// set matches an uncached run byte for byte. Under Workers > 1 several
	// siblings call it concurrently.
	Lookup(fingerprint uint64) ([]Report, bool)
}
