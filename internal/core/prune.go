package core

// Crash-state pruning (representative testing).
//
// Many failure points freeze equivalent crash states: the same bytes in the
// same persistence classification with the same writer attribution — think
// of a loop re-dirtying and persisting the same structure. Re-running
// post-failure detection on such states cannot observe anything new, so the
// runner fingerprints the shadow at each failure point
// (shadow.CrashFingerprint), groups failure points into classes, executes
// the post-run once per class, and attributes the verdict to the members.
//
// The verdict rule is deliberately asymmetric ("poisoned class"): only a
// representative that completes cleanly — no post-failure fault, no
// abandonment, no cancellation — prunes its members. Any other outcome
// marks the class dirty and every member runs, so value-bearing outcomes
// (fault messages quoting data, runs a resumed campaign must re-execute)
// are never attributed across members. A pruned member completes with no
// fresh reports: its class representative already holds the class's
// reports, and the member's checkpoint line still records it as covered,
// keeping -merge's coverage proof and crash-safe resume exact.
//
// The fingerprint sequence is computed on the pre-failure thread in
// injection order and the representative's post-run finishes before the
// next failure point is injected, so the first member of each class is
// its representative and every later member finds the class resolved.
//
// Sharded campaigns partition by class, not by failure point: shard i of N
// owns the classes whose fingerprint F has classShard(F, N) == i, so each
// shard fingerprints every failure point it has not resumed, applies the
// rules above to the classes it owns, and delegates the rest
// (OtherShardFailurePoints). No shard needs another shard's verdict, and a
// fleet post-runs exactly the failure points one process does. The
// siblings of a Workers > 1 run are class shards nested inside the
// process's shard (classOwner). Resumed failure points are never
// fingerprinted: a resumed shard's member whose representative a
// checkpoint already covered becomes the class's new representative.
// Under DisablePruning nothing is fingerprinted and ownership goes by
// failure point (pointOwner).

import "math/bits"

// classShard is the shard that owns crash-state class fpr in an n-shard
// campaign: the high word of fpr·n, so the fingerprint's high bits decide.
// fpr % n would read its low bits, and FNV-1a's lowest bit is the XOR of
// its inputs' lowest bits: at n = 2 that put every class of a 654-point
// B-Tree campaign on one shard.
func classShard(fpr uint64, n int) int {
	hi, _ := bits.Mul64(fpr, uint64(n))
	return int(hi)
}

// owner says which runner post-runs a failure point.
type owner uint8

const (
	ownedHere      owner = iota // this runner
	ownedBySibling              // another sibling of this process
	ownedElsewhere              // another process's shard
)

// processShard is this process's shard layout, (1, 0) when not sharded.
func (r *runner) processShard() (n, i int) {
	if r.cfg.ShardCount > 1 {
		return r.cfg.ShardCount, r.cfg.ShardIndex
	}
	return 1, 0
}

// classOwner places crash-state class fpr. A process shard (N, i) with W
// siblings is N·W class shards, and its sibling j is shard i·W + j. The
// split nests exactly: write fpr·N = i·2⁶⁴ + r with r < 2⁶⁴, then the high
// word of fpr·N·W is i·W + ⌊r·W/2⁶⁴⌋, which lies in [i·W, i·W + W)
// precisely when the process owns fpr. Splitting the siblings by
// classShard(fpr, W) instead would stay a partition but starve them: at
// N = W = 2 process 0 owns the fingerprints below 2⁶³ and its sibling 1
// those above.
func (r *runner) classOwner(fpr uint64) owner {
	n, i := r.processShard()
	k := classShard(fpr, n*r.siblings)
	return r.place(k/r.siblings == i, k%r.siblings)
}

// pointOwner places failure point fp under DisablePruning: the process
// owns fp % N == i, and its sibling j the points with (fp / N) % W == j.
func (r *runner) pointOwner(fp int) owner {
	n, i := r.processShard()
	return r.place(fp%n == i, (fp/n)%r.siblings)
}

func (r *runner) place(process bool, sibling int) owner {
	switch {
	case !process:
		return ownedElsewhere
	case sibling != r.sibling:
		return ownedBySibling
	}
	return ownedHere
}

// noteDelegated accounts a failure point this runner does not post-run.
// Another process's point is delegated, not degraded: that shard replays
// the identical pre-failure execution and arrives at the same point. It
// lands in OtherShardFailurePoints once, on sibling 0; a sibling's own
// point is its owner's to account.
func (r *runner) noteDelegated(o owner) {
	if o == ownedElsewhere && r.sibling == 0 {
		r.otherShardFPs++
	}
}

// noteResumed accounts a failure point a checkpoint already covered, once
// per process, on sibling 0: resumed points are never fingerprinted, so
// no sibling can tell whose they were.
func (r *runner) noteResumed() {
	if r.sibling == 0 {
		r.resumedFPs++
	}
}

// pruning reports whether this run fingerprints and prunes failure points.
func (r *runner) pruning() bool {
	return r.cfg.Mode == ModeDetect && !r.cfg.DisablePruning && r.sh != nil
}

// clean reports whether a post-run outcome allows pruning its class
// members: anything other than an uneventful completion — a quarantine
// included — poisons the class.
func (o postOutcome) clean() bool {
	return o.harness == nil && !o.cancelled && !o.abandoned && o.err == nil
}

// enterClass files fpID, a failure point this runner owns with crash-state
// fingerprint fpr, into its class. It returns rep=true when fpID is the
// class's first member — the caller post-runs it and resolves the class
// afterwards — or handled=true when the point was consumed here: pruned
// against a clean class, or answered from the verdict cache. Otherwise the
// point belongs to a dirty class and runs like an unpruned one, with a
// zero fingerprint: its outcome is its own and must not speak for the
// class. (A verdict cache caches a class from the first line carrying its
// fingerprint; after a quarantined representative, which writes no line, a
// member's clean line would otherwise cache the class with reports that
// miss what the void attempts observed.) Callers hold sinkMu.
func (r *runner) enterClass(fpID int, fpr uint64) (rep bool, fp uint64, handled bool) {
	if clean, resolved := r.classes[fpr]; resolved {
		if !clean {
			// The representative faulted, was abandoned, cancelled or
			// quarantined: every member runs its own post-run.
			return false, 0, false
		}
		// The representative already completed cleanly (and checkpointed
		// first): attribute its verdict, record coverage, run nothing.
		r.prunedFPs++
		r.completeFP(fpID, fpr, nil)
		return false, fpr, true
	}
	if r.cfg.Verdicts != nil {
		if cached, ok := r.cfg.Verdicts.Lookup(fpr); ok {
			// A previous campaign resolved the class cleanly; attribute the
			// verdict and re-seed its reports so this campaign's merged
			// report set matches an uncached run byte for byte.
			r.classes[fpr] = true
			r.cacheHitFPs++
			var fresh []Report
			for _, rep := range cached {
				if r.reports.add(rep) {
					fresh = append(fresh, rep)
				}
			}
			r.completeFP(fpID, fpr, fresh)
			return false, fpr, true
		}
	}
	r.classesTested++
	return true, fpr, false
}
