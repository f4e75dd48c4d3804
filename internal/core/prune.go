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
// Scheduling is deterministic across sequential and parallel modes: the
// fingerprint sequence is computed on the pre-failure thread in injection
// order, the first member of each class becomes its representative, and in
// parallel mode members arriving while the representative is still in
// flight park on the class with their fork and snapshot captured at their
// own failure point. The resolving worker then either completes them
// (clean) or runs them inline (dirty) — never re-submitting to the worker
// queues, which keeps back-pressure deadlock-free. PostRuns, PostEntries
// and BenignReads therefore match sequential detection exactly.
//
// Sharded campaigns partition by class, not by failure point: shard i of N
// owns the classes whose fingerprint F has classShard(F, N) == i, so each
// shard fingerprints every failure point it has not resumed, applies the
// rules above to the classes it owns, and delegates the rest
// (OtherShardFailurePoints). No shard needs another shard's verdict, and a
// fleet post-runs exactly the failure points one process does. Resumed
// failure points are never fingerprinted: a resumed shard's member whose
// representative a checkpoint already covered becomes the class's new
// representative. Under DisablePruning nothing is fingerprinted and
// ownership stays fp % N.

import (
	"math/bits"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/shadow"
)

// classState is the lifecycle of one crash-state class.
type classState uint8

const (
	// classUntested: no member seen yet (zero value of a fresh class).
	classUntested classState = iota
	// classTesting: the representative's post-run is in flight.
	classTesting
	// classClean: the representative completed cleanly; members are pruned.
	classClean
	// classDirty: the representative faulted, was abandoned, cancelled or
	// quarantined; every member runs its own post-failure execution.
	classDirty
)

// parkedFP is a failure point awaiting its class representative's verdict,
// with the shadow fork and image snapshot captured at its own failure
// point (so a dirty verdict can still run it exactly).
type parkedFP struct {
	id   int
	fork *shadow.PM
	snap *pmem.Snapshot
}

// crashClass is one crash-state fingerprint class.
type crashClass struct {
	state  classState
	parked []parkedFP
	fpr    uint64
}

// classShard is the shard that owns crash-state class fpr in an n-shard
// campaign: the high word of fpr·n, so the fingerprint's high bits decide.
// fpr % n would read its low bits, and FNV-1a's lowest bit is the XOR of
// its inputs' lowest bits: at n = 2 that put every class of a 654-point
// B-Tree campaign on one shard.
func classShard(fpr uint64, n int) int {
	hi, _ := bits.Mul64(fpr, uint64(n))
	return int(hi)
}

// ownsClass reports whether this run owns crash-state class fpr.
func (r *runner) ownsClass(fpr uint64) bool {
	return r.cfg.ShardCount <= 1 || classShard(fpr, r.cfg.ShardCount) == r.cfg.ShardIndex
}

// noteOtherShard accounts a failure point whose post-run belongs to
// another shard, which replays the identical pre-failure execution and
// arrives at the same failure point. Delegated, not degraded.
func (r *runner) noteOtherShard() {
	r.degradeMu.Lock()
	r.otherShardFPs++
	r.degradeMu.Unlock()
}

// pruning reports whether this run fingerprints and prunes failure points.
func (r *runner) pruning() bool {
	return r.cfg.Mode == ModeDetect && !r.cfg.DisablePruning && r.sh != nil
}

// notePostRun accounts one spawned post-failure execution; parked members
// of dirty classes run on worker goroutines, so the counter is locked.
func (r *runner) notePostRun() {
	r.degradeMu.Lock()
	r.postRuns++
	r.degradeMu.Unlock()
}

// unspawnPostRun retracts a spawned post-run that ended void — quarantined
// after its retry, or cancelled — so each failure point lands in exactly
// one Result bucket and PostRuns + PrunedFailurePoints +
// OtherShardFailurePoints + ResumedFailurePoints + SkippedFailurePoints ==
// FailurePoints even for degraded campaigns.
func (r *runner) unspawnPostRun() {
	r.degradeMu.Lock()
	r.postRuns--
	r.degradeMu.Unlock()
}

// clean reports whether a post-run outcome allows pruning its class
// members: anything other than an uneventful completion poisons the class.
func (o postOutcome) clean() bool {
	return !o.cancelled && !o.abandoned && o.err == nil
}

// enterClass fingerprints the current shadow state and files fpID into its
// class. It returns the class when fpID is its representative (the caller
// runs the post-failure execution and resolves the class afterwards), or
// handled=true when the failure point was consumed here: delegated to the
// shard owning its class, pruned against a clean class, answered from the
// verdict cache, parked behind an in-flight representative, or
// quarantined on a failing snapshot. A nil class with handled=false means
// the failure point belongs to a dirty class and runs like an unpruned
// one, with a zero fingerprint: its outcome is its own and must not speak
// for the class. (A -serve daemon caches a class from the first line
// carrying its fingerprint; after a quarantined representative, which
// writes no line, a member's clean line would otherwise cache the class
// with reports that miss what the void attempts observed.) Callers hold
// sinkMu.
func (r *runner) enterClass(fpID int) (cls *crashClass, fpr uint64, handled bool) {
	fp := r.sh.CrashFingerprint()
	if !r.ownsClass(fp) {
		r.noteOtherShard()
		return nil, fp, true
	}
	r.pruneMu.Lock()
	c := r.classes[fp]
	if c == nil {
		c = &crashClass{fpr: fp}
		r.classes[fp] = c
	}
	switch c.state {
	case classClean:
		r.prunedFPs++
		r.pruneMu.Unlock()
		// The representative already completed cleanly (and checkpointed
		// first): attribute its verdict, record coverage, run nothing.
		r.completeFP(fpID, fp, nil)
		return nil, fp, true
	case classTesting:
		// Parallel mode: the representative is still in flight. Capture
		// this failure point's own fork and snapshot now — the pre-failure
		// stage is about to move on — and park it on the class.
		snap, err := r.snapshotWithRetry()
		if err != nil {
			r.pruneMu.Unlock()
			r.noteQuarantined(fpID, err)
			return nil, fp, true
		}
		c.parked = append(c.parked, parkedFP{id: fpID, fork: r.sh.Fork(), snap: snap})
		r.pruneMu.Unlock()
		return nil, fp, true
	case classUntested:
		// First member: reserve the class, then consult the verdict cache
		// (if any) without holding pruneMu. enterClass is serialized under
		// sinkMu — parallel workers only resolve classes, never file new
		// members — so nothing can park on the class meanwhile.
		c.state = classTesting
		r.pruneMu.Unlock()
		if r.cfg.Verdicts != nil {
			if cached, ok := r.cfg.Verdicts.Lookup(fp); ok {
				// A previous campaign resolved the class cleanly; attribute
				// the verdict and re-seed its reports so this campaign's
				// merged report set matches an uncached run byte for byte.
				r.pruneMu.Lock()
				c.state = classClean
				r.cacheHitFPs++
				r.pruneMu.Unlock()
				var fresh []Report
				for _, rep := range cached {
					if r.reports.add(rep) {
						fresh = append(fresh, rep)
					}
				}
				r.completeFP(fpID, fp, fresh)
				return nil, fp, true
			}
		}
		r.pruneMu.Lock()
		r.classesTested++
		r.pruneMu.Unlock()
		return c, fp, false
	default: // classDirty
		r.pruneMu.Unlock()
		return nil, 0, false
	}
}

// resolveClass records the representative's verdict and disposes of the
// members parked behind it: a clean verdict prunes them (checkpointing
// each as covered), a dirty one runs each inline on the resolving
// goroutine. The transition is sticky — a class is resolved exactly once.
// When this process owns the class in the run's VerdictSource, the verdict
// is published with the representative's fresh reports (so a clean class's
// value-bearing reports can be re-seeded by later campaigns) — after the
// representative checkpointed, preserving PR 6's attribute-only-after-
// coverage ordering. cls is nil for non-representative post-runs.
func (r *runner) resolveClass(cls *crashClass, clean bool, fresh []Report) {
	if cls == nil {
		return
	}
	r.pruneMu.Lock()
	if cls.state != classTesting {
		r.pruneMu.Unlock()
		return
	}
	if clean {
		cls.state = classClean
		r.prunedFPs += len(cls.parked)
	} else {
		cls.state = classDirty
	}
	parked := cls.parked
	cls.parked = nil
	r.pruneMu.Unlock()
	if clean && r.cfg.Verdicts != nil {
		r.cfg.Verdicts.Store(cls.fpr, fresh)
	}
	for _, p := range parked {
		if clean {
			r.completeFP(p.id, cls.fpr, nil)
			p.fork.Release()
			continue
		}
		r.runParked(p)
	}
}

// runParked executes a parked member of a poisoned class against the fork
// and snapshot captured at its failure point, with the same
// retry-once-then-quarantine semantics as any other post-run, and — like
// every member of a dirty class — checkpoints it without a fingerprint
// (see enterClass). It runs on the goroutine that resolved the class (a
// parallel worker), inside that worker's timed window, so PostSeconds
// accounting is unchanged.
func (r *runner) runParked(p parkedFP) {
	defer p.fork.Release()
	r.notePostRun()
	out, ok := r.runAttempts(p.id, func() postOutcome {
		return r.attemptPost(p.id, p.snap, p.fork)
	})
	if !ok {
		r.unspawnPostRun()
		return
	}
	if r.engine != nil {
		r.engine.mu.Lock()
		r.engine.benign += out.benign
		r.engine.postEnts += out.ents
		r.engine.mu.Unlock()
	} else {
		r.benign += out.benign
		r.postEntries += out.ents
	}
	r.finishPost(p.id, 0, out)
}
