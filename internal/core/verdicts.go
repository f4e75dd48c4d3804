package core

import "sync"

// Cross-shard and cross-campaign verdict sharing.
//
// PR 6's pruning collapses equal-fingerprint failure points within one
// process. A VerdictSource extends the same idea across processes: before
// running a class representative, the runner asks the source whether the
// fingerprint has already been resolved elsewhere — by another shard of the
// same campaign (ClassRegistry, held by the -serve daemon) or by a previous
// campaign (the on-disk verdict cache in internal/vcache). The protocol
// preserves PR 6's asymmetric verdict rule: only representatives that
// completed cleanly ever attribute across shards or campaigns; a dirty,
// cancelled, abandoned or quarantined representative forces every claimant
// to run inline.
//
// Claim is called on the pre-failure thread, once per class, after the
// class has been reserved locally (classTesting) — so a slow or remote
// source never races the parking path. The four answers:
//
//	VerdictOwn:    nobody has this class; the caller becomes the global
//	               representative, and its outcome settles the class.
//	VerdictRun:    another shard's representative is in flight (or already
//	               went dirty); run the post-failure execution inline and do
//	               NOT publish — only the owner resolves.
//	VerdictClean:  a representative elsewhere completed cleanly; attribute
//	               the verdict (CrossShardPrunedFailurePoints bucket) and
//	               run nothing.
//	VerdictCached: a previous campaign resolved the class cleanly; attribute
//	               (CacheHitFailurePoints bucket) and re-seed the cached
//	               reports so the merged report set stays byte-identical to
//	               an uncached run.
type ClassVerdict uint8

const (
	VerdictOwn ClassVerdict = iota
	VerdictRun
	VerdictClean
	VerdictCached
)

// ClassClaim is a VerdictSource's answer to Claim. Reports carries the
// class's reports for VerdictCached answers (a clean representative may
// still have observed bugs — races, semantic bugs — and a cache hit must
// not lose them); it is empty for every other verdict.
type ClassClaim struct {
	Verdict ClassVerdict
	Reports []Report
}

// VerdictSource answers crash-state class claims for one run. Claim must
// answer every fingerprint exactly once per run (the runner's local class
// map already dedups); Resolve is called only for claims answered
// VerdictOwn, after the representative's checkpoint callback, with its
// outcome and — when clean — the fresh reports it observed. A source may
// instead learn the outcome from that checkpoint line, which carries the
// same reports plus any PostFailureFault: the -serve daemon does, so a
// verdict never becomes visible before the data behind it is durable
// (serve.LeaseVerdicts.Resolve is a no-op). Implementations that cannot
// reach their backing store should fail open: answer VerdictRun and
// swallow Resolve errors, degrading to PR 6's in-process pruning, never to
// wrong verdicts.
type VerdictSource interface {
	Claim(fingerprint uint64) ClassClaim
	Resolve(fingerprint uint64, clean bool, fresh []Report)
}

// regState is the lifecycle of one registry class.
type regState uint8

const (
	regPending regState = iota // an owner's representative is in flight
	regClean                   // resolved clean; claimants attribute
	regDirty                   // resolved dirty; claimants run inline
)

type registryClass struct {
	state regState
	owner string // lease/shard that holds the pending claim
}

// attributeDirtyForTest is a deliberate soundness bug for the mutation
// battery: treat dirty resolutions as clean, attributing verdicts from
// poisoned representatives (internal/fuzzgen proves the differential
// battery catches it).
var attributeDirtyForTest = false

// SetAttributeDirtyVerdictsForTest toggles the seeded
// attribution-from-poisoned-representative mutant. Tests only.
func SetAttributeDirtyVerdictsForTest(on bool) { attributeDirtyForTest = on }

// ClassRegistry is the per-campaign cross-shard class table: the -serve
// daemon holds one per campaign, keyed by crash-state fingerprint, and the
// in-process benchmarks share one across shard runs. The first claimant of
// an unknown fingerprint becomes its owner; everyone else waits out the
// pending window (VerdictRun — claimants never block) or attributes the
// sticky clean/dirty resolution. Owners are released when their lease dies
// so an expired shard's half-run representative can be re-claimed. The
// registry keeps verdicts only: a clean class's reports live in its
// owner's checkpoint line (and, under the daemon, the verdict cache).
type ClassRegistry struct {
	mu         sync.Mutex
	classes    map[uint64]*registryClass
	attributed int // claims answered VerdictClean
}

// NewClassRegistry returns an empty registry.
func NewClassRegistry() *ClassRegistry {
	return &ClassRegistry{classes: make(map[uint64]*registryClass)}
}

// Claim files a fingerprint claim for owner. See ClassVerdict for the
// answer semantics.
func (g *ClassRegistry) Claim(owner string, fingerprint uint64) ClassClaim {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.classes[fingerprint]
	if c == nil {
		g.classes[fingerprint] = &registryClass{state: regPending, owner: owner}
		return ClassClaim{Verdict: VerdictOwn}
	}
	switch c.state {
	case regClean:
		g.attributed++
		return ClassClaim{Verdict: VerdictClean}
	default: // regPending, regDirty
		return ClassClaim{Verdict: VerdictRun}
	}
}

// Known reports whether fingerprint has a class on record, pending or
// settled.
func (g *ClassRegistry) Known(fingerprint uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.classes[fingerprint] != nil
}

// Resolve records owner's representative outcome, reporting whether the
// resolve landed as a clean class (so the daemon knows to persist it).
// Only the pending owner may resolve — a late resolve from an expired
// lease (whose class was released and possibly re-claimed) is dropped, so
// a zombie shard can never attribute. Clean and dirty are both sticky.
func (g *ClassRegistry) Resolve(owner string, fingerprint uint64, clean bool) bool {
	if attributeDirtyForTest {
		clean = true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.classes[fingerprint]
	if c == nil || c.state != regPending || c.owner != owner {
		return false
	}
	c.owner = ""
	if clean {
		c.state = regClean
		return true
	}
	c.state = regDirty
	return false
}

// ReleaseOwner drops every pending claim held by owner, so the classes an
// expired or finished lease never resolved can be claimed afresh.
func (g *ClassRegistry) ReleaseOwner(owner string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for fp, c := range g.classes {
		if c.state == regPending && c.owner == owner {
			delete(g.classes, fp)
		}
	}
}

// Stats reports the number of known classes and the number of claims
// answered with an attributed clean verdict (the /status counters).
func (g *ClassRegistry) Stats() (classes, attributed int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.classes), g.attributed
}

// Bind adapts the registry to a per-run VerdictSource under a fixed owner
// name (in-process multi-shard runs; the daemon speaks to the registry
// directly with lease IDs as owners).
func (g *ClassRegistry) Bind(owner string) VerdictSource {
	return &boundRegistry{g: g, owner: owner}
}

type boundRegistry struct {
	g     *ClassRegistry
	owner string
}

func (b *boundRegistry) Claim(fingerprint uint64) ClassClaim {
	return b.g.Claim(b.owner, fingerprint)
}

func (b *boundRegistry) Resolve(fingerprint uint64, clean bool, _ []Report) {
	b.g.Resolve(b.owner, fingerprint, clean)
}
