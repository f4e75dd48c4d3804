package serve

import (
	"fmt"
	"os"

	"github.com/pmemgo/xfdetector/internal/core"
)

// Cross-shard verdict sharing over the lease API.
//
// Every shard of a campaign enumerates the same failure points and
// computes the same crash-state fingerprints (the pre-failure execution is
// deterministic), so shards keep rediscovering each other's classes. The
// daemon holds one core.ClassRegistry per campaign; a shard child — handed
// its lease through the environment (VerdictURLEnv/VerdictLeaseEnv by the
// worker) — claims each class the first time it reaches it. The first
// claimant post-runs the representative and publishes the outcome with
// Resolve; later claimants on other shards attribute the clean verdict
// without running anything. The daemon also fronts its cross-campaign
// on-disk cache here: a claim whose (argv identity, fingerprint) pair is
// already cached is answered "cached" with the stored reports, so repeat
// campaigns skip even the first representative run.

// Environment variables the worker sets on shard children so the runner
// can reach its campaign's class registry.
const (
	VerdictURLEnv   = "XFDETECTOR_VERDICT_URL"
	VerdictLeaseEnv = "XFDETECTOR_VERDICT_LEASE"
)

// Wire verdicts for POST /leases/{id}/claim, mirroring core.ClassVerdict.
const (
	wireOwn    = "own"
	wireRun    = "run"
	wireClean  = "clean"
	wireCached = "cached"
)

// ClaimReply is the daemon's answer to a class claim. Reports is only set
// for "cached" answers (see core.ClassClaim).
type ClaimReply struct {
	Verdict string        `json:"verdict"`
	Reports []core.Report `json:"reports,omitempty"`
}

// Claim files a crash-state class claim for the lease's shard and renews
// the lease heartbeat. An "own" answer is first checked against the
// daemon's cross-campaign cache: a hit converts the fresh ownership into a
// seeded clean class and answers "cached" with the stored reports.
func (s *Server) Claim(leaseID string, fingerprint uint64) (ClaimReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	l, err := s.activeLease(leaseID)
	if err != nil {
		return ClaimReply{}, err
	}
	c := l.c
	claim := c.registry.Claim(leaseID, fingerprint)
	if claim.Verdict == core.VerdictOwn && !c.noCache && s.Cache != nil {
		if reports, ok := s.Cache.Lookup(c.identity, fingerprint); ok {
			c.registry.SeedClean(leaseID, fingerprint, reports)
			l.noteClean(fingerprint)
			c.cacheHits++
			return ClaimReply{Verdict: wireCached, Reports: reports}, nil
		}
	}
	switch claim.Verdict {
	case core.VerdictOwn:
		return ClaimReply{Verdict: wireOwn}, nil
	case core.VerdictClean:
		return ClaimReply{Verdict: wireClean}, nil
	default:
		return ClaimReply{Verdict: wireRun}, nil
	}
}

// Resolve records a representative's outcome from the owning lease and
// renews the heartbeat. Clean verdicts flow into the cross-campaign cache
// (unless the campaign opted out); the registry itself drops resolves from
// anyone but the pending owner, so a zombie lease can never attribute.
func (s *Server) Resolve(leaseID string, fingerprint uint64, clean bool, reports []core.Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	l, err := s.activeLease(leaseID)
	if err != nil {
		return err
	}
	c := l.c
	if !c.registry.Resolve(leaseID, fingerprint, clean, reports) {
		return nil
	}
	l.noteClean(fingerprint)
	if !c.noCache && s.Cache != nil {
		if err := s.Cache.Store(c.identity, fingerprint, reports); err != nil {
			s.logf("verdict cache store failed (degrading to misses): %v", err)
		}
	}
	return nil
}

// LeaseVerdicts adapts the daemon's claim API to a runner's VerdictSource:
// the shard child constructs one from VerdictURLEnv/VerdictLeaseEnv. It
// fails open — a claim the daemon cannot answer (network error, expired
// lease) degrades to VerdictRun, PR 6's in-process pruning, never to an
// unvalidated attribution.
type LeaseVerdicts struct {
	Client *Client
	Lease  string
}

// Claim asks the daemon who owns the fingerprint's class.
func (v *LeaseVerdicts) Claim(fingerprint uint64) core.ClassClaim {
	reply, err := v.Client.Claim(v.Lease, fingerprint)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xfdetector: class claim failed, running inline: %v\n", err)
		return core.ClassClaim{Verdict: core.VerdictRun}
	}
	switch reply.Verdict {
	case wireOwn:
		return core.ClassClaim{Verdict: core.VerdictOwn}
	case wireClean:
		return core.ClassClaim{Verdict: core.VerdictClean}
	case wireCached:
		return core.ClassClaim{Verdict: core.VerdictCached, Reports: reply.Reports}
	default:
		return core.ClassClaim{Verdict: core.VerdictRun}
	}
}

// Resolve publishes the representative's outcome, best-effort: a lost
// resolve leaves the class pending until the lease ends and is released.
func (v *LeaseVerdicts) Resolve(fingerprint uint64, clean bool, fresh []core.Report) {
	if err := v.Client.Resolve(v.Lease, fingerprint, clean, fresh); err != nil {
		fmt.Fprintf(os.Stderr, "xfdetector: class resolve failed (class stays pending until lease release): %v\n", err)
	}
}
