package serve

import (
	"fmt"
	"os"

	"github.com/pmemgo/xfdetector/internal/ckpt"
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
// claimant post-runs the representative; later claimants on other shards
// attribute the clean verdict without running anything. The verdict has
// exactly one way in: the representative's checkpoint line, which travels
// through the worker like every other line. AppendLines settles the class
// once that line is durable in the daemon-held checkpoint, so no claimant
// ever attributes to reports the daemon does not hold. The daemon also
// fronts its cross-campaign on-disk cache here: a claim on a class this
// campaign has not seen, whose (argv identity, fingerprint) pair is
// cached, is answered "cached" with the stored reports, so repeat
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
// the lease heartbeat. A fingerprint this campaign has not seen is first
// looked up in the daemon's cross-campaign cache; a hit is answered
// "cached" with the stored reports and never enters the registry, so every
// shard reaching the class re-seeds those reports itself.
func (s *Server) Claim(leaseID string, fingerprint uint64) (ClaimReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	l, err := s.activeLease(leaseID)
	if err != nil {
		return ClaimReply{}, err
	}
	c := l.c
	if !c.noCache && s.Cache != nil && !c.registry.Known(fingerprint) {
		if reports, ok := s.Cache.Lookup(c.identity, fingerprint); ok {
			c.cacheHits++
			return ClaimReply{Verdict: wireCached, Reports: reports}, nil
		}
	}
	switch c.registry.Claim(leaseID, fingerprint).Verdict {
	case core.VerdictOwn:
		return ClaimReply{Verdict: wireOwn}, nil
	case core.VerdictClean:
		return ClaimReply{Verdict: wireClean}, nil
	default:
		return ClaimReply{Verdict: wireRun}, nil
	}
}

// resolveLineLocked lets a landed per-point line settle its class when the
// line's lease holds the class's pending claim: dirty if the line carries
// a PostFailureFault (core puts a faulted post-run's fault on its own line
// even when already reported), clean otherwise, with the line's reports
// stored in the cross-campaign cache unless the campaign opted out. Lines
// without a fingerprint (summaries, -no-prune runs), lines from
// non-owners, and the owner's later lines for a settled class change
// nothing.
func (s *Server) resolveLineLocked(l *lease, line ckpt.Line) {
	if line.FPrint == 0 {
		return
	}
	clean := true
	for _, rep := range line.Reports {
		if rep.Class == core.PostFailureFault {
			clean = false
			break
		}
	}
	c := l.c
	if !c.registry.Resolve(l.id, line.FPrint, clean) || c.noCache || s.Cache == nil {
		return
	}
	if err := s.Cache.Store(c.identity, line.FPrint, line.Reports); err != nil {
		s.logf("verdict cache store failed (degrading to misses): %v", err)
	}
}

// LeaseVerdicts adapts the daemon's claim API to a runner's VerdictSource:
// the shard child constructs one from VerdictURLEnv/VerdictLeaseEnv. It
// only claims; the daemon reads each owned class's verdict off the
// representative's checkpoint line. It fails open — a claim the daemon
// cannot answer (network error, expired lease) degrades to VerdictRun,
// PR 6's in-process pruning, never to an unvalidated attribution.
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

// Resolve is a no-op: the representative's outcome reaches the daemon on
// its checkpoint line, which the worker streams (see Server.AppendLines).
func (v *LeaseVerdicts) Resolve(uint64, bool, []core.Report) {}
