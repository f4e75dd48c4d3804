package serve

import (
	"fmt"
	"os"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
)

// Cross-campaign verdict reuse over the lease API.
//
// Shards of one campaign share no verdicts: each owns whole crash-state
// classes (core's class sharding), so the daemon keeps no class table. What
// it fronts is its cross-campaign on-disk cache. A shard child — handed its
// lease through the environment (VerdictURLEnv/VerdictLeaseEnv, set by the
// worker) — fetches its campaign's cached entries once, when it starts
// (GET /leases/{id}/verdicts). The cache grows from the checkpoint
// stream: AppendLines stores a class from the first landed, fsynced line
// carrying its fingerprint, the owner's representative line, which comes
// before any member's. A faulted representative's line carries its
// PostFailureFault and stores nothing, and members of a dirty class carry
// no fingerprint.

// Environment variables the worker sets on shard children so the runner
// can fetch its campaign's cached verdicts.
const (
	VerdictURLEnv   = "XFDETECTOR_VERDICT_URL"
	VerdictLeaseEnv = "XFDETECTOR_VERDICT_LEASE"
)

// CachedVerdicts validates a lease (renewing its heartbeat) and returns
// every cache entry for its campaign's identity, keyed by fingerprint —
// none when the daemon has no cache or the campaign opted out with
// -no-verdict-cache.
func (s *Server) CachedVerdicts(leaseID string) (map[uint64][]core.Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	l, err := s.activeLease(leaseID)
	if err != nil {
		return nil, err
	}
	if l.c.noCache || s.Cache == nil {
		return nil, nil
	}
	return s.Cache.Entries(l.c.identity), nil
}

// storeLineLocked caches the class of a landed per-point line when the
// line is the first of this campaign to carry its fingerprint and holds no
// PostFailureFault (core puts a faulted post-run's fault on its own line
// even when already reported). Later lines with the same fingerprint —
// pruned members, cache hits, a resumed shard's second representative —
// change nothing, so a failed store is not retried with a member's empty
// report list. Lines without a fingerprint (summaries, -no-prune runs,
// members of dirty classes) are skipped, and so is everything when the
// daemon holds no cache or the campaign opted out.
func (s *Server) storeLineLocked(c *campaign, line ckpt.Line) {
	if line.FPrint == 0 || c.noCache || s.Cache == nil || c.settled[line.FPrint] {
		return
	}
	c.settled[line.FPrint] = true
	for _, rep := range line.Reports {
		if rep.Class == core.PostFailureFault {
			return
		}
	}
	if err := s.Cache.Store(c.identity, line.FPrint, line.Reports); err != nil {
		s.logf("verdict cache store failed (degrading to misses): %v", err)
	}
}

// LeaseVerdicts is a shard child's core.VerdictSource: its campaign's
// cached verdicts by fingerprint, fetched once from the daemon when the
// child starts. A failed fetch leaves it empty — every lookup misses,
// never a wrong verdict. Store is a no-op: the daemon caches each clean
// class from the representative's checkpoint line (see
// Server.AppendLines).
type LeaseVerdicts map[uint64][]core.Report

// FetchLeaseVerdicts fetches the lease's cached verdicts. On failure it
// says so on stderr and returns an empty source.
func FetchLeaseVerdicts(client *Client, lease string) LeaseVerdicts {
	cached, err := client.FetchVerdicts(lease)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xfdetector: fetching cached verdicts failed, running without them: %v\n", err)
		return nil
	}
	return cached
}

// Lookup answers from the fetched entries.
func (v LeaseVerdicts) Lookup(fingerprint uint64) ([]core.Report, bool) {
	reports, ok := v[fingerprint]
	return reports, ok
}

// Store is a no-op; see LeaseVerdicts.
func (LeaseVerdicts) Store(uint64, []core.Report) {}
