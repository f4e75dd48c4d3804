package serve

import "github.com/pmemgo/xfdetector/internal/core"

// Cross-campaign verdict reuse over the lease API.
//
// Shards of one campaign share no verdicts: each owns whole crash-state
// classes (core's class sharding), so the daemon keeps no class table. What
// it fronts is its cross-campaign on-disk cache. A shard child — handed its
// lease through the environment (VerdictURLEnv/VerdictLeaseEnv, set by the
// worker) — fetches its campaign's cached entries once, when it starts
// (GET /leases/{id}/verdicts). The cache grows from the checkpoint
// stream: AppendLines feeds every landed, fsynced line to the campaign's
// vcache.Binding, whose one rule (Binding.Add) the standalone CLI follows
// too.

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
	if l.c.verdicts == nil {
		return nil, nil
	}
	return l.c.verdicts.Entries(), nil
}

// LeaseVerdicts is a shard child's core.VerdictSource: its campaign's
// cached verdicts by fingerprint, fetched once from the daemon when the
// child starts. A failed fetch leaves it empty — every lookup misses,
// never a wrong verdict. The daemon caches each clean class from the
// representative's checkpoint line (see Server.AppendLines).
type LeaseVerdicts map[uint64][]core.Report

// Lookup answers from the fetched entries.
func (v LeaseVerdicts) Lookup(fingerprint uint64) ([]core.Report, bool) {
	reports, ok := v[fingerprint]
	return reports, ok
}
