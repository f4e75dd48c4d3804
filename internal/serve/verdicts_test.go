package serve

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/vcache"
)

// TestClaimResolveProtocol: the first lease to claim a fingerprint owns
// the class; concurrent claimants run inline; once the owner resolves
// clean, later claimants attribute — and a dirty resolution never does.
func TestClaimResolveProtocol(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	id := mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 2})
	l0 := mustAcquire(t, s, "w1")
	l1 := mustAcquire(t, s, "w2")

	reply, err := s.Claim(l0.Lease, 7)
	if err != nil || reply.Verdict != "own" {
		t.Fatalf("first claim = %+v, %v; want own", reply, err)
	}
	if reply, _ := s.Claim(l1.Lease, 7); reply.Verdict != "run" {
		t.Fatalf("claim on a pending class = %q, want run (claimants never block)", reply.Verdict)
	}
	rep := core.Report{Class: core.CrossFailureRace, ReaderIP: "r.go:1", WriterIP: "w.go:2"}
	if err := s.Resolve(l0.Lease, 7, true, []core.Report{rep}); err != nil {
		t.Fatal(err)
	}
	if reply, _ := s.Claim(l1.Lease, 7); reply.Verdict != "clean" {
		t.Fatalf("claim on a clean class = %q, want clean", reply.Verdict)
	}

	// Dirty classes are sticky and never attribute.
	if reply, _ := s.Claim(l0.Lease, 8); reply.Verdict != "own" {
		t.Fatal("second class not owned")
	}
	if err := s.Resolve(l0.Lease, 8, false, nil); err != nil {
		t.Fatal(err)
	}
	if reply, _ := s.Claim(l1.Lease, 8); reply.Verdict != "run" {
		t.Fatalf("claim on a dirty class = %q, want run", reply.Verdict)
	}

	st, err := s.CampaignStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.CrashStateClasses != 2 || st.CrossShardPruned != 1 {
		t.Errorf("status classes=%d cross_shard_pruned=%d, want 2 and 1",
			st.CrashStateClasses, st.CrossShardPruned)
	}
}

// TestExpiredLeaseReleasesClaims: a lease that dies holding pending claims
// must not wedge its classes — the replacement lease re-claims them — and
// the zombie's late resolve must bounce rather than attribute.
func TestExpiredLeaseReleasesClaims(t *testing.T) {
	s, now := testServer(t, 10*time.Second)
	mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1})
	grant := mustAcquire(t, s, "w1")
	if reply, _ := s.Claim(grant.Lease, 7); reply.Verdict != "own" {
		t.Fatal("first claim not owned")
	}

	*now = now.Add(11 * time.Second) // worker goes silent; lease expires
	regrant := mustAcquire(t, s, "w2")
	if reply, _ := s.Claim(regrant.Lease, 7); reply.Verdict != "own" {
		t.Fatal("released class not re-claimable; the campaign would stall on a dead representative")
	}
	if err := s.Resolve(grant.Lease, 7, true, nil); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("zombie resolve accepted (err=%v)", err)
	}
	if reply, _ := s.Claim(regrant.Lease, 9); reply.Verdict != "own" {
		t.Fatal("fresh claim on live lease failed")
	}
}

// TestEndedLeaseRevokesUnlandedVerdicts: a shard child's resolve reaches
// the daemon directly, while its checkpoint lines travel through the
// worker. A lease that dies after resolving a class clean but before the
// line carrying the representative's reports arrived must leave that
// class re-claimable: the rescheduled attempt re-runs the representative
// instead of attributing to reports that were lost. Classes whose line
// landed, before or after the resolve, stay clean.
func TestEndedLeaseRevokesUnlandedVerdicts(t *testing.T) {
	s, now := testServer(t, 10*time.Second)
	mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1})
	grant := mustAcquire(t, s, "w1")
	for _, fpr := range []uint64{7, 8, 9} {
		if reply, _ := s.Claim(grant.Lease, fpr); reply.Verdict != "own" {
			t.Fatalf("claim on %d not owned", fpr)
		}
	}
	// 7's line lands before its resolve, 8's after; 9's never does.
	if err := s.AppendLines(grant.Lease, []byte("{\"fp\":0,\"fpr\":7}\n")); err != nil {
		t.Fatal(err)
	}
	for _, fpr := range []uint64{7, 8, 9} {
		if err := s.Resolve(grant.Lease, fpr, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendLines(grant.Lease, []byte("{\"fp\":1,\"fpr\":8}\n")); err != nil {
		t.Fatal(err)
	}

	*now = now.Add(11 * time.Second) // worker goes silent; lease expires
	regrant := mustAcquire(t, s, "w2")
	for fpr, want := range map[uint64]string{7: "clean", 8: "clean", 9: "own"} {
		if reply, _ := s.Claim(regrant.Lease, fpr); reply.Verdict != want {
			t.Errorf("claim on %d after the lease died = %q, want %s", fpr, reply.Verdict, want)
		}
	}
}

// TestCacheAcrossCampaigns: clean verdicts resolved in one campaign answer
// claims in a later campaign with the same argument vector — and only the
// same vector; a different workload or a -no-verdict-cache campaign runs
// its own representatives.
func TestCacheAcrossCampaigns(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	cache, err := vcache.Open(filepath.Join(t.TempDir(), "verdicts.cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	s.Cache = cache

	args := []string{"-workload", "btree", "-test", "50"}
	mustSubmit(t, s, CampaignSpec{Args: args, Shards: 1})
	l1 := mustAcquire(t, s, "w1")
	if reply, _ := s.Claim(l1.Lease, 7); reply.Verdict != "own" {
		t.Fatal("cold claim not owned")
	}
	rep := core.Report{Class: core.CrossFailureSemantic, ReaderIP: "x.go:9"}
	if err := s.Resolve(l1.Lease, 7, true, []core.Report{rep}); err != nil {
		t.Fatal(err)
	}
	if err := s.Resolve(l1.Lease, 8, true, nil); err != nil {
		t.Fatal(err) // never claimed: dropped by the registry, must not be cached
	}
	if err := s.Finish(l1.Lease, 0, false); err != nil {
		t.Fatal(err)
	}

	// Same argv, new campaign: the verdict and its report come back.
	id2 := mustSubmit(t, s, CampaignSpec{Args: args, Shards: 1})
	l2 := mustAcquire(t, s, "w1")
	reply, err := s.Claim(l2.Lease, 7)
	if err != nil || reply.Verdict != "cached" {
		t.Fatalf("warm claim = %+v, %v; want cached", reply, err)
	}
	if len(reply.Reports) != 1 || reply.Reports[0].DedupKey() != rep.DedupKey() {
		t.Fatalf("cached reports = %v, want the resolved report back", reply.Reports)
	}
	if reply, _ := s.Claim(l2.Lease, 8); reply.Verdict != "own" {
		t.Fatalf("unresolved fingerprint = %q, want own (zombie resolves are never cached)", reply.Verdict)
	}
	if st, _ := s.CampaignStatus(id2); st.CacheHits != 1 {
		t.Errorf("status cache_hits = %d, want 1", st.CacheHits)
	}
	if err := s.Finish(l2.Lease, 0, false); err != nil {
		t.Fatal(err)
	}

	// A different argv is a different program: no sharing.
	mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "hashmap", "-test", "50"}, Shards: 1})
	l3 := mustAcquire(t, s, "w1")
	if reply, _ := s.Claim(l3.Lease, 7); reply.Verdict != "own" {
		t.Fatalf("cross-program claim = %q, want own", reply.Verdict)
	}
	if err := s.Finish(l3.Lease, 0, false); err != nil {
		t.Fatal(err)
	}

	// -no-verdict-cache opts the campaign out in both directions.
	optOut := append([]string{"-no-verdict-cache"}, args...)
	mustSubmit(t, s, CampaignSpec{Args: optOut, Shards: 1})
	l4 := mustAcquire(t, s, "w1")
	if reply, _ := s.Claim(l4.Lease, 7); reply.Verdict != "own" {
		t.Fatalf("opted-out claim = %q, want own", reply.Verdict)
	}
	if err := s.Resolve(l4.Lease, 7, true, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(l4.Lease, 0, false); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, CampaignSpec{Args: optOut, Shards: 1})
	l5 := mustAcquire(t, s, "w1")
	if reply, _ := s.Claim(l5.Lease, 7); reply.Verdict != "own" {
		t.Fatalf("second opted-out campaign = %q, want own (its verdicts were never cached)", reply.Verdict)
	}
}

// TestPoolFileCapabilityGating: file-backed campaigns only lease to
// workers advertising the capability, and their grants carry a per-shard
// pool file under the campaign directory.
func TestPoolFileCapabilityGating(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1, PoolFile: true})

	if grant, _ := s.Acquire("plain"); grant != nil {
		t.Fatalf("capless worker leased a file-backed shard: %+v", grant)
	}
	grant, err := s.Acquire("capable", CapFileBacked)
	if err != nil || grant == nil {
		t.Fatalf("capable worker got no lease: %v", err)
	}
	args := strings.Join(grant.Args, " ")
	if !strings.Contains(args, "-pool-file") || !strings.Contains(args, "shard0.pool") {
		t.Errorf("file-backed grant args %q missing the per-shard -pool-file", args)
	}

	// A capless worker still serves campaigns with no demands.
	mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "hashmap"}, Shards: 1})
	plain, err := s.Acquire("plain")
	if err != nil || plain == nil {
		t.Fatalf("capless worker starved despite a plain campaign: %v", err)
	}
	if strings.Contains(strings.Join(plain.Args, " "), "-pool-file") {
		t.Errorf("plain grant args %q carry -pool-file", plain.Args)
	}
}
