package serve

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/vcache"
)

// pointLine renders one per-point checkpoint line as a shard child
// streams it: failure point fp of class fpr with the reports it added.
func pointLine(t *testing.T, fp int, fpr uint64, reports ...core.Report) []byte {
	t.Helper()
	data, err := json.Marshal(ckpt.Line{FP: fp, FPrint: fpr, Reports: reports})
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func mustAppend(t *testing.T, s *Server, lease string, data []byte) {
	t.Helper()
	if err := s.AppendLines(lease, data); err != nil {
		t.Fatal(err)
	}
}

// faultReport is a post-failure fault as core puts it on a faulted
// post-run's line.
var faultReport = core.Report{Class: core.PostFailureFault, Message: "post-failure stage crashed"}

// TestClaimResolveProtocol: the first lease to claim a fingerprint owns
// the class; concurrent claimants run inline; once the owner's line lands
// without a fault, later claimants attribute — a line carrying a fault
// never lets them, and a non-owner's line for the class settles nothing.
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
	// l1 ran the class inline; its line is not the owner's and settles
	// nothing.
	mustAppend(t, s, l1.Lease, pointLine(t, 1, 7))
	if reply, _ := s.Claim(l1.Lease, 7); reply.Verdict != "run" {
		t.Fatalf("claim after a non-owner's line = %q, want run", reply.Verdict)
	}
	rep := core.Report{Class: core.CrossFailureRace, ReaderIP: "r.go:1", WriterIP: "w.go:2"}
	mustAppend(t, s, l0.Lease, pointLine(t, 0, 7, rep))
	if reply, _ := s.Claim(l1.Lease, 7); reply.Verdict != "clean" {
		t.Fatalf("claim on a clean class = %q, want clean", reply.Verdict)
	}

	// A faulted representative's line settles its class dirty, and dirty
	// classes are sticky and never attribute.
	if reply, _ := s.Claim(l0.Lease, 8); reply.Verdict != "own" {
		t.Fatal("second class not owned")
	}
	mustAppend(t, s, l0.Lease, pointLine(t, 2, 8, faultReport))
	mustAppend(t, s, l0.Lease, pointLine(t, 4, 8))
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
// the zombie's late line must bounce rather than settle the class.
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
	if err := s.AppendLines(grant.Lease, pointLine(t, 0, 7)); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("zombie line accepted (err=%v)", err)
	}
	if reply, _ := s.Claim(regrant.Lease, 9); reply.Verdict != "own" {
		t.Fatal("fresh claim on live lease failed")
	}
}

// TestVerdictsWaitForLandedLines: a class verdict reaches other shards
// only through the owner's checkpoint line. Until that line is durable in
// the daemon, another live lease is told to run the class inline; once it
// lands, the class is clean. A class whose line never landed was never
// settled: when the owner's lease expires, the next claimant owns it
// afresh instead of attributing to reports that were lost.
func TestVerdictsWaitForLandedLines(t *testing.T) {
	s, now := testServer(t, 10*time.Second)
	mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 2})
	owner := mustAcquire(t, s, "w1")
	other := mustAcquire(t, s, "w2")
	for _, fpr := range []uint64{7, 8} {
		if reply, _ := s.Claim(owner.Lease, fpr); reply.Verdict != "own" {
			t.Fatalf("claim on %d not owned", fpr)
		}
		if reply, _ := s.Claim(other.Lease, fpr); reply.Verdict != "run" {
			t.Fatalf("claim on %d before its line landed = %q, want run", fpr, reply.Verdict)
		}
	}
	mustAppend(t, s, owner.Lease, pointLine(t, 0, 7))
	if reply, _ := s.Claim(other.Lease, 7); reply.Verdict != "clean" {
		t.Fatalf("claim on 7 after its line landed = %q, want clean", reply.Verdict)
	}

	// The owner goes silent before 8's line is sent; the other lease keeps
	// heartbeating and outlives it.
	*now = now.Add(6 * time.Second)
	if err := s.Heartbeat(other.Lease); err != nil {
		t.Fatal(err)
	}
	*now = now.Add(6 * time.Second)
	for fpr, want := range map[uint64]string{7: "clean", 8: "own"} {
		if reply, _ := s.Claim(other.Lease, fpr); reply.Verdict != want {
			t.Errorf("claim on %d after the owner's lease expired = %q, want %s", fpr, reply.Verdict, want)
		}
	}
}

// TestCacheAcrossCampaigns: clean verdicts whose lines landed in one
// campaign answer claims in a later campaign with the same argument
// vector — every shard that reaches the class gets the cached reports —
// and only the same vector; a different workload or a -no-verdict-cache
// campaign runs its own representatives. Faulted lines and lines of
// unclaimed classes are never cached.
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
	for _, fpr := range []uint64{7, 9} {
		if reply, _ := s.Claim(l1.Lease, fpr); reply.Verdict != "own" {
			t.Fatalf("cold claim on %d not owned", fpr)
		}
	}
	rep := core.Report{Class: core.CrossFailureSemantic, ReaderIP: "x.go:9"}
	mustAppend(t, s, l1.Lease, pointLine(t, 0, 7, rep))
	mustAppend(t, s, l1.Lease, pointLine(t, 1, 8))              // 8 was never claimed
	mustAppend(t, s, l1.Lease, pointLine(t, 2, 9, faultReport)) // 9 went dirty
	if err := s.Finish(l1.Lease, 0, false); err != nil {
		t.Fatal(err)
	}

	// Same argv, new two-shard campaign: both shards get the verdict and
	// its report back.
	id2 := mustSubmit(t, s, CampaignSpec{Args: args, Shards: 2})
	warm := []*LeaseGrant{mustAcquire(t, s, "w1"), mustAcquire(t, s, "w2")}
	for _, l := range warm {
		reply, err := s.Claim(l.Lease, 7)
		if err != nil || reply.Verdict != "cached" {
			t.Fatalf("warm claim on lease %s = %+v, %v; want cached", l.Lease, reply, err)
		}
		if len(reply.Reports) != 1 || reply.Reports[0].DedupKey() != rep.DedupKey() {
			t.Fatalf("cached reports = %v, want the landed report back", reply.Reports)
		}
	}
	for _, fpr := range []uint64{8, 9} {
		if reply, _ := s.Claim(warm[0].Lease, fpr); reply.Verdict != "own" {
			t.Fatalf("claim on %d = %q, want own (only settled clean classes are cached)", fpr, reply.Verdict)
		}
	}
	st, _ := s.CampaignStatus(id2)
	if st.CacheHits != 2 || st.CrashStateClasses != 2 {
		t.Errorf("status cache_hits=%d crash_state_classes=%d, want 2 and 2 (cached classes stay out of the registry)",
			st.CacheHits, st.CrashStateClasses)
	}
	for _, l := range warm {
		if err := s.Finish(l.Lease, 0, false); err != nil {
			t.Fatal(err)
		}
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
	mustAppend(t, s, l4.Lease, pointLine(t, 0, 7))
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
