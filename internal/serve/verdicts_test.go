package serve

import (
	"encoding/json"
	"net/http/httptest"
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

// TestCacheAcrossCampaigns: a clean class whose first line landed in one
// campaign is handed, with its reports, to every lease of a later campaign
// with the same argument vector — one fetch per lease over the HTTP API —
// and to no other campaign. Only the first line carrying a fingerprint
// decides: a faulted first line caches nothing, later lines of a class
// change nothing (not even after a failed store), and a -no-verdict-cache
// campaign neither reads nor fills the cache.
func TestCacheAcrossCampaigns(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	dir := t.TempDir()
	cache, err := vcache.Open(filepath.Join(dir, "verdicts.cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { cache.Close() }()
	s.Cache = cache
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}
	fetch := func(lease string) map[uint64][]core.Report {
		t.Helper()
		cached, err := client.FetchVerdicts(lease)
		if err != nil {
			t.Fatal(err)
		}
		return cached
	}

	args := []string{"-workload", "btree", "-test", "50"}
	mustSubmit(t, s, CampaignSpec{Args: args, Shards: 1})
	l1 := mustAcquire(t, s, "w1")
	if cached := fetch(l1.Lease); len(cached) != 0 {
		t.Fatalf("cold cache handed out %v", cached)
	}
	rep := core.Report{Class: core.CrossFailureSemantic, ReaderIP: "x.go:9"}
	mustAppend(t, s, l1.Lease, pointLine(t, 0, 7, rep))         // clean representative
	mustAppend(t, s, l1.Lease, pointLine(t, 1, 7))              // its pruned member
	mustAppend(t, s, l1.Lease, pointLine(t, 2, 9, faultReport)) // faulted representative
	mustAppend(t, s, l1.Lease, pointLine(t, 3, 9))              // a later clean line of class 9
	mustAppend(t, s, l1.Lease, pointLine(t, 4, 0, rep))         // no fingerprint
	if err := s.Finish(l1.Lease, 0, false); err != nil {
		t.Fatal(err)
	}

	// Same argv, new two-shard campaign: each lease fetches class 7 and
	// its report, and nothing else.
	id2 := mustSubmit(t, s, CampaignSpec{Args: args, Shards: 2})
	warm := []*LeaseGrant{mustAcquire(t, s, "w1"), mustAcquire(t, s, "w2")}
	for _, l := range warm {
		v := LeaseVerdicts(fetch(l.Lease))
		reports, ok := v.Lookup(7)
		if !ok || len(reports) != 1 || reports[0].DedupKey() != rep.DedupKey() {
			t.Fatalf("lease %s: class 7 = %v, %v; want the landed report back", l.Lease, reports, ok)
		}
		for _, fpr := range []uint64{0, 9} {
			if reports, ok := v.Lookup(fpr); ok {
				t.Errorf("lease %s: class %d cached as %v; only the clean first line of a class may be", l.Lease, fpr, reports)
			}
		}
	}
	// /status sums the shard summaries: classes are disjoint across shards.
	for i, l := range warm {
		sum := ckpt.Line{FP: ckpt.SummaryFP, Total: 5, Shards: 2, Partition: core.PartitionByClass,
			Classes: 1 + i, PostRuns: 1 + i, CacheHits: 1, OtherShard: 3 - 2*i}
		data, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, s, l.Lease, append(data, '\n'))
		if err := s.Finish(l.Lease, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := s.CampaignStatus(id2); st.CacheHits != 2 || st.CrashStateClasses != 3 {
		t.Errorf("status cache_hits=%d crash_state_classes=%d, want the summaries' sums 2 and 3", st.CacheHits, st.CrashStateClasses)
	}

	// A different argv is a different program: no sharing.
	mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "hashmap", "-test", "50"}, Shards: 1})
	l3 := mustAcquire(t, s, "w1")
	if cached := fetch(l3.Lease); len(cached) != 0 {
		t.Fatalf("a different program fetched %v", cached)
	}
	// Its first line of class 13 fails to store; the member line after it
	// must not store the class with its empty report list instead.
	cache.Close()
	mustAppend(t, s, l3.Lease, pointLine(t, 0, 13, rep))
	if s.Cache, err = vcache.Open(filepath.Join(dir, "verdicts.cache")); err != nil {
		t.Fatal(err)
	}
	cache = s.Cache
	mustAppend(t, s, l3.Lease, pointLine(t, 1, 13))
	if n := len(cache.Bind(vcache.Identity("-workload", "hashmap", "-test", "50")).Entries()); n != 0 {
		t.Errorf("a member line cached its class after the representative's store failed (%d entries)", n)
	}
	if err := s.Finish(l3.Lease, 0, false); err != nil {
		t.Fatal(err)
	}

	// -no-verdict-cache opts the campaign out in both directions.
	optOut := append([]string{"-no-verdict-cache"}, args...)
	mustSubmit(t, s, CampaignSpec{Args: optOut, Shards: 1})
	l4 := mustAcquire(t, s, "w1")
	if cached := fetch(l4.Lease); len(cached) != 0 {
		t.Fatalf("opted-out campaign fetched %v", cached)
	}
	mustAppend(t, s, l4.Lease, pointLine(t, 0, 11))
	if err := s.Finish(l4.Lease, 0, false); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 1 {
		t.Errorf("cache holds %d entries, want 1 (class 7 only)", n)
	}

	// A lease the daemon does not know fetches nothing: no hits, never a
	// wrong verdict.
	if v, err := client.FetchVerdicts("l999"); err == nil || len(v) != 0 {
		t.Errorf("an unknown lease's fetch answered %v (err %v), want an error and no entries", v, err)
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
