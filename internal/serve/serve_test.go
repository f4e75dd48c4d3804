package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pmemgo/xfdetector/internal/ckpt"
)

// Scheduler tests drive the Server in-process with an injected clock: the
// lease state machine (grant, heartbeat, expiry, reschedule-with-resume,
// attempts exhaustion) must be deterministic without any real waiting.

// testServer returns a daemon with a controllable clock.
func testServer(t *testing.T, ttl time.Duration) (*Server, *time.Time) {
	t.Helper()
	now := time.Unix(1000, 0)
	s := NewServer(t.TempDir(), ttl)
	s.Logf = t.Logf
	s.now = func() time.Time { return now }
	return s, &now
}

func mustSubmit(t *testing.T, s *Server, spec CampaignSpec) string {
	t.Helper()
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustAcquire(t *testing.T, s *Server, worker string) *LeaseGrant {
	t.Helper()
	grant, err := s.Acquire(worker)
	if err != nil {
		t.Fatal(err)
	}
	if grant == nil {
		t.Fatal("no lease granted")
	}
	return grant
}

// TestSubmitValidation: the daemon owns shard layout and checkpoint
// transport, so submissions carrying those flags — in either of Go's
// -name and --name spellings — or no shards are rejected.
func TestSubmitValidation(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	if _, err := s.Submit(CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 0}); err == nil {
		t.Error("zero shards accepted")
	}
	for _, bad := range [][]string{
		{"-checkpoint", "x.ckpt"},
		{"-shards", "3"},
		{"-spawn", "2"},
		{"-resume"},
		{"-checkpoint=-"},
		{"--checkpoint", "x.ckpt"},
		{"--keys-out=/tmp/k"},
		{"--pool-file", "/tmp/p"},
		{"--record=/tmp/r"},
	} {
		if _, err := s.Submit(CampaignSpec{Args: bad, Shards: 1}); err == nil {
			t.Errorf("submission with %v accepted; the daemon owns that flag", bad)
		}
	}
}

// TestSpecHasFlag: the daemon's boolean-flag probe reads every spelling
// Go's flag package accepts, so a --no-fast-forward campaign is not
// recorded and a --no-verdict-cache campaign skips the cache.
func TestSpecHasFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{[]string{"-no-fast-forward"}, true},
		{[]string{"--no-fast-forward"}, true},
		{[]string{"--no-fast-forward=true"}, true},
		{[]string{"-no-fast-forward=false"}, false},
		{[]string{"--no-fast-forward=false"}, false},
		{[]string{"-workload", "btree"}, false},
	} {
		if got := specHasFlag(tc.args, "-no-fast-forward"); got != tc.want {
			t.Errorf("specHasFlag(%q, -no-fast-forward) = %v, want %v", tc.args, got, tc.want)
		}
	}
}

// TestLeaseGrantArgs: a grant carries the full child argument vector —
// shard layout, -checkpoint - for the stdout stream, -resume only on
// reschedule.
func TestLeaseGrantArgs(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	id := mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree", "-test", "5"}, Shards: 2})

	grant := mustAcquire(t, s, "w1")
	if grant.Campaign != id || grant.Shard != 0 || grant.Shards != 2 || grant.Resume {
		t.Fatalf("first grant = %+v, want shard 0/2, fresh", grant)
	}
	args := strings.Join(grant.Args, " ")
	for _, want := range []string{"-workload btree", "-shards 2", "-shard-index 0", "-checkpoint -"} {
		if !strings.Contains(args, want) {
			t.Errorf("grant args %q missing %q", args, want)
		}
	}
	if strings.Contains(args, "-resume") {
		t.Errorf("fresh grant args %q carry -resume", args)
	}
	if grant.Checkpoint != "" {
		t.Errorf("fresh grant carries a checkpoint (%d bytes)", len(grant.Checkpoint))
	}

	second := mustAcquire(t, s, "w2")
	if second.Shard != 1 {
		t.Errorf("second grant = shard %d, want 1", second.Shard)
	}
	if third, _ := s.Acquire("w3"); third != nil {
		t.Errorf("third grant = %+v, want nothing schedulable", third)
	}
}

// TestSingleShardCampaignArgs: an unsharded campaign's child must not
// carry a shard layout (the single-process path has no -shards 1 mode).
func TestSingleShardCampaignArgs(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1})
	grant := mustAcquire(t, s, "w1")
	if args := strings.Join(grant.Args, " "); strings.Contains(args, "-shards") {
		t.Errorf("single-shard grant args %q carry a shard layout", args)
	}
}

// TestLeaseExpiryReschedulesWithResume: a missed heartbeat deadline
// expires the lease; the next acquire re-grants the shard with -resume
// and the daemon-held checkpoint, and the zombie's writes are rejected.
func TestLeaseExpiryReschedulesWithResume(t *testing.T) {
	s, now := testServer(t, 10*time.Second)
	id := mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1})

	grant := mustAcquire(t, s, "w1")
	lines := "{\"fp\":0}\n{\"fp\":1,\"reports\":[{\"Class\":0,\"ReaderIP\":\"r.go:1\",\"WriterIP\":\"w.go:2\"}]}\n"
	if err := s.AppendLines(grant.Lease, []byte(lines)); err != nil {
		t.Fatal(err)
	}

	// Heartbeats renew the deadline: 8s + 8s crosses the original 10s TTL
	// but not the renewed one.
	*now = now.Add(8 * time.Second)
	if err := s.Heartbeat(grant.Lease); err != nil {
		t.Fatalf("heartbeat within TTL: %v", err)
	}
	*now = now.Add(8 * time.Second)
	if err := s.Heartbeat(grant.Lease); err != nil {
		t.Fatalf("renewed heartbeat: %v", err)
	}

	// Silence past the TTL: the lease dies, the shard is rescheduled.
	*now = now.Add(11 * time.Second)
	regrant := mustAcquire(t, s, "w2")
	if regrant.Shard != 0 || !regrant.Resume {
		t.Fatalf("regrant = %+v, want shard 0 with -resume", regrant)
	}
	if regrant.Checkpoint != lines {
		t.Errorf("regrant checkpoint = %q, want the streamed lines back", regrant.Checkpoint)
	}
	if args := strings.Join(regrant.Args, " "); !strings.Contains(args, "-resume") {
		t.Errorf("regrant args %q missing -resume", args)
	}

	// The first worker is a zombie now; its stream and completion must
	// bounce so the accounting cannot double-count.
	if err := s.AppendLines(grant.Lease, []byte("{\"fp\":2}\n")); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("zombie lines accepted (err=%v)", err)
	}
	if err := s.Finish(grant.Lease, 0, false); !errors.Is(err, ErrLeaseGone) {
		t.Errorf("zombie finish accepted (err=%v)", err)
	}

	st, err := s.CampaignStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Covered != 2 || st.Reports != 1 {
		t.Errorf("status covered=%d reports=%d, want 2 and 1", st.Covered, st.Reports)
	}
	if sh := st.ShardStates[0]; sh.Attempts != 2 || !sh.Resume {
		t.Errorf("shard state = %+v, want attempt 2 with resume", sh)
	}
}

// TestCrashExitReschedules: a child killed by a signal (exit -1) is a
// crash — rescheduled with -resume — while a clean exit finalizes the
// shard and completes the campaign.
func TestCrashExitReschedules(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	id := mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1})

	grant := mustAcquire(t, s, "w1")
	if err := s.AppendLines(grant.Lease, []byte("{\"fp\":0}\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(grant.Lease, -1, false); err != nil {
		t.Fatal(err)
	}
	regrant := mustAcquire(t, s, "w1")
	if !regrant.Resume || regrant.Checkpoint == "" {
		t.Fatalf("post-crash regrant = %+v, want -resume with held checkpoint", regrant)
	}
	summary := "{\"fp\":-1,\"total\":1,\"resumed\":1}\n"
	if err := s.AppendLines(regrant.Lease, []byte(summary)); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(regrant.Lease, 0, false); err != nil {
		t.Fatal(err)
	}

	st, err := s.CampaignStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.ExitCode != 0 || st.Incomplete {
		t.Fatalf("campaign = %+v, want done exit 0", st)
	}
	if st.Buckets.Resumed != 1 || st.Buckets.PostRuns != 0 {
		t.Errorf("buckets = %+v, want resumed=1 post_runs=0 from the final summary", st.Buckets)
	}
}

// TestAttemptsExhaustion: a shard whose every incarnation dies is
// finalized as given-up (exit 3) after MaxAttempts, and the campaign
// completes Incomplete through the coverage check instead of spinning.
func TestAttemptsExhaustion(t *testing.T) {
	s, now := testServer(t, 10*time.Second)
	s.MaxAttempts = 3
	id := mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1})

	for attempt := 1; attempt <= 3; attempt++ {
		grant := mustAcquire(t, s, fmt.Sprintf("w%d", attempt))
		if grant.Resume != (attempt > 1) {
			t.Errorf("attempt %d resume=%v", attempt, grant.Resume)
		}
		*now = now.Add(11 * time.Second) // every worker goes silent
	}
	if grant, _ := s.Acquire("w4"); grant != nil {
		t.Fatalf("grant after exhausted attempts: %+v", grant)
	}

	st, err := s.CampaignStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.ExitCode != 3 || !st.Incomplete {
		t.Fatalf("campaign = state %s exit %d incomplete %v, want done/3/true", st.State, st.ExitCode, st.Incomplete)
	}
	sh := st.ShardStates[0]
	if !sh.GaveUp || sh.ExitCode != 3 || sh.Attempts != 3 {
		t.Errorf("shard state = %+v, want gave-up exit 3 after 3 attempts", sh)
	}
}

// TestUsageErrorFailsCampaign: exit 2 would fail every incarnation alike
// (a config error), so it fails the campaign instead of burning attempts.
func TestUsageErrorFailsCampaign(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	id := mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 2})
	grant := mustAcquire(t, s, "w1")
	if err := s.Finish(grant.Lease, 2, false); err != nil {
		t.Fatal(err)
	}
	st, err := s.CampaignStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || st.ExitCode != 2 || st.Failure == "" {
		t.Fatalf("campaign = %+v, want failed with exit 2 and a reason", st)
	}
	if grant, _ := s.Acquire("w2"); grant != nil {
		t.Errorf("failed campaign still schedules shards: %+v", grant)
	}
}

// TestReleaseReschedulesImmediately: worker-initiated teardown (shutdown)
// releases the lease so the shard reschedules without waiting out the
// TTL.
func TestReleaseReschedulesImmediately(t *testing.T) {
	s, _ := testServer(t, time.Hour) // TTL long enough that only release can free it
	mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1})
	grant := mustAcquire(t, s, "w1")
	if err := s.Finish(grant.Lease, 3, true); err != nil {
		t.Fatal(err)
	}
	regrant := mustAcquire(t, s, "w2")
	if regrant.Shard != 0 || !regrant.Resume {
		t.Fatalf("regrant after release = %+v, want shard 0 with -resume", regrant)
	}
}

// TestAppendLinesDurable: streamed lines land in the per-shard daemon
// file — the state a reschedule resumes from must survive a daemon crash
// too.
func TestAppendLinesDurable(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	id := mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1})
	grant := mustAcquire(t, s, "w1")
	if err := s.AppendLines(grant.Lease, []byte("{\"fp\":0}\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLines(grant.Lease, []byte("{\"fp\":1}\n")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.byID[id].shards[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{\"fp\":0}\n{\"fp\":1}\n" {
		t.Errorf("daemon-held checkpoint = %q", data)
	}
}

// TestAppendLinesDropsTornFragment: a shard child SIGKILLed mid-write
// leaves a torn final line, which the worker's chunk reader sends
// newline-terminated. The daemon neither writes nor merges it, so the next
// chunk — the rescheduled shard rerunning that failure point — lands after
// whole lines, and the held checkpoint a further reschedule resumes from
// still loads.
func TestAppendLinesDropsTornFragment(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	id := mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1})
	grant := mustAcquire(t, s, "w1")
	if err := s.AppendLines(grant.Lease, []byte("{\"fp\":0}\n{\"fp\":1}\n{\"fp\":2,\"fpr\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(grant.Lease, -1, false); err != nil { // the child died
		t.Fatal(err)
	}
	regrant := mustAcquire(t, s, "w2")
	if err := s.AppendLines(regrant.Lease, []byte("{\"fp\":2}\n{\"fp\":3}\n")); err != nil {
		t.Fatal(err)
	}
	path := s.byID[id].shards[0].path
	if data, err := os.ReadFile(path); err != nil || string(data) != "{\"fp\":0}\n{\"fp\":1}\n{\"fp\":2}\n{\"fp\":3}\n" {
		t.Fatalf("daemon-held checkpoint = %q (err %v), want the four whole lines", data, err)
	}
	if st, _ := s.CampaignStatus(id); st.Covered != 4 || st.ShardStates[0].Lines != 4 {
		t.Errorf("merged %d failure point(s) from %d line(s), want 4 and 4", st.Covered, st.ShardStates[0].Lines)
	}
	if err := s.Finish(regrant.Lease, -1, false); err != nil {
		t.Fatal(err)
	}
	held := mustAcquire(t, s, "w3")
	lines, err := ckpt.Read(strings.NewReader(held.Checkpoint), "held")
	if err != nil || len(lines) != 4 {
		t.Fatalf("held checkpoint loads %d line(s) (err %v), want 4", len(lines), err)
	}
}

// TestAcquireRoundRobinAcrossCampaigns: concurrent runnable campaigns
// share the worker fleet — each grant starts the next scan one past the
// granting campaign, so leases alternate instead of draining campaigns in
// strict submission order. The injected clock then expires a lease and the
// rescheduled shard rejoins the same rotation with -resume.
func TestAcquireRoundRobinAcrossCampaigns(t *testing.T) {
	s, now := testServer(t, time.Minute)
	c1 := mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 2})
	c2 := mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "ctree"}, Shards: 2})

	var order []string
	var grants []*LeaseGrant
	for i := 0; i < 4; i++ {
		g := mustAcquire(t, s, fmt.Sprintf("w%d", i))
		order = append(order, fmt.Sprintf("%s/%d", g.Campaign, g.Shard))
		grants = append(grants, g)
	}
	want := []string{c1 + "/0", c2 + "/0", c1 + "/1", c2 + "/1"}
	if got := strings.Join(order, " "); got != strings.Join(want, " ") {
		t.Fatalf("grant order = %s, want round-robin %s", got, strings.Join(want, " "))
	}
	if g, _ := s.Acquire("w9"); g != nil {
		t.Fatalf("fifth grant = %+v, want nothing schedulable", g)
	}

	// Expire only c1/0 (the others heartbeat); its reschedule must be the
	// only grantable shard and must carry -resume.
	*now = now.Add(45 * time.Second)
	for _, g := range grants[1:] {
		if err := s.Heartbeat(g.Lease); err != nil {
			t.Fatal(err)
		}
	}
	*now = now.Add(30 * time.Second)
	regrant := mustAcquire(t, s, "w9")
	if regrant.Campaign != c1 || regrant.Shard != 0 || !regrant.Resume {
		t.Fatalf("post-expiry regrant = %+v, want campaign %s shard 0 with -resume", regrant, c1)
	}
	if err := s.Heartbeat(grants[0].Lease); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("zombie heartbeat error = %v, want ErrLeaseGone", err)
	}
}

// TestRecordingCampaignNotLeased: while the record-once pass runs, the
// campaign's shards must not lease (a shard started live would duplicate
// the pre-failure work the artifact is about to make redundant); once the
// recording resolves, grants carry Artifact=true. A submission carrying
// -no-fast-forward skips recording entirely and leases immediately.
func TestRecordingCampaignNotLeased(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	release := make(chan struct{})
	done := make(chan struct{})
	s.Record = func(dir string, args []string) (string, error) {
		defer close(done)
		<-release
		return dir + "/campaign.xfdr", nil
	}

	mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1})
	if g, _ := s.Acquire("w1"); g != nil {
		t.Fatalf("grant while recording = %+v, want nothing schedulable", g)
	}
	close(release)
	<-done
	// recordCampaign publishes the artifact under the lock after Record
	// returns; one more lock round-trip orders this Acquire after it.
	deadline := time.Now().Add(5 * time.Second)
	var grant *LeaseGrant
	for grant == nil && time.Now().Before(deadline) {
		grant, _ = s.Acquire("w1")
	}
	if grant == nil {
		t.Fatal("no lease granted after recording resolved")
	}
	if !grant.Artifact {
		t.Error("grant after recording has Artifact=false, want true")
	}

	// -no-fast-forward: no record pass, immediate lease, no artifact.
	s.Record = func(dir string, args []string) (string, error) {
		t.Error("record pass launched for a -no-fast-forward submission")
		return "", nil
	}
	mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree", "-no-fast-forward"}, Shards: 1})
	g2 := mustAcquire(t, s, "w2")
	if g2.Artifact {
		t.Error("-no-fast-forward grant has Artifact=true, want false")
	}
}

// TestFailedRecordingFallsBackToLive: a failed record pass is not fatal —
// the shards lease normally, just without an artifact.
func TestFailedRecordingFallsBackToLive(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	done := make(chan struct{})
	s.Record = func(dir string, args []string) (string, error) {
		defer close(done)
		return "", fmt.Errorf("record child: boom")
	}
	mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1})
	<-done
	deadline := time.Now().Add(5 * time.Second)
	var grant *LeaseGrant
	for grant == nil && time.Now().Before(deadline) {
		grant, _ = s.Acquire("w1")
	}
	if grant == nil {
		t.Fatal("no lease granted after failed recording")
	}
	if grant.Artifact {
		t.Error("failed recording still advertised an artifact")
	}
}

// TestSubmitNeverReusesCampaignDir: a daemon restarted over the same
// workdir must not put a new campaign into a directory an earlier
// lifetime left behind — shard files are appended to, so a rescheduled
// shard would -resume from the old campaign's failure points.
func TestSubmitNeverReusesCampaignDir(t *testing.T) {
	s, _ := testServer(t, time.Minute)
	old := filepath.Join(s.Workdir, "c1")
	foreign := "{\"fp\":7}\n{\"fp\":8}\n"
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "shard0.ckpt"), []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}

	id := mustSubmit(t, s, CampaignSpec{Args: []string{"-workload", "btree"}, Shards: 1})
	grant := mustAcquire(t, s, "w1")
	own := "{\"fp\":0}\n"
	if err := s.AppendLines(grant.Lease, []byte(own)); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(grant.Lease, -1, false); err != nil {
		t.Fatal(err)
	}
	regrant := mustAcquire(t, s, "w1")
	if !regrant.Resume || regrant.Checkpoint != own {
		t.Errorf("campaign %s regrant resumes from %q, want only its own line %q", id, regrant.Checkpoint, own)
	}
	if data, err := os.ReadFile(filepath.Join(old, "shard0.ckpt")); err != nil || string(data) != foreign {
		t.Errorf("earlier lifetime's checkpoint changed: %q (%v)", data, err)
	}
}

// TestWorkerBatchesLines drives a Worker against the daemon's HTTP API
// with /bin/sh as the shard binary. A burst of lines the child writes at
// once must land durably and merged in fewer POSTs than lines; with the
// crash hook armed at 2, exactly 2 lines reach the daemon before the kill.
func TestWorkerBatchesLines(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("needs /bin/sh")
	}
	const k = 20
	lines := make([]string, k)
	for fp := range lines {
		lines[fp] = fmt.Sprintf("{\"fp\":%d}\n", fp)
	}
	burst := "printf '" + strings.Join(lines, "") + "'"
	for _, tt := range []struct {
		name       string
		crashAfter int
		script     string // the shard child; the daemon's shard flags become $0, $1, ...
		wantLines  int
	}{
		{"burst", 0, burst, k},
		{"crash hook", 2, burst + "; exec sleep 30", 2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			s, _ := testServer(t, time.Minute)
			var posts atomic.Int32
			api := s.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/lines") {
					posts.Add(1)
				}
				api.ServeHTTP(w, r)
			}))
			defer ts.Close()
			id := mustSubmit(t, s, CampaignSpec{Args: []string{"-c", tt.script}, Shards: 1})

			w := &Worker{
				Client:          &Client{BaseURL: ts.URL},
				ID:              "w1",
				Exe:             "/bin/sh",
				Poll:            5 * time.Millisecond,
				Grace:           time.Second,
				Output:          io.Discard,
				CrashAfterLines: tt.crashAfter,
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- w.Run(ctx) }()

			if tt.crashAfter > 0 {
				select {
				case err := <-done:
					if !errors.Is(err, ErrWorkerCrashed) {
						t.Fatalf("worker returned %v, want ErrWorkerCrashed", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("crash hook never fired")
				}
			} else {
				deadline := time.Now().Add(10 * time.Second)
				for st, _ := s.CampaignStatus(id); st.State != "done"; st, _ = s.CampaignStatus(id) {
					if time.Now().After(deadline) {
						t.Fatalf("campaign never finished: %+v", st)
					}
					time.Sleep(5 * time.Millisecond)
				}
				cancel()
				<-done
			}

			st, err := s.CampaignStatus(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Covered != tt.wantLines || st.ShardStates[0].Lines != tt.wantLines {
				t.Errorf("merged %d point(s) from %d line(s), want %d", st.Covered, st.ShardStates[0].Lines, tt.wantLines)
			}
			data, err := os.ReadFile(s.byID[id].shards[0].path)
			if want := strings.Join(lines[:tt.wantLines], ""); err != nil || string(data) != want {
				t.Errorf("daemon-held checkpoint = %q (%v), want %q", data, err, want)
			}
			if n := int(posts.Load()); tt.crashAfter == 0 && n >= k {
				t.Errorf("%d line(s) took %d POST(s), want fewer", k, n)
			}
		})
	}
}
