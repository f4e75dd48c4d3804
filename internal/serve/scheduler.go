// Package serve turns the xfdetector CLI into a distributed campaign
// service: a daemon (-serve) accepts campaign submissions over an
// HTTP/JSON API, splits each into per-shard leases, and schedules the
// leases onto registered workers (-worker); every worker runs the
// existing shard path (-shards N -shard-index i -checkpoint -) and
// streams the shard's checkpoint JSONL lines back over its lease, which
// the daemon appends to per-shard files and merges online with live
// coverage accounting. Leases carry heartbeat deadlines: a worker that
// goes silent has its lease expired and the shard rescheduled with
// -resume against the daemon-held checkpoint. `xfdetector -spawn N` runs
// the same daemon in-process with N local workers, so one scheduler serves
// both the single-machine and the networked fleet.
package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/vcache"
)

// CampaignSpec is a submission: the workload/engine argument vector every
// shard shares, and how many shards to split the campaign into. PoolFile
// requests file-backed PM pools: the daemon lays a per-shard pool file
// under the campaign directory and only leases the campaign's shards to
// workers advertising the "file-backed" capability tag.
type CampaignSpec struct {
	Args     []string `json:"args"`
	Shards   int      `json:"shards"`
	PoolFile bool     `json:"pool_file,omitempty"`
}

// CapFileBacked is the worker capability tag for file-backed pool support
// (pmem.FileBackend is mmap/msync-based and linux-only); workers advertise
// their tags on every lease poll.
const CapFileBacked = "file-backed"

// LeaseGrant is what a worker receives for one shard: the full child
// argument vector (the daemon owns the shard layout; the worker execs it
// verbatim), and — for a rescheduled shard — the daemon-held checkpoint
// to pipe into the child's stdin alongside -resume.
type LeaseGrant struct {
	Lease      string   `json:"lease"`
	Campaign   string   `json:"campaign"`
	Shard      int      `json:"shard"`
	Shards     int      `json:"shards"`
	Args       []string `json:"args"`
	Resume     bool     `json:"resume"`
	Checkpoint string   `json:"checkpoint,omitempty"`
	// Artifact reports that the campaign has a recorded pre-failure
	// artifact: the worker fetches it over GET /leases/{id}/artifact and
	// runs the shard child with -from-record instead of a live pre-failure
	// stage.
	Artifact bool `json:"artifact,omitempty"`
}

// shard lease/state machine:
//
//	pending ──acquire──▶ leased ──finish 0/1/3──▶ done
//	   ▲                    │
//	   │   expiry / crash / release (attempts left)
//	   └────────────────────┘            resume=true
//
// A shard that exhausts its attempts is finalized with exit 3, the state
// a cancelled single process reports; the campaign completes Incomplete
// through the merge's coverage check.
const (
	shardPending = "pending"
	shardLeased  = "leased"
	shardDone    = "done"
)

type shardState struct {
	index    int
	state    string
	attempts int
	resume   bool
	exitCode int
	gaveUp   bool
	lines    int
	worker   string
	path     string // daemon-held checkpoint file
	lease    string // active lease ID when leased
}

const (
	campaignRunning = "running"
	campaignDone    = "done"
	campaignFailed  = "failed"
)

type campaign struct {
	id      string
	spec    CampaignSpec
	dir     string
	shards  []*shardState
	merger  *ckpt.Merger
	state   string
	failure string
	result  *core.Result
	// verdicts is the campaign's binding to the daemon's cross-campaign
	// verdict cache, keyed by the argv identity: it answers the shards'
	// lookups and learns from their landed lines. nil when the daemon has
	// no cache or the submitted args carry -no-verdict-cache.
	verdicts *vcache.Binding
	// recording is true while the daemon's record-once pass runs; the
	// campaign's shards are not leased until it finishes. artifact is the
	// recorded pre-failure artifact every shard replays ("" after a failed
	// or skipped recording — shards then run the pre-failure stage live).
	recording bool
	artifact  string
}

type lease struct {
	id       string
	c        *campaign
	sh       *shardState
	worker   string
	deadline time.Time
	log      *ckpt.Log // the shard's checkpoint, open from its first lines
}

// Server is the campaign daemon's state: campaigns in submission order, a
// lease table, and the per-campaign online mergers. It is driven by the
// HTTP handlers (Handler) but fully usable in-process for tests.
type Server struct {
	// Workdir owns the per-campaign directories (c<N>/shard<i>.ckpt). A
	// campaign never reuses a directory an earlier daemon lifetime left.
	Workdir string
	// LeaseTTL is the heartbeat deadline: a lease not renewed (by lines,
	// a heartbeat, or completion) within it is expired and its shard
	// rescheduled.
	LeaseTTL time.Duration
	// MaxAttempts bounds the lease chain per shard: the initial grant
	// plus the crash recoveries.
	MaxAttempts int
	// Logf receives scheduler events; nil logs to stderr.
	Logf func(format string, args ...any)
	// Cache is the daemon's cross-campaign verdict cache (nil disables
	// it): clean class verdicts read off any campaign's landed checkpoint
	// lines are persisted keyed by (campaign argv identity, crash-state
	// fingerprint) and handed to the shards of later campaigns with the
	// same argv when their leases start (CachedVerdicts). Set it before
	// submitting: a campaign binds to it when submitted.
	Cache *vcache.Cache
	// Record, when non-nil, is the record-once launcher: it runs the
	// campaign's deterministic pre-failure pass (the CLI execs itself with
	// -record) and returns the artifact path. Submissions carrying
	// -no-fast-forward skip it. Recording happens off the scheduler lock;
	// a recording campaign's shards stay unleased until it resolves, and a
	// failed recording falls back to live pre-failure stages.
	Record func(dir string, args []string) (string, error)

	now func() time.Time

	mu        sync.Mutex
	campaigns []*campaign
	byID      map[string]*campaign
	leases    map[string]*lease
	nextC     int
	nextL     int
	// rr is the round-robin cursor: Acquire starts its campaign scan one
	// past the campaign that granted the previous lease, so concurrent
	// runnable campaigns share the worker fleet instead of draining in
	// strict submission order.
	rr int
	// records counts the record-once passes in flight (WaitRecords).
	records sync.WaitGroup
}

// NewServer returns a daemon rooted at workdir (which must exist) with
// the given heartbeat TTL.
func NewServer(workdir string, ttl time.Duration) *Server {
	return &Server{
		Workdir:     workdir,
		LeaseTTL:    ttl,
		MaxAttempts: 4,
		now:         time.Now,
		byID:        make(map[string]*campaign),
		leases:      make(map[string]*lease),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, "[serve] "+format+"\n", args...)
}

// ownedFlags are argument prefixes a submission must not carry: the
// daemon owns the shard layout and checkpoint transport, and a worker is
// not a place to start a nested fleet.
var ownedFlags = []string{
	"-spawn", "-merge", "-shards", "-shard-index", "-checkpoint", "-resume",
	"-keys-out", "-serve", "-worker", "-submit", "-workdir", "-pool-file",
	"-verdict-cache", "-record", "-from-record",
}

// flagName splits a command-line argument into its flag name and its
// =value part. Go's flag package accepts --name as well as -name, so the
// name comes back in the single-dash spelling either way.
func flagName(arg string) (name, value string, hasValue bool) {
	name, value, hasValue = strings.Cut(arg, "=")
	if strings.HasPrefix(name, "--") {
		name = name[1:]
	}
	return name, value, hasValue
}

// specHasFlag reports whether args sets the named boolean flag (in any
// -name, --name or -name=value form).
func specHasFlag(args []string, flag string) bool {
	for _, arg := range args {
		name, val, ok := flagName(arg)
		if name == flag && (!ok || val != "false") {
			return true
		}
	}
	return false
}

// Submit validates and registers a campaign, returning its ID. Shards are
// all pending; workers pick them up on their next poll.
func (s *Server) Submit(spec CampaignSpec) (string, error) {
	if spec.Shards < 1 {
		return "", fmt.Errorf("campaign needs at least 1 shard, got %d", spec.Shards)
	}
	for _, arg := range spec.Args {
		name, _, _ := flagName(arg)
		for _, owned := range ownedFlags {
			if name == owned {
				return "", fmt.Errorf("submission must not carry %s: the daemon owns shard layout and checkpoint transport", arg)
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	c := &campaign{
		spec:   spec,
		merger: ckpt.NewMerger(),
		state:  campaignRunning,
	}
	if s.Cache != nil && !specHasFlag(spec.Args, "-no-verdict-cache") {
		c.verdicts = s.Cache.Bind(vcache.Identity(spec.Args...))
	}
	// The campaign takes the first c<N> that does not exist yet. Shard
	// files are opened for appending, so a directory left by an earlier
	// daemon over the same workdir would hand a rescheduled shard the old
	// campaign's lines as its -resume checkpoint. The workdir is fsynced
	// so the new directory outlives a crash with the shard files in it.
	for {
		s.nextC++
		c.id = fmt.Sprintf("c%d", s.nextC)
		c.dir = filepath.Join(s.Workdir, c.id)
		err := os.Mkdir(c.dir, 0o755)
		if err == nil {
			break
		}
		if !errors.Is(err, fs.ErrExist) {
			return "", fmt.Errorf("creating campaign dir: %v", err)
		}
	}
	if err := ckpt.SyncDir(s.Workdir); err != nil {
		return "", fmt.Errorf("syncing the workdir: %v", err)
	}
	for i := 0; i < spec.Shards; i++ {
		c.shards = append(c.shards, &shardState{
			index: i,
			state: shardPending,
			path:  filepath.Join(c.dir, fmt.Sprintf("shard%d.ckpt", i)),
		})
	}
	s.campaigns = append(s.campaigns, c)
	s.byID[c.id] = c
	s.logf("campaign %s submitted: %d shard(s), args %q", c.id, spec.Shards, strings.Join(spec.Args, " "))
	if s.Record != nil && !specHasFlag(spec.Args, "-no-fast-forward") {
		c.recording = true
		s.records.Add(1)
		go s.recordCampaign(c)
	}
	return c.id, nil
}

// WaitRecords blocks until every record-once pass the daemon started has
// returned. Call it once no campaign can be submitted any more: a record
// launcher stopping its child on shutdown needs the daemon to outlive it.
func (s *Server) WaitRecords() {
	s.records.Wait()
}

// recordCampaign runs the record-once pass for a freshly submitted
// campaign and publishes the artifact. Failure is logged, not fatal: the
// campaign's shards simply run their pre-failure stages live.
func (s *Server) recordCampaign(c *campaign) {
	defer s.records.Done()
	path, err := s.Record(c.dir, c.spec.Args)
	s.mu.Lock()
	defer s.mu.Unlock()
	c.recording = false
	if err != nil {
		s.logf("campaign %s: record pass failed (%v); shards run the pre-failure stage live", c.id, err)
		return
	}
	c.artifact = path
	s.logf("campaign %s: recorded pre-failure artifact %s", c.id, path)
}

// shardArgs is the child argument vector for one shard of a campaign: the
// shared workload flags plus the shard layout and the stdout checkpoint
// stream (stdin-seeded when resuming). File-backed campaigns get a
// per-shard pool file under the campaign directory — the same path on
// every incarnation, so a resumed shard reopens its own pool.
func shardArgs(spec CampaignSpec, index int, resume bool, dir string) []string {
	args := append([]string{}, spec.Args...)
	if spec.Shards > 1 {
		args = append(args, "-shards", fmt.Sprint(spec.Shards), "-shard-index", fmt.Sprint(index))
	}
	if spec.PoolFile {
		args = append(args, "-pool-file", filepath.Join(dir, fmt.Sprintf("shard%d.pool", index)))
	}
	args = append(args, "-checkpoint", "-")
	if resume {
		args = append(args, "-resume")
	}
	return args
}

// Acquire grants a pending shard to the worker, or returns nil when
// nothing is schedulable. Campaigns are scanned round-robin — the scan
// starts one past the campaign that granted the previous lease — so
// concurrent runnable campaigns share the worker fleet instead of
// draining in strict submission order; within a campaign, shards still go
// out lowest-index first. Every call first expires overdue leases, so a
// polling fleet is itself the expiry clock (no reaper goroutine to leak);
// a rescheduled shard's grant carries the daemon-held checkpoint. caps
// are the worker's capability tags: campaigns demanding a capability
// (today only PoolFile -> "file-backed") are skipped for workers that do
// not advertise it, rather than granted a lease doomed to exit 2. A
// campaign whose record-once pass is still running is skipped too — its
// shards lease once the artifact (or the live fallback) is decided.
func (s *Server) Acquire(worker string, caps ...string) (*LeaseGrant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()

	n := len(s.campaigns)
	for k := 0; k < n; k++ {
		c := s.campaigns[(s.rr+k)%n]
		if c.state != campaignRunning || c.recording {
			continue
		}
		if c.spec.PoolFile && !hasCap(caps, CapFileBacked) {
			continue
		}
		for _, sh := range c.shards {
			if sh.state != shardPending {
				continue
			}
			s.rr = (s.rr + k + 1) % n
			sh.attempts++
			sh.state = shardLeased
			sh.worker = worker
			s.nextL++
			l := &lease{
				id:       fmt.Sprintf("l%d", s.nextL),
				c:        c,
				sh:       sh,
				worker:   worker,
				deadline: s.now().Add(s.LeaseTTL),
			}
			sh.lease = l.id
			s.leases[l.id] = l
			var held []byte
			if sh.resume {
				held, _ = os.ReadFile(sh.path) // absent file = empty checkpoint
			}
			s.logf("lease %s: campaign %s shard %d/%d -> worker %s (attempt %d/%d%s)",
				l.id, c.id, sh.index, c.spec.Shards, worker, sh.attempts, s.MaxAttempts,
				map[bool]string{true: ", -resume", false: ""}[sh.resume])
			return &LeaseGrant{
				Lease:      l.id,
				Campaign:   c.id,
				Shard:      sh.index,
				Shards:     c.spec.Shards,
				Args:       shardArgs(c.spec, sh.index, sh.resume, c.dir),
				Resume:     sh.resume,
				Checkpoint: string(held),
				Artifact:   c.artifact != "",
			}, nil
		}
	}
	return nil, nil
}

// ArtifactPath validates a lease (renewing its heartbeat) and returns the
// path of its campaign's recorded artifact; "" when the campaign has none.
func (s *Server) ArtifactPath(leaseID string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	l, err := s.activeLease(leaseID)
	if err != nil {
		return "", err
	}
	return l.c.artifact, nil
}

// ShardCheckpoints returns the daemon-held checkpoint files of campaign
// id's shards in shard order; a shard that never streamed a line has no
// file yet.
func (s *Server) ShardCheckpoints(id string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("unknown campaign %q", id)
	}
	paths := make([]string, len(c.shards))
	for i, sh := range c.shards {
		paths[i] = sh.path
	}
	return paths, nil
}

// hasCap reports whether a worker's capability tags include want.
func hasCap(caps []string, want string) bool {
	for _, c := range caps {
		if c == want {
			return true
		}
	}
	return false
}

// expireLocked reschedules every shard whose lease missed its heartbeat
// deadline.
func (s *Server) expireLocked() {
	now := s.now()
	for id, l := range s.leases {
		if now.Before(l.deadline) {
			continue
		}
		s.endLeaseLocked(l)
		s.logf("lease %s (campaign %s shard %d, worker %s) missed its heartbeat deadline; rescheduling with -resume",
			id, l.c.id, l.sh.index, l.worker)
		s.rescheduleLocked(l.c, l.sh)
	}
}

// endLeaseLocked drops a lease from the table and closes its shard's
// checkpoint.
func (s *Server) endLeaseLocked(l *lease) {
	delete(s.leases, l.id)
	l.sh.lease = ""
	if l.log != nil {
		l.log.Close()
	}
}

// rescheduleLocked returns a shard to the pending queue with -resume, or
// finalizes it as given-up (exit 3) when its attempts are exhausted.
func (s *Server) rescheduleLocked(c *campaign, sh *shardState) {
	if sh.attempts >= s.MaxAttempts {
		sh.state = shardDone
		sh.exitCode = 3
		sh.gaveUp = true
		s.logf("campaign %s shard %d: giving up after %d attempt(s)", c.id, sh.index, sh.attempts)
		s.maybeCompleteLocked(c)
		return
	}
	sh.state = shardPending
	sh.resume = true
}

// activeLease validates a lease ID and renews its heartbeat deadline.
func (s *Server) activeLease(id string) (*lease, error) {
	l, ok := s.leases[id]
	if !ok {
		return nil, ErrLeaseGone
	}
	l.deadline = s.now().Add(s.LeaseTTL)
	return l, nil
}

// Heartbeat renews a lease's deadline; a long post-run produces no
// checkpoint lines, and silence must not read as death.
func (s *Server) Heartbeat(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	_, err := s.activeLease(id)
	return err
}

// AppendLines takes a chunk of checkpoint JSONL from a lease, appends its
// whole lines durably to the shard's daemon-held file, folds each line
// into the campaign's online merge, and feeds it to the campaign's verdict
// cache binding — only now, with the representative's reports durable
// here, may a later campaign reuse them. A torn final line (the fragment a
// killed child leaves) is neither written nor merged: the shard's next
// incarnation reruns that failure point, and its lines must land after
// whole ones. Lines from an expired lease are rejected — its shard may
// already be streaming from another worker, and double-counting a summary
// would corrupt the bucket accounting.
func (s *Server) AppendLines(id string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	l, err := s.activeLease(id)
	if err != nil {
		return err
	}

	lines, whole, err := ckpt.Parse(data, "lease "+id)
	if err != nil {
		return fmt.Errorf("parsing streamed lines: %v", err)
	}
	if len(lines) == 0 {
		return nil
	}
	if l.log == nil {
		if l.log, _, err = ckpt.OpenLog(l.sh.path, false); err != nil {
			return err
		}
	}
	if err := l.log.Write(data[:whole]); err != nil {
		return err
	}

	source := fmt.Sprintf("shard%d", l.sh.index)
	for _, line := range lines {
		if err := l.c.merger.Add(source, line); err != nil {
			return err
		}
		if l.c.verdicts == nil {
			continue
		}
		if err := l.c.verdicts.Add(line); err != nil {
			s.logf("verdict cache store failed (degrading to misses): %v", err)
		}
	}
	l.sh.lines += len(lines)
	return nil
}

// Finish resolves a lease: released=true is a worker-initiated teardown
// (shutdown; the shard is rescheduled), exit 0/1/3 is a final shard
// outcome, exit 2 is a usage/harness error that would fail every
// incarnation alike and fails the campaign, and anything else — death by
// signal surfaces as -1 — is a crash, rescheduled with -resume while
// attempts remain.
func (s *Server) Finish(id string, code int, released bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	l, err := s.activeLease(id)
	if err != nil {
		return err
	}
	s.endLeaseLocked(l)

	switch {
	case released:
		s.logf("lease %s released by worker %s; rescheduling campaign %s shard %d", id, l.worker, l.c.id, l.sh.index)
		s.rescheduleLocked(l.c, l.sh)
	case code == 0 || code == 1 || code == 3:
		l.sh.state = shardDone
		l.sh.exitCode = code
		s.logf("campaign %s shard %d finished (exit %d) on worker %s after %d attempt(s)",
			l.c.id, l.sh.index, code, l.worker, l.sh.attempts)
		s.maybeCompleteLocked(l.c)
	case code == 2:
		l.sh.state = shardDone
		l.sh.exitCode = code
		l.c.state = campaignFailed
		l.c.failure = fmt.Sprintf("shard %d exited 2 (usage or harness error) on worker %s", l.sh.index, l.worker)
		s.logf("campaign %s failed: %s", l.c.id, l.c.failure)
	default:
		s.logf("campaign %s shard %d crashed (exit %d) on worker %s; rescheduling with -resume",
			l.c.id, l.sh.index, code, l.worker)
		s.rescheduleLocked(l.c, l.sh)
	}
	return nil
}

// maybeCompleteLocked finalizes a campaign once every shard is done: the
// online merger already holds the union, so completion is just the
// coverage check and the bucket sums.
func (s *Server) maybeCompleteLocked(c *campaign) {
	if c.state != campaignRunning {
		return
	}
	for _, sh := range c.shards {
		if sh.state != shardDone {
			return
		}
	}
	c.state = campaignDone
	c.result = c.merger.Result(fmt.Sprintf("campaign %s (%d shard(s))", c.id, c.spec.Shards))
	s.logf("campaign %s complete: %d/%d failure points covered, %d report(s)%s",
		c.id, c.merger.Covered(), c.result.FailurePoints, len(c.result.Reports),
		map[bool]string{true: ", INCOMPLETE", false: ""}[c.result.Incomplete])
}
