package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/record"
	"github.com/pmemgo/xfdetector/internal/shadow"
	"github.com/pmemgo/xfdetector/internal/trace"
)

// Mode selects what the harness does with the tested program. The three
// modes correspond to the three configurations of Fig. 12b.
type Mode uint8

const (
	// ModeDetect runs full XFDetector detection: tracing, failure
	// injection, post-failure execution and backend checking.
	ModeDetect Mode = iota
	// ModeTraceOnly traces PM operations without injecting failures or
	// detecting bugs — the paper's "Pure Pin" configuration.
	ModeTraceOnly
	// ModeOriginal runs the program with no tracing at all.
	ModeOriginal
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeDetect:
		return "detect"
	case ModeTraceOnly:
		return "trace-only"
	case ModeOriginal:
		return "original"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Config parameterizes a detection run.
type Config struct {
	// PoolSize is the PM pool size in bytes (default 1 MiB).
	PoolSize uint64
	// Backend constructs the campaign's root pool (nil = the in-memory
	// default, pmem.MemBackend). With pmem.FileBackend the pool is mapped
	// onto an on-disk file and dirtied pages are written back in coalesced
	// msync ranges at every ordering point and failure-point snapshot
	// (Result.MsyncRanges/MsyncPages/MsyncSkipped); a creation failure — a
	// pool-file collision, a locked file, an injected extend fault — fails
	// the run with an error before any tracing starts. Post-failure pools
	// are copy-on-write views either way and never touch the file.
	Backend pmem.Backend
	// Mode selects detection, tracing-only, or original execution.
	Mode Mode
	// MaxFailurePoints caps the number of injected failure points
	// (0 = unlimited).
	MaxFailurePoints int
	// KeepTrace retains the pre-failure trace in the Result (required by
	// the baseline pre-failure-only checkers).
	KeepTrace bool
	// DisablePerfBugs suppresses performance-bug reports.
	DisablePerfBugs bool
	// DisableFailurePointElision turns off the §5.4 optimization that
	// skips failure points between ordering points with no PM operations
	// in between. For ablation measurements and the differential fuzzer's
	// no-elision configuration, which checks it against the oracle.
	DisableFailurePointElision bool
	// DisablePruning turns off crash-state pruning. By default the detector
	// fingerprints the shadow state at each failure point
	// (shadow.CrashFingerprint), groups failure points whose crash states
	// are indistinguishable to the post-failure checker into classes, runs
	// post-failure detection once per class, and attributes the clean
	// verdict to the remaining members (Result.PrunedFailurePoints /
	// Result.CrashStateClasses). A class whose representative reports
	// anything — a post-failure fault, an abandonment, a cancellation — is
	// poisoned and every member runs, so value-bearing outcomes are never
	// attributed across members; the deduplicated report-key set is
	// identical with and without pruning. For ablation measurements
	// (xfdetector -no-prune).
	DisablePruning bool
	// Workers enables parallelized detection (the future work of §6.2.1).
	// With Workers = W > 1 in ModeDetect, the run is W sibling runners on
	// goroutines that act as W class shards nested inside this process's
	// shard (see ShardCount): each sibling executes Setup and Pre itself and
	// post-runs exactly its share of the failure points one runner would,
	// so the report-key set, PostRuns and CrashStateClasses equal
	// sequential detection's. The siblings share the deduplicated report
	// set, the OnPostRunComplete serialization, CompletedFailurePoints,
	// Verdicts and FaultHooks; only sibling 0 builds its pool with Backend
	// and keeps the trace (KeepTrace), the others use pmem.MemBackend.
	// Contract: Setup and Pre run once per sibling, concurrently, so on top
	// of the determinism sharding already requires, a stage may share no
	// mutable Go state across runs. Memory grows with W: every sibling owns
	// a pool, its snapshots and a shadow PM. The Result folds the siblings:
	// buckets, classes, entries and PostSeconds are summed, PreSeconds is
	// one sibling's. Record passes and the trace-only and original modes
	// run one runner. 0 and 1 mean sequential; negative is an error.
	Workers int
	// MaxPostOps bounds each post-failure execution to this many traced PM
	// operations (0 = a generous default). A recovery or resumption that
	// exceeds the budget is almost certainly looping on corrupted state —
	// the hang-forever analogue of the paper's segmentation-fault scenario
	// — and is reported as a post-failure fault so detection can continue.
	MaxPostOps int
	// PostRunTimeout bounds each post-failure execution's wall-clock time
	// (0 = none). It covers what MaxPostOps cannot: a post-failure stage
	// spinning without touching PM at all. On expiry the post-run goroutine
	// is abandoned — it unwinds at its next PM operation, or when it polls
	// Ctx.Abandoned — the fault is reported, and Result.AbandonedPostRuns
	// is incremented. With a timeout set, each post-run executes on its own
	// goroutine.
	PostRunTimeout time.Duration
	// FaultHooks injects deterministic harness-internal faults (failing
	// image copies, failing trace sinks) into the run's pools, for testing
	// the degradation paths. A post-run tripping a harness fault is retried
	// once and then quarantined (Result.SkippedFailurePoints); a harness
	// fault in the pre-failure stage fails the run with an error.
	FaultHooks *pmem.FaultHooks
	// CompletedFailurePoints marks failure points whose post-runs completed
	// in a previous campaign (crash-safe resume): they are injected and
	// counted but their post-failure executions are skipped, with
	// Result.ResumedFailurePoints accounting. Combine with SeedReports from
	// the same checkpoint, and identical Config/Target, so the resumed
	// campaign converges to the identical deduplicated report set.
	CompletedFailurePoints map[int]bool
	// SeedReports pre-loads reports from a checkpoint into the
	// deduplication set before the run starts.
	SeedReports []Report
	// OnPostRunComplete, if set, is called after the post-run of each
	// failure point completes (including budget-exceeded and abandoned
	// runs, which are deterministic, but not quarantined or cancelled ones,
	// which a resumed campaign must re-execute) with the failure point's
	// id, its crash-state fingerprint (zero when pruning is disabled, and
	// for a member of a dirty class, whose outcome speaks only for
	// itself), and the reports that post-run newly added. A faulted
	// post-run's PostFailureFault is always among them, even when an
	// earlier failure point already reported the same message: a verdict
	// cache reads a class verdict off its representative's checkpoint
	// line (vcache.Binding). Calls are serialized but may come from sibling
	// goroutines under Workers > 1.
	OnPostRunComplete func(failurePoint int, fingerprint uint64, fresh []Report)
	// Verdicts, if set, is a cache of clean crash-state class verdicts
	// from previous campaigns of the identical program (see
	// VerdictSource): the first member of each class this run owns looks
	// its fingerprint up before becoming the representative, and attributed
	// points land in Result.CacheHitFailurePoints. The run stores nothing:
	// the cache learns from the OnPostRunComplete lines. Requires pruning
	// (ignored under DisablePruning or outside ModeDetect).
	Verdicts VerdictSource
	// ShardCount/ShardIndex partition a campaign across cooperating
	// processes. Under pruning, shard i owns the crash-state classes whose
	// fingerprint the class-sharding function maps to i (classShard): it
	// runs each owned class's representative, prunes its clean members and
	// runs a dirty class's members itself, so a fleet post-runs exactly
	// the failure points one process does. Under DisablePruning shard i
	// owns failure point fp iff fp % ShardCount == ShardIndex. Every shard
	// traces the identical (deterministic) pre-failure execution and
	// injects and counts every failure point, so failure-point numbering
	// agrees across shards, each shard's report set is a sound subset of
	// the single-process result, and the union over all shards converges
	// to it. Points owned by other shards are accounted in
	// Result.OtherShardFailurePoints — resumed elsewhere, like
	// CompletedFailurePoints, not degradation. ShardCount 0 or 1 disables
	// sharding. Under Workers > 1 the process's share is split again over
	// its siblings, class shards nested inside this one.
	ShardCount int
	// ShardIndex is this process's shard in [0, ShardCount).
	ShardIndex int
	// Record, if set, turns the run into a recording pass: the pre-failure
	// stage executes once with the post-failure stage forced off (failure
	// points are injected and counted exactly as a real campaign would, but
	// nothing is dispatched), and at each failure point the runner hands
	// the writer the crash-state fingerprint and the pool pages dirtied
	// since the previous point; Run finalizes the artifact with the kept
	// trace. Requires ModeDetect and a memory-backed pool; a cancelled or
	// degraded recording fails with an error rather than producing a
	// short artifact.
	Record *record.Writer
	// Replay, if set, runs the frontend from a recorded artifact instead
	// of executing Target.Setup/Target.Pre: the trace replays into the
	// shadow from its head, recorded failure-point markers dispatch
	// post-runs exactly as live injection would (same sharding, resume,
	// pruning, and verdict semantics), and the pool image advances by the
	// artifact's page deltas. Every failure point the replay fingerprints
	// must reproduce the recorded crash-state fingerprint, or the run
	// fails (a corrupt artifact must never skew detection silently).
	// Requires ModeDetect and a pool size matching the artifact's.
	Replay *record.Artifact
}

// defaultMaxPostOps bounds a post-failure run; real recoveries in the
// evaluated workloads stay well under 10^5 operations.
const defaultMaxPostOps = 1 << 20

// postBudgetExceeded unwinds a runaway post-failure stage; the runner
// converts it into a PostFailureFault report.
type postBudgetExceeded struct{ ops int }

const defaultPoolSize = 1 << 20

// Target is a program under test.
type Target struct {
	// Name identifies the target in results.
	Name string
	// Setup initializes the PM image before testing starts (the
	// artifact's INITSIZE insertions). It is traced but no failure points
	// are injected during it. Optional.
	Setup func(*Ctx) error
	// Pre is the pre-failure stage: the execution into which failure
	// points are injected. Required.
	Pre func(*Ctx) error
	// Post is the post-failure stage: recovery plus resumption, executed
	// once per failure point on a copy of the PM image. Optional (without
	// it only pre-failure performance bugs are detectable).
	Post func(*Ctx) error
	// ExplicitRoI declares that the target calls RoIBegin/RoIEnd itself.
	// When false (the default, used by the micro benchmarks), the entire
	// pre-failure stage is the RoI and the entire post-failure stage is
	// checked (§6.1).
	ExplicitRoI bool
}

// Run executes one detection run of t under cfg.
//
// It returns an error only for harness-level failures (a nil Pre, or Setup
// or Pre failing); bugs in the tested program — including post-failure
// stages that crash — are reported in the Result.
func Run(cfg Config, t Target) (*Result, error) {
	return RunContext(context.Background(), cfg, t)
}

// RunContext is Run with cooperative cancellation. Cancellation is checked
// at failure-point boundaries: once ctx is done, no further post-runs start.
// The pre-failure stage itself runs to completion — it is the target's code
// — and keeps numbering failure points, so each remaining point still lands
// in exactly one bucket (SkippedFailurePoints for the points this run owns)
// and a cancelled run returns a sound partial Result, marked Incomplete.
func RunContext(ctx context.Context, cfg Config, t Target) (*Result, error) {
	if t.Pre == nil {
		return nil, errors.New("core: target has no pre-failure stage")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.ShardCount < 0 {
		return nil, fmt.Errorf("core: negative ShardCount %d", cfg.ShardCount)
	}
	if cfg.ShardCount > 1 && (cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount) {
		return nil, fmt.Errorf("core: ShardIndex %d outside [0, %d)", cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: negative Workers %d", cfg.Workers)
	}
	if cfg.PoolSize == 0 {
		cfg.PoolSize = defaultPoolSize
	}
	if cfg.Record != nil && cfg.Replay != nil {
		return nil, errors.New("core: Record and Replay are mutually exclusive")
	}
	if cfg.Record != nil {
		if cfg.Mode != ModeDetect {
			return nil, errors.New("core: recording requires detect mode")
		}
		// A recording pass injects and numbers failure points exactly like
		// a live campaign but dispatches nothing: the artifact stands in
		// for the pre-failure execution of every future shard.
		t.Post = nil
		cfg.KeepTrace = true
	}
	if cfg.Replay != nil {
		if cfg.Mode != ModeDetect {
			return nil, errors.New("core: replaying a recorded campaign requires detect mode")
		}
		if cfg.Replay.PoolSize != cfg.PoolSize {
			return nil, fmt.Errorf("core: recorded artifact has pool size %d, campaign wants %d",
				cfg.Replay.PoolSize, cfg.PoolSize)
		}
	}
	siblings := 1
	if cfg.Workers > 1 && cfg.Mode == ModeDetect && cfg.Record == nil {
		siblings = cfg.Workers
	}
	reports := newReportSet()
	for _, rep := range cfg.SeedReports {
		reports.add(rep)
	}
	var cbMu sync.Mutex
	results := make([]*Result, siblings)
	errs := make([]error, siblings)
	run := func(j int) {
		r := &runner{ctx: ctx, cfg: cfg, target: t, reports: reports, cbMu: &cbMu, sibling: j, siblings: siblings}
		results[j], errs[j] = r.run()
	}
	var wg sync.WaitGroup
	for j := 1; j < siblings; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(j)
		}()
	}
	run(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return foldSiblings(results, reports), nil
}

// run executes one runner: the whole campaign when it is alone, its
// sibling's share otherwise. Sibling 0 builds the root pool with
// Config.Backend and keeps the trace; the others use memory-backed pools
// and keep none. The Result it returns has no Reports: the siblings share
// one report set, which foldSiblings reads once they all finish.
func (r *runner) run() (*Result, error) {
	cfg, t := r.cfg, r.target
	backend := cfg.Backend
	if backend == nil || r.sibling > 0 {
		backend = pmem.MemBackend{}
	}
	pool, err := backend.NewPool(t.Name, int(cfg.PoolSize))
	if err != nil {
		return nil, fmt.Errorf("core: creating %s-backed pool: %w", backend, err)
	}
	r.pool = pool
	if cfg.Record != nil && pool.FileBacked() {
		pool.Close()
		return nil, errors.New("core: recording requires a memory-backed pool (the artifact replaces the durable image)")
	}
	r.pool.SetFaultHooks(cfg.FaultHooks)
	r.pool.SetIPCapture(cfg.Mode != ModeOriginal)
	if cfg.Mode != ModeOriginal {
		if cfg.KeepTrace && r.sibling == 0 {
			r.keptTrace = trace.New()
		}
		r.pool.SetSink((*preSink)(r))
	}
	if cfg.Mode == ModeDetect {
		r.sh = shadow.NewPM(r.pool.Size())
		if !cfg.DisablePerfBugs {
			r.sh.SetPerfBugHandler(r.onPerfBug)
		}
		r.pool.SetFenceHook(r.onOrderingPoint)
		if !cfg.DisablePruning {
			r.classes = make(map[uint64]bool)
		}
	}
	r.roiActive = !t.ExplicitRoI

	// The pool must be closed on every exit path: a file-backed pool holds
	// an advisory lock and two mappings, and Close flushes the tail of the
	// durable image.
	poolClosed := false
	closePool := func() error {
		if poolClosed {
			return nil
		}
		poolClosed = true
		return r.pool.Close()
	}
	defer closePool()

	start := time.Now()
	if cfg.Replay != nil {
		if err := r.replayRecorded(); err != nil {
			return nil, err
		}
	} else {
		pre := &Ctx{r: r, pool: r.pool, stage: trace.PreFailure, failurePoint: -1}
		if t.Setup != nil {
			r.setupPhase = true
			if err := runStage("setup", t.Setup, pre); err != nil {
				return nil, err
			}
			r.setupPhase = false
		}
		if err := runStage("pre-failure stage", t.Pre, pre); err != nil {
			return nil, err
		}
		if r.roiActive {
			r.maybeInjectFinal()
		}
	}
	if cfg.Record != nil {
		if err := r.finishRecording(); err != nil {
			return nil, err
		}
	}
	total := time.Since(start)

	fileBacked := r.pool.FileBacked()
	if err := closePool(); err != nil {
		// The campaign's observations are sound, but the durable image's
		// tail may be lost; degrade honestly instead of failing the run.
		msg := fmt.Sprintf("pool close: %v", err)
		r.harnessFaults = append(r.harnessFaults, msg)
		r.markIncomplete(msg)
	}

	res := &Result{
		Target:                t.Name,
		FailurePoints:         r.failurePoints,
		PostRuns:              r.postRuns,
		PreEntries:            r.preEntries,
		PostEntries:           r.postEntries,
		BenignReads:           r.benign,
		PostSeconds:           r.postTime.Seconds(),
		PreSeconds:            (total - r.postTime).Seconds(),
		Incomplete:            r.incomplete,
		IncompleteReason:      r.incompleteWhy,
		SkippedFailurePoints:  r.skippedFPs,
		AbandonedPostRuns:     r.abandonedRuns,
		ResumedFailurePoints:  r.resumedFPs,
		HarnessFaults:         r.harnessFaults,
		CrashStateClasses:     r.classesTested,
		PrunedFailurePoints:   r.prunedFPs,
		CacheHitFailurePoints: r.cacheHitFPs,
	}
	if cfg.ShardCount > 1 {
		res.ShardCount = cfg.ShardCount
		res.ShardIndex = cfg.ShardIndex
		res.ShardPartition = PartitionByFailurePoint
		if r.pruning() {
			res.ShardPartition = PartitionByClass
		}
		res.OtherShardFailurePoints = r.otherShardFPs
	}
	if r.sh != nil {
		res.ShadowPeakBytes, res.ShadowPages = r.sh.MemStats()
	}
	res.PoolBackend = backend.String()
	if fileBacked {
		res.MsyncRanges, res.MsyncPages, res.MsyncSkipped = r.pool.FileStats()
	}
	res.trace = r.keptTrace
	return res, nil
}

// foldSiblings merges the siblings' Results into the process's. Sibling 0
// speaks for what every sibling repeats — the failure-point numbering, the
// pre-failure stage and its time, the kept trace, the root pool's backend
// and msync statistics — while the per-point buckets add up, because each
// sibling fills them only for the points it owns (and sibling 0 alone for
// resumed points and other shards' points). Shadow peaks are summed, an
// upper bound of the siblings' concurrent peak.
func foldSiblings(sibs []*Result, reports *reportSet) *Result {
	res := sibs[0]
	for _, s := range sibs[1:] {
		if s.FailurePoints != res.FailurePoints && !res.Incomplete {
			res.Incomplete = true
			res.IncompleteReason = fmt.Sprintf("siblings injected %d and %d failure points: the pre-failure stage is not deterministic",
				res.FailurePoints, s.FailurePoints)
		}
		if s.Incomplete && !res.Incomplete {
			res.Incomplete, res.IncompleteReason = true, s.IncompleteReason
		}
		res.PostRuns += s.PostRuns
		res.CrashStateClasses += s.CrashStateClasses
		res.PrunedFailurePoints += s.PrunedFailurePoints
		res.CacheHitFailurePoints += s.CacheHitFailurePoints
		res.OtherShardFailurePoints += s.OtherShardFailurePoints
		res.ResumedFailurePoints += s.ResumedFailurePoints
		res.SkippedFailurePoints += s.SkippedFailurePoints
		res.AbandonedPostRuns += s.AbandonedPostRuns
		res.HarnessFaults = append(res.HarnessFaults, s.HarnessFaults...)
		res.PostEntries += s.PostEntries
		res.BenignReads += s.BenignReads
		res.PostSeconds += s.PostSeconds
		res.ShadowPeakBytes += s.ShadowPeakBytes
		res.ShadowPages += s.ShadowPages
	}
	res.Reports = reports.snapshot()
	return res
}

// runStage runs the Setup or Pre stage, converting panics — the target's
// own or a harness fault unwinding out of the tracing machinery — into
// harness errors. A hostile stage must degrade into an error return, never
// crash the campaign process: only the Post stage was guarded before, so a
// panicking Setup or Pre took down every remaining failure point with it.
func runStage(name string, fn func(*Ctx) error, ctx *Ctx) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: %s panicked: %v", name, p)
		}
	}()
	if err := fn(ctx); err != nil {
		return fmt.Errorf("core: %s failed: %w", name, err)
	}
	return nil
}

// runner holds the mutable state of one detection run, or of one sibling
// of a Workers > 1 run. The state belongs to the goroutine running the
// pre-failure stage — concurrent mutator threads reach it only under
// sinkMu — and the post-failure stage runs inline on that goroutine (or on
// a timed goroutine it waits for under PostRunTimeout), reaching the
// runner only through the shared report set.
type runner struct {
	ctx     context.Context
	cfg     Config
	target  Target
	pool    *pmem.Pool
	sh      *shadow.PM
	reports *reportSet
	// cbMu serializes OnPostRunComplete callbacks across siblings.
	cbMu *sync.Mutex
	// sibling is this runner's index among the process's siblings
	// (Config.Workers; 1 when sequential), which split the failure points
	// the process owns (prune.go).
	sibling, siblings int

	keptTrace   *trace.Trace
	preEntries  int
	postEntries int
	benign      uint64

	failurePoints int
	postRuns      int
	opsSinceFP    int
	opsEver       int

	roiActive     bool
	skipFailure   int
	detectionDone bool
	setupPhase    bool

	// recordErr latches the first artifact-writer failure of a recording
	// pass (replay.go); the run fails with it instead of finalizing a
	// short artifact.
	recordErr error

	// Crash-state pruning (prune.go): classes maps the fingerprint of
	// every class whose representative resolved it to its verdict, true
	// when clean.
	classes       map[uint64]bool
	classesTested int
	prunedFPs     int
	cacheHitFPs   int

	// sinkMu serializes trace recording and failure injection, so
	// multithreaded mutators are traced safely (§7: the paper's frontend
	// is thread-safe via Pin's locking primitives). As in the paper,
	// failure injection assumes threads perform independent operations;
	// collaborative concurrent updates to one PM object are out of scope.
	sinkMu sync.Mutex

	postTime time.Duration

	// Degradation accounting.
	incomplete    bool
	incompleteWhy string
	skippedFPs    int
	abandonedRuns int
	resumedFPs    int
	otherShardFPs int
	harnessFaults []string
}

// markIncomplete records the first cause of degradation.
func (r *runner) markIncomplete(why string) {
	if !r.incomplete {
		r.incomplete = true
		r.incompleteWhy = why
	}
}

// noteSkipped accounts one failure point whose post-run was not (fully)
// executed because the run was cancelled.
func (r *runner) noteSkipped(why string) {
	r.skippedFPs++
	r.markIncomplete(why)
}

// noteQuarantined accounts a failure point abandoned after a harness fault
// survived its retry.
func (r *runner) noteQuarantined(fpID int, err error) {
	msg := fmt.Sprintf("failure point %d quarantined: %v", fpID, err)
	r.skippedFPs++
	r.harnessFaults = append(r.harnessFaults, msg)
	r.markIncomplete(msg)
}

// completeFP delivers the checkpoint callback for one completed post-run.
// fpr is the point's crash-state fingerprint (zero when pruning is off).
func (r *runner) completeFP(fpID int, fpr uint64, fresh []Report) {
	if cb := r.cfg.OnPostRunComplete; cb != nil {
		r.cbMu.Lock()
		cb(fpID, fpr, fresh)
		r.cbMu.Unlock()
	}
}

func (r *runner) mode() Mode { return r.cfg.Mode }

func (r *runner) maxPostOps() int {
	if r.cfg.MaxPostOps > 0 {
		return r.cfg.MaxPostOps
	}
	return defaultMaxPostOps
}

// preSink receives the pre-failure trace. It is the runner itself, typed
// separately so the Record method does not pollute runner's method set.
type preSink runner

// Record implements pmem.Sink for the pre-failure stage: count, keep,
// replay into the shadow PM, and track operations for the
// elide-empty-failure-interval optimization (§5.4).
func (s *preSink) Record(e trace.Entry) {
	r := (*runner)(s)
	r.sinkMu.Lock()
	defer r.sinkMu.Unlock()
	r.recordLocked(e)
}

// recordLocked is Record's body; callers hold sinkMu.
func (r *runner) recordLocked(e trace.Entry) {
	r.preEntries++
	if r.keptTrace != nil {
		r.keptTrace.Append(e)
	}
	if r.sh != nil {
		r.sh.Apply(e)
	}
	switch e.Kind {
	case trace.Write, trace.NTStore, trace.CLWB, trace.CLFlush,
		trace.TxAdd, trace.TxAlloc, trace.TxFree, trace.AtomicAlloc:
		r.opsSinceFP++
		r.opsEver++
	}
}

func (r *runner) onPerfBug(b shadow.PerfBug) {
	r.reports.add(Report{
		Class:        Performance,
		Addr:         b.Addr,
		Size:         b.Size,
		ReaderIP:     b.IP,
		FailurePoint: -1,
		PerfKind:     b.Kind,
	})
}

// onOrderingPoint runs immediately before each SFence (§4.2): persistent
// data can only become consistent after an ordering point, so checking
// right before each one covers all distinguishable failure states.
func (r *runner) onOrderingPoint() {
	r.sinkMu.Lock()
	defer r.sinkMu.Unlock()
	if r.cfg.Mode != ModeDetect || r.detectionDone || r.setupPhase ||
		!r.roiActive || r.skipFailure > 0 {
		return
	}
	// Optimization (§5.4): no PM operations since the last failure point
	// means the PM state is unchanged; skip the redundant failure point.
	if r.opsSinceFP == 0 && !r.cfg.DisableFailurePointElision {
		return
	}
	if r.cfg.MaxFailurePoints > 0 && r.failurePoints >= r.cfg.MaxFailurePoints {
		r.detectionDone = true
		return
	}
	r.injectFailure()
}

// maybeInjectFinal injects one failure point at the end of the pre-failure
// RoI, testing the quiescent state after the last ordering point.
func (r *runner) maybeInjectFinal() {
	r.sinkMu.Lock()
	defer r.sinkMu.Unlock()
	if r.cfg.Mode != ModeDetect || r.detectionDone || r.opsEver == 0 {
		return
	}
	r.injectFailure()
}

// injectFailureSync is the entry point for on-demand failure points
// (Ctx.AddFailurePoint).
func (r *runner) injectFailureSync() {
	r.sinkMu.Lock()
	defer r.sinkMu.Unlock()
	r.injectFailure()
}

// injectFailure suspends the pre-failure execution, copies the PM image and
// runs the post-failure stage on the copy (Fig. 8 steps 2–6). Callers hold
// sinkMu, so concurrent mutator threads are suspended for the duration,
// like the paper's frontend suspending the program at the failure point.
func (r *runner) injectFailure() {
	fpID := r.failurePoints
	r.failurePoints++
	r.opsSinceFP = 0
	r.recordLocked(trace.Entry{Kind: trace.FailurePoint, Stage: trace.PreFailure})
	if r.cfg.Record != nil {
		r.recordFailurePoint(fpID)
	}
	r.dispatchFP(fpID)
}

// dispatchFP runs everything that happens at an injected failure point
// after its marker is recorded: checkpoint resume, the ownership test
// (under pruning by the fingerprint's class), the cancellation boundary,
// crash-state pruning, and the post-run itself. It is shared verbatim by
// live injection (injectFailure) and recorded replay
// (replayFailurePoint), so a replayed campaign makes exactly the
// decisions a live one would. Callers hold sinkMu.
func (r *runner) dispatchFP(fpID int) {
	if r.target.Post == nil {
		return
	}
	if r.cfg.CompletedFailurePoints[fpID] {
		// Crash-safe resume: a previous campaign already executed this
		// post-run; its reports arrived via Config.SeedReports.
		r.noteResumed()
		return
	}
	var fpr uint64
	var own owner
	if r.pruning() {
		fpr = r.sh.CrashFingerprint()
		own = r.classOwner(fpr)
	} else {
		own = r.pointOwner(fpID)
	}
	if own != ownedHere {
		r.noteDelegated(own)
		return
	}
	if r.ctx.Err() != nil {
		// Cancellation boundary: the point keeps its number and bucket,
		// so the partial result is honest about the campaign's coverage.
		r.noteSkipped(fmt.Sprintf("run cancelled: %v", context.Cause(r.ctx)))
		return
	}
	rep := false
	if r.pruning() {
		var handled bool
		rep, fpr, handled = r.enterClass(fpID, fpr)
		if handled {
			return
		}
	}
	start := time.Now()
	r.runPost(fpID, fpr, rep)
	r.postTime += time.Since(start)
}

// postOutcome is the result of one post-run attempt.
type postOutcome struct {
	// err is a target-level post failure, reported as a PostFailureFault.
	err error
	// harness is a harness-internal fault; the attempt is void and the
	// caller retries once before quarantining the failure point.
	harness error
	// abandoned marks a run that exceeded PostRunTimeout; cancelled marks
	// one abandoned because the run's context was cancelled.
	abandoned bool
	cancelled bool
	// benign is the checker's benign byte count (zero for void attempts).
	benign uint64
	// ents is the number of trace entries the attempt recorded (zero for
	// void attempts: a harness-faulted attempt is retried in full, so
	// counting its partial entries would double-count them).
	ents int
	// fresh lists the reports this attempt newly added to the global set.
	fresh []Report
}

// classifyPost folds a finished post-stage call into an outcome,
// separating harness-internal faults from target-level ones.
func classifyPost(err error, benign uint64, ents int, fresh []Report) postOutcome {
	var hf *pmem.HarnessFault
	if errors.As(err, &hf) {
		// Reports added before the fault stay in the global set (they are
		// real observations); keep them for checkpointing, but the partial
		// benign/entry statistics of a void attempt are discarded.
		return postOutcome{harness: err, fresh: fresh}
	}
	return postOutcome{err: err, benign: benign, ents: ents, fresh: fresh}
}

// abandonSignal unwinds an abandoned post-run goroutine at its next PM
// operation; the deciding side already accounted the run.
type abandonSignal struct{}

// postGate mediates between an abandoned post-run goroutine and the rest of
// the run. Every sink delivery takes the gate mutex and checks the
// abandoned flag first, so after abandon() returns, the runaway goroutine
// can never again touch the shadow PM, the checker, or the runner — the
// abandoning side may safely continue using them.
type postGate struct {
	mu        sync.Mutex
	abandoned bool
	// ch is closed on abandonment; long-running post stages can select on
	// it (Ctx.Abandoned) to wind down promptly without touching PM.
	ch chan struct{}
}

func newPostGate() *postGate { return &postGate{ch: make(chan struct{})} }

func (g *postGate) abandon() {
	g.mu.Lock()
	if !g.abandoned {
		g.abandoned = true
		close(g.ch)
	}
	g.mu.Unlock()
}

// enter is called at the top of every gated sink delivery; the caller must
// hold the gate for the duration of the delivery (Record defers unlock).
func (g *postGate) enter() {
	g.mu.Lock()
	if g.abandoned {
		g.mu.Unlock()
		panic(abandonSignal{})
	}
}

// runPost executes fpID's post-failure stage with the
// retry-once-then-quarantine policy: a harness-faulted attempt is void and
// retried once, and a second fault quarantines the failure point. Reports
// a void attempt added before faulting are kept — they are real
// observations — but its entry/benign statistics are discarded. rep marks
// the representative of fpr's class, which the outcome then resolves.
func (r *runner) runPost(fpID int, fpr uint64, rep bool) {
	out := r.attemptPost(fpID)
	if out.harness != nil {
		prevFresh := out.fresh
		out = r.attemptPost(fpID) // retry once
		out.fresh = append(prevFresh, out.fresh...)
	}
	if out.harness != nil {
		r.noteQuarantined(fpID, out.harness)
	} else {
		r.finishPost(fpID, fpr, out)
	}
	if rep {
		// The verdict is final: a clean class prunes its later members, a
		// dirty one runs them.
		r.classes[fpr] = out.clean()
	}
}

// attemptPost executes one post-failure run for fpID on a copy-on-write
// view of a fresh image snapshot, checking it against the shadow PM. The
// image copy contains ALL updates, including non-persisted ones (footnote
// 3); the shadow PM is what distinguishes them. Each attempt snapshots, so
// the fault hook sees one consultation per attempt; the retry's snapshot
// is cheap — the suspended pre-failure stage dirtied nothing in between —
// and its new view drops the faulted attempt's overlay. The run is inline
// when no deadline is configured, on its own goroutine under
// PostRunTimeout otherwise.
func (r *runner) attemptPost(fpID int) postOutcome {
	snap, err := r.pool.SnapshotErr(fpID)
	if err != nil {
		return postOutcome{harness: err}
	}
	post := pmem.FromSnapshot(r.pool.Name()+"@post", snap)
	post.SetFaultHooks(r.cfg.FaultHooks)
	post.SetStage(trace.PostFailure)
	checker := r.sh.BeginPostCheck()
	sink := &postSink{r: r, checker: checker, fpID: fpID}
	ctx := &Ctx{r: r, pool: post, stage: trace.PostFailure, failurePoint: fpID}
	if r.target.ExplicitRoI {
		// Outside the post-failure RoI nothing is checked; RoIBegin
		// re-enables checking.
		post.EnterSkipDetection()
		ctx.postOutsideRoI = true
	}
	if r.cfg.PostRunTimeout <= 0 {
		post.SetSink(sink)
		return classifyPost(safePostCall(r.target.Post, ctx), checker.Benign, sink.ents, sink.fresh)
	}
	gate := newPostGate()
	sink.gate = gate
	ctx.gate = gate
	post.SetSink(sink)
	done := make(chan error, 1)
	go func() { done <- safePostCall(r.target.Post, ctx) }()
	return awaitPost(r, gate, done, sink, func(err error) postOutcome {
		return classifyPost(err, checker.Benign, sink.ents, sink.fresh)
	})
}

// safePostCall runs the post-failure stage, converting panics into
// post-failure faults: a crashing recovery (the paper's segmentation-fault
// scenario in Fig. 1, or its Bug 4 failed pool open) is itself an
// observable cross-failure bug, as is one that spins past its operation
// budget.
func safePostCall(post func(*Ctx) error, ctx *Ctx) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = classifyPostPanic(p)
		}
	}()
	return post(ctx)
}

// awaitPost waits for a timed post-run: completion, deadline expiry, or
// cancellation, whichever comes first. The sink is only read after
// abandon(), when the runaway goroutine can no longer record into it.
func awaitPost(r *runner, gate *postGate, done <-chan error, sink *postSink, classify func(error) postOutcome) postOutcome {
	timer := time.NewTimer(r.cfg.PostRunTimeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return classify(err)
	case <-timer.C:
		// Prefer a completion racing with the deadline.
		select {
		case err := <-done:
			return classify(err)
		default:
		}
		gate.abandon()
		return postOutcome{abandoned: true, ents: sink.ents, fresh: sink.fresh}
	case <-r.ctx.Done():
		gate.abandon()
		return postOutcome{cancelled: true}
	}
}

// finishPost folds a non-quarantined post-run outcome into the result
// state: post-run statistics, fault reports, abandonment accounting, and
// the checkpoint callback. Cancelled runs are counted as skipped and not
// checkpointed, so a resumed campaign re-executes them; deadline-abandoned
// runs are deterministic (the uninterrupted campaign times out the same
// way) and are reported and checkpointed. The fault rides on the point's
// own line whether or not the deduplicated set already holds it, so the
// line alone tells a dirty post-run from a clean one.
func (r *runner) finishPost(fpID int, fpr uint64, out postOutcome) {
	if out.cancelled {
		r.noteSkipped("run cancelled during a post-failure execution")
		return
	}
	r.postRuns++
	r.benign += out.benign
	r.postEntries += out.ents
	if out.abandoned {
		r.abandonedRuns++
		out.err = fmt.Errorf("post-failure stage abandoned after its %v deadline (runaway execution not touching PM)", r.cfg.PostRunTimeout)
	}
	if out.err != nil {
		rep := Report{Class: PostFailureFault, FailurePoint: fpID, Message: out.err.Error()}
		r.reports.add(rep)
		out.fresh = append(out.fresh, rep)
	}
	r.completeFP(fpID, fpr, out.fresh)
}

// classifyPostPanic maps a recovered post-stage panic to its error (nil for
// the signals that mean "stop silently").
func classifyPostPanic(p any) error {
	switch v := p.(type) {
	case terminationSignal:
		return nil
	case abandonSignal:
		// The abandoning side already accounted this run; the goroutine
		// just needs to unwind.
		return nil
	case postBudgetExceeded:
		return fmt.Errorf("post-failure stage exceeded %d PM operations (likely an infinite loop on inconsistent state)", v.ops)
	case *pmem.HarnessFault:
		return fmt.Errorf("harness fault in post-failure stage: %w", v)
	default:
		return fmt.Errorf("post-failure stage crashed: %v", p)
	}
}

// postSink receives the post-failure trace of one failure point and checks
// it against the runner's shadow PM. It counts entries only locally
// (ents): the runner folds them into its statistics iff the attempt
// completes, so a void (harness-faulted) attempt leaks nothing into
// Result.PostEntries.
type postSink struct {
	r       *runner
	checker *shadow.PostChecker
	fpID    int
	ents    int
	// gate is non-nil on timed post-runs; fresh collects the reports this
	// post-run newly added (for checkpointing).
	gate  *postGate
	fresh []Report
}

// Record implements pmem.Sink for a post-failure stage. It runs on the
// goroutine executing the post-failure stage, so exceeding the operation
// budget can unwind that stage directly by panicking.
func (s *postSink) Record(e trace.Entry) {
	if s.gate != nil {
		s.gate.enter()
		defer s.gate.mu.Unlock()
	}
	s.ents++
	if s.ents > s.r.maxPostOps() {
		panic(postBudgetExceeded{ops: s.ents})
	}
	switch e.Kind {
	case trace.Write, trace.NTStore:
		// Post-failure writes overwrite the old data; the range becomes
		// consistent for the rest of this post-failure run (§5.4).
		s.checker.OnWrite(e.Addr, e.Size)
	case trace.Read:
		if e.SkipDetection {
			return
		}
		for _, f := range s.checker.OnRead(e.Addr, e.Size) {
			class := CrossFailureRace
			if f.Class == shadow.ClassSemantic {
				class = CrossFailureSemantic
			}
			rep := Report{
				Class:        class,
				Addr:         f.Addr,
				Size:         f.Size,
				ReaderIP:     e.IP,
				WriterIP:     f.WriterIP,
				FailurePoint: s.fpID,
			}
			if s.r.reports.add(rep) {
				s.fresh = append(s.fresh, rep)
			}
		}
	case trace.RegCommitVar, trace.RegCommitRange:
		// Recovery code may (re-)register commit variables, e.g. when
		// reopening a pool; registrations are idempotent.
		s.r.sh.Apply(e)
	}
}
