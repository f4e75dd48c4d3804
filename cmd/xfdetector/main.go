// Command xfdetector runs cross-failure bug detection on one of the
// evaluated PM programs, mirroring the paper artifact's run.sh:
//
//	xfdetector -workload btree -init 5 -test 5 -patch race1...
//
// Workloads: btree, ctree, rbtree, hashmap-tx, hashmap-atomic, redis,
// memcached. Patches are the synthetic bugs of Table 5 (list them with
// -list); an empty patch tests the correct program.
//
// Long campaigns can checkpoint completed failure points with -checkpoint
// and, after a crash or ^C, continue with -resume; see README.md
// ("Resilience & resume"). Campaigns shard across processes with
// -shards/-shard-index (manual) and -merge (union shard checkpoints into
// one report), -spawn N (a campaign daemon and N workers in this process),
// or -serve/-worker/-submit (the same fleet across machines); see
// README.md ("Sharded campaigns", "Distributed campaigns").
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/pmredis"
	"github.com/pmemgo/xfdetector/internal/record"
	"github.com/pmemgo/xfdetector/internal/serve"
	"github.com/pmemgo/xfdetector/internal/vcache"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

// diskFaultEnv injects one deterministic disk fault class into a
// file-backed campaign (pmem.DiskFaultHooksFromSpec); the CI smoke uses it
// to prove the quarantine path end to end.
const diskFaultEnv = "XFDETECTOR_DISK_FAULT"

var shortNames = map[string]string{
	"btree":          "B-Tree",
	"ctree":          "C-Tree",
	"rbtree":         "RB-Tree",
	"hashmap-tx":     "Hashmap-TX",
	"hashmap-atomic": "Hashmap-Atomic",
}

func main() {
	args := os.Args[1:]
	// A shard or record child started by a worker or daemon receives its
	// authoritative argument vector through the environment (see
	// serve.ShardArgsEnv); argv carries the same flags for visibility in
	// ps/pkill only.
	if encoded := os.Getenv(serve.ShardArgsEnv); encoded != "" {
		if err := json.Unmarshal([]byte(encoded), &args); err != nil {
			fmt.Fprintf(os.Stderr, "xfdetector: bad %s: %v\n", serve.ShardArgsEnv, err)
			os.Exit(2)
		}
	}
	os.Exit(realMain(args))
}

// realMain is the whole program behind an exit code, so tests can drive the
// CLI in-process or as a re-exec'd helper. Codes: 0 clean, 1 bugs found,
// 2 usage or harness error, 3 campaign incomplete (cancelled or degraded —
// resume it before trusting coverage).
func realMain(args []string) int {
	fs := flag.NewFlagSet("xfdetector", flag.ContinueOnError)
	var (
		workload     = fs.String("workload", "btree", "btree | ctree | rbtree | hashmap-tx | hashmap-atomic | redis | memcached")
		initSize     = fs.Int("init", 5, "insertions while initializing the PM image (INITSIZE)")
		testSize     = fs.Int("test", 5, "insertions in the pre-failure stage (TESTSIZE)")
		updates      = fs.Int("updates", 1, "value updates in the pre-failure stage")
		removes      = fs.Int("removes", 1, "removals in the pre-failure stage")
		patch        = fs.String("patch", "", "synthetic bug to inject (see -list); empty = correct program")
		list         = fs.Bool("list", false, "list available patches and exit")
		mode         = fs.String("mode", "detect", "detect | trace | original (the Fig. 12b configurations)")
		maxFP        = fs.Int("max-failure-points", 0, "cap on injected failure points (0 = unlimited)")
		poolMB       = fs.Int("pool-mb", 4, "PM pool size in MiB")
		workers      = fs.Int("workers", 1, "post-failure worker goroutines (>1 enables parallel detection)")
		postTimeout  = fs.Duration("post-timeout", 0, "wall-clock deadline per post-failure run (0 = none)")
		noPrune      = fs.Bool("no-prune", false, "run every failure point instead of testing one representative per crash-state class (ablation; the report-key set is identical either way)")
		vcachePath   = fs.String("verdict-cache", "", "consult and extend this fsynced on-disk crash-state verdict cache, keyed by (program/config identity, fingerprint): failure points whose class a previous campaign of the identical program resolved cleanly skip their post-runs (CacheHits). With -spawn it is the in-process daemon's cache, one file for every shard, keyed by the campaign's argument vector; -serve holds its own under -workdir")
		noCrossShard = fs.Bool("no-cross-shard-prune", false, "ablation: daemon-scheduled shards run every class representative themselves instead of claiming classes against the campaign's cross-shard registry (the report-key set is identical either way)")
		noVCache     = fs.Bool("no-verdict-cache", false, "ablation: ignore the on-disk verdict cache (local -verdict-cache and the -serve daemon's cache alike)")
		updRounds    = fs.Int("update-rounds", 1, "repeat the -updates pass this many times with identical values (the pruning ablation's repetitive-loop shape)")
		ckptPath     = fs.String("checkpoint", "", "append completed failure points to this JSONL file")
		resume       = fs.Bool("resume", false, "skip failure points already recorded in -checkpoint (and reopen the -pool-file, skipping the writeback of already-persisted pages)")
		poolFile     = fs.String("pool-file", "", "back the PM pool with this mmap'd file, persisted with range-batched msync at every ordering point and failure-point snapshot; a fresh campaign refuses an existing file (-resume reopens it). With -spawn the value marks the request and each shard gets <workdir>/c<N>/shard<i>.pool")
		workdir      = fs.String("workdir", "", "daemon directory for -spawn and -serve (default: a fresh temporary directory): each campaign gets the first free c<N>/ with its shard checkpoints (shard<i>.ckpt) and pool files (shard<i>.pool)")
		keysOut      = fs.String("keys-out", "", "write the sorted deduplicated report keys to this file")
		recordPath   = fs.String("record", "", "record the deterministic pre-failure pass once into this artifact (trace + engine checkpoints + pool deltas) and exit without post-failure runs; shards, -resume, and -serve workers replay it with -from-record instead of re-executing the program")
		fromRecord   = fs.String("from-record", "", "replay the pre-failure stage from this recorded artifact instead of executing the program, fast-forwarding through the nearest engine checkpoint below the first owned failure point; the artifact's program identity must match this campaign's flags")
		noFF         = fs.Bool("no-fast-forward", false, "ablation: the campaign daemon (-spawn, -submit) skips the record-once pass and every shard re-executes the pre-failure stage live (the report-key set is identical either way)")
		shards       = fs.Int("shards", 0, "total shards of a partitioned campaign (this process runs failure points fp%%shards == shard-index)")
		shardIndex   = fs.Int("shard-index", -1, "this process's shard in [0, shards)")
		spawn        = fs.Int("spawn", 0, "run the campaign as this many shards on a campaign daemon and as many worker loops inside this process (-serve, N x -worker and -submit in one command): crashed shards are rescheduled with -resume and the merged report is printed")
		merge        = fs.Bool("merge", false, "merge mode: union the checkpoint files given as arguments into one report (use before positional operands, e.g. -merge -keys-out k.txt a.ckpt b.ckpt)")
		serveAddr    = fs.String("serve", "", "run the distributed campaign daemon on this address (host:port); campaigns arrive over the HTTP/JSON API and are scheduled as shard leases onto -worker processes")
		workerURL    = fs.String("worker", "", "join the fleet of the campaign daemon at this URL: poll for shard leases, run each shard in a subprocess, and stream its checkpoint lines back")
		submitURL    = fs.String("submit", "", "submit the campaign described by the workload flags to the daemon at this URL (-shards N picks the shard count), wait for it, and print the merged report")
		leaseTTL     = fs.Duration("lease-ttl", 15*time.Second, "daemon heartbeat deadline per lease: a worker silent this long loses the lease and its shard is rescheduled with -resume")
		heartbeatIv  = fs.Duration("heartbeat", 5*time.Second, "worker keepalive period while a shard child runs")
		killGrace    = fs.Duration("kill-grace", serve.DefaultKillGrace, "grace period after SIGTERM before a shard or record child that ignores cancellation is SIGKILLed (worker lease teardown, daemon shutdown)")
		verbose      = fs.Bool("v", false, "print per-run statistics even when clean")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		listPatches()
		return 0
	}
	modes := 0
	for _, on := range []bool{*merge, *spawn != 0, *serveAddr != "", *workerURL != "", *submitURL != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return errorf("-merge, -spawn, -serve, -worker and -submit are mutually exclusive modes")
	}
	if *recordPath != "" && modes > 0 {
		return errorf("-record is a standalone recording pass (-spawn and -serve record automatically; -no-fast-forward disables that)")
	}
	if *fromRecord != "" && (*merge || *serveAddr != "" || *workerURL != "" || *submitURL != "") {
		return errorf("-from-record applies to a detection run or a -spawn fleet; drop it here")
	}
	if *merge {
		if *shards > 0 {
			return errorf("-merge cannot be combined with -shards")
		}
		return runMerge(fs.Args(), true, *keysOut)
	}
	if *serveAddr != "" {
		if *shards > 0 || *shardIndex >= 0 {
			return errorf("-serve does not take a shard layout; -submit picks -shards per campaign")
		}
		if *vcachePath != "" {
			return errorf("-serve keeps its verdict cache under -workdir; drop -verdict-cache")
		}
		return runServe(*serveAddr, *workdir, *leaseTTL, *killGrace)
	}
	if *workerURL != "" {
		if *shards > 0 || *shardIndex >= 0 || *workdir != "" {
			return errorf("-worker takes its shard assignments from the daemon; drop -shards/-shard-index/-workdir")
		}
		return runWorker(*workerURL, *heartbeatIv, *killGrace)
	}
	if *submitURL != "" {
		switch {
		case *shardIndex >= 0:
			return errorf("-submit does not take -shard-index; the daemon schedules every shard")
		case *shards < 0:
			return errorf("-shards must be >= 0")
		case *workdir != "":
			return errorf("-workdir belongs to the daemon (-serve or -spawn), not -submit")
		case *ckptPath != "" || *resume:
			return errorf("-submit campaigns checkpoint on the daemon; drop -checkpoint/-resume")
		case *vcachePath != "":
			return errorf("-submit campaigns use the daemon's verdict cache; drop -verdict-cache (-no-verdict-cache opts a campaign out)")
		}
		campaignShards := *shards
		if campaignShards == 0 {
			campaignShards = 1
		}
		return runSubmit(*submitURL, serve.CampaignSpec{Args: shardBaseArgs(fs), Shards: campaignShards, PoolFile: *poolFile != ""}, *keysOut)
	}
	if *vcachePath != "" && *noPrune {
		return errorf("-verdict-cache requires pruning; drop -no-prune")
	}
	if *fromRecord != "" && *noFF {
		return errorf("-no-fast-forward runs the pre-failure stage live; drop -from-record")
	}
	if *spawn != 0 {
		switch {
		case *spawn < 2:
			return errorf("-spawn needs at least 2 shards")
		case *shards > 0 || *shardIndex >= 0:
			return errorf("-spawn derives the shard layout itself; drop -shards/-shard-index")
		case *ckptPath != "" || *resume:
			return errorf("-spawn campaigns checkpoint on the in-process daemon under -workdir; drop -checkpoint/-resume")
		case *poolFile != "" && !slices.Contains(workerCaps(), serve.CapFileBacked):
			return errorf("-pool-file needs file-backed pools, which workers on %s cannot run", runtime.GOOS)
		}
		return runSpawn(serve.CampaignSpec{Args: shardBaseArgs(fs), Shards: *spawn, PoolFile: *poolFile != ""},
			*workdir, *vcachePath, *fromRecord, *keysOut, *leaseTTL, *heartbeatIv, *killGrace)
	}
	switch {
	case *shards < 0:
		return errorf("-shards must be >= 0")
	case *shards > 1 && (*shardIndex < 0 || *shardIndex >= *shards):
		return errorf("-shards %d requires -shard-index in [0, %d)", *shards, *shards)
	case *shards <= 1 && *shardIndex >= 0:
		return errorf("-shard-index requires -shards > 1")
	}
	if *workdir != "" {
		return errorf("-workdir belongs to the daemon (-spawn or -serve)")
	}

	cfg := core.Config{
		PoolSize:         uint64(*poolMB) << 20,
		MaxFailurePoints: *maxFP,
		Workers:          *workers,
		PostRunTimeout:   *postTimeout,
		DisablePruning:   *noPrune,
	}
	// Deterministic disk-fault injection for the degradation smoke tests:
	// XFDETECTOR_DISK_FAULT=disk-full:N | short-msync:N | torn-mmap:N arms
	// the class at the N-th msync-range consultation (and its retry), so a
	// file-backed campaign quarantines exactly the affected failure point.
	var diskHooks *pmem.FaultHooks
	if spec := os.Getenv(diskFaultEnv); spec != "" {
		h, err := pmem.DiskFaultHooksFromSpec(spec)
		if err != nil {
			return errorf("%s: %v", diskFaultEnv, err)
		}
		diskHooks = h
		cfg.FaultHooks = h
	}
	if *poolFile != "" {
		cfg.Backend = pmem.FileBackend{Path: *poolFile, Resume: *resume, Hooks: diskHooks}
	}
	if *shards > 1 {
		cfg.ShardCount = *shards
		cfg.ShardIndex = *shardIndex
	}
	switch *mode {
	case "detect":
		cfg.Mode = core.ModeDetect
	case "trace":
		cfg.Mode = core.ModeTraceOnly
	case "original":
		cfg.Mode = core.ModeOriginal
	default:
		return errorf("unknown mode %q", *mode)
	}

	if *recordPath != "" {
		switch {
		case *fromRecord != "":
			return errorf("-record and -from-record are mutually exclusive")
		case *mode != "detect":
			return errorf("-record requires -mode detect (the artifact carries detection state)")
		case *shards > 0 || *shardIndex >= 0:
			return errorf("-record captures the whole campaign once; drop -shards/-shard-index")
		case *ckptPath != "" || *resume:
			return errorf("-record runs no post-failure executions; drop -checkpoint/-resume")
		case *poolFile != "":
			return errorf("-record needs a memory-backed pool (the artifact replaces the durable image); drop -pool-file")
		case *vcachePath != "":
			return errorf("-record runs no post-failure executions; drop -verdict-cache")
		}
	}
	var recordFile *os.File
	if *recordPath != "" {
		f, err := os.Create(*recordPath)
		if err != nil {
			return errorf("creating -record artifact: %v", err)
		}
		defer f.Close()
		recordFile = f
		cfg.Record = record.NewWriter(f, programIdentity(*workload, *patch, *mode, *initSize,
			*testSize, *updates, *updRounds, *removes, *poolMB, *maxFP), cfg.PoolSize, 0)
	}
	if *fromRecord != "" {
		a, err := record.Load(*fromRecord)
		if err != nil {
			return errorf("%v", err)
		}
		id := programIdentity(*workload, *patch, *mode, *initSize,
			*testSize, *updates, *updRounds, *removes, *poolMB, *maxFP)
		if a.Identity != id {
			return errorf("artifact %s was recorded for a different program/config (identity %016x, this campaign %016x); re-record it",
				*fromRecord, a.Identity, id)
		}
		cfg.Replay = a
	}

	if *resume && *ckptPath == "" {
		return errorf("-resume requires -checkpoint")
	}
	var ckptW *checkpointWriter
	if *ckptPath != "" {
		if *resume {
			cp, err := loadCheckpoint(*ckptPath)
			if err != nil {
				return errorf("loading checkpoint: %v", err)
			}
			cfg.CompletedFailurePoints = cp.Done
			cfg.SeedReports = cp.Seed
		}
		w, err := openCheckpoint(*ckptPath, *resume)
		if err != nil {
			return errorf("opening checkpoint: %v", err)
		}
		defer w.close()
		ckptW = w
		cfg.OnPostRunComplete = w.record
	}
	if cfg.Mode == core.ModeDetect && !*noPrune {
		// Cross-process verdict sharing. A daemon-scheduled shard (the
		// -worker sets the env pair) claims classes against the campaign's
		// registry over the lease API; a standalone campaign consults the
		// on-disk cross-campaign cache directly.
		url, lease := os.Getenv(serve.VerdictURLEnv), os.Getenv(serve.VerdictLeaseEnv)
		switch {
		case url != "" && lease != "" && !*noCrossShard:
			cfg.Verdicts = &serve.LeaseVerdicts{Client: &serve.Client{BaseURL: url}, Lease: lease}
		case *vcachePath != "" && !*noVCache:
			vc, err := vcache.Open(*vcachePath)
			if err != nil {
				return errorf("opening verdict cache: %v", err)
			}
			defer vc.Close()
			cfg.Verdicts = vc.Bind(programIdentity(*workload, *patch, *mode, *initSize,
				*testSize, *updates, *updRounds, *removes, *poolMB, *maxFP))
		}
	}
	if *shards > 1 {
		// Shard progress on stderr: a worker forwards these lines,
		// prefixed per shard, while the fleet runs.
		inner := cfg.OnPostRunComplete
		completed := 0
		cfg.OnPostRunComplete = func(fp int, fpr uint64, fresh []core.Report) {
			if inner != nil {
				inner(fp, fpr, fresh)
			}
			completed++ // callbacks are serialized by the detector
			if completed%shardProgressEvery == 0 {
				fmt.Fprintf(os.Stderr, "shard %d/%d: %d failure point(s) completed\n", *shardIndex, *shards, completed)
			}
		}
	}

	target, err := buildTarget(*workload, *patch, workloads.TargetConfig{
		InitSize:     *initSize,
		TestSize:     *testSize,
		Updates:      *updates,
		UpdateRounds: *updRounds,
		Removes:      *removes,
		PostOps:      true,
	})
	if err != nil {
		return errorf("%v", err)
	}

	// ^C (or SIGTERM) cancels at the next failure-point boundary; the
	// partial result is printed, marked INCOMPLETE, and — when
	// checkpointing — resumable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := core.RunContext(ctx, cfg, target)
	if err != nil {
		return errorf("detection failed: %v", err)
	}
	if recordFile != nil {
		if err := recordFile.Sync(); err != nil {
			return errorf("syncing -record artifact: %v", err)
		}
		fmt.Fprintf(os.Stderr, "recorded %d failure point(s) to %s\n", res.FailurePoints, *recordPath)
	}
	if ckptW != nil && !res.Incomplete {
		// The campaign over this checkpoint finished: record the summary
		// line (failure-point total + pre-failure reports) that -merge
		// needs to prove the union of shard checkpoints is complete.
		ckptW.recordSummary(res, *shards)
	}
	if *shards > 1 {
		fmt.Fprintf(os.Stderr, "shard %d/%d: done — %d post-run(s), %d pruned, %d delegated, %d report(s)\n",
			*shardIndex, *shards, res.PostRuns, res.PrunedFailurePoints, res.OtherShardFailurePoints, len(res.Reports))
	}
	// With -checkpoint - the checkpoint JSONL owns stdout (a -worker
	// supervisor is parsing it), so the human-facing report moves to stderr.
	resultOut := io.Writer(os.Stdout)
	if *ckptPath == stdioCheckpoint {
		resultOut = os.Stderr
	}
	fmt.Fprint(resultOut, res)
	if *verbose {
		fmt.Fprintf(resultOut, "mode=%s pool=%dMiB post-timeout=%s\n", cfg.Mode, *poolMB, *postTimeout)
	}
	if *keysOut != "" {
		if err := writeKeys(*keysOut, res.Reports); err != nil {
			return errorf("writing keys: %v", err)
		}
	}
	switch {
	case res.Incomplete:
		return 3
	case !res.Clean():
		return 1
	}
	return 0
}

func buildTarget(workload, patch string, cfg workloads.TargetConfig) (core.Target, error) {
	switch workload {
	case "redis":
		opts := pmredis.Options{}
		switch patch {
		case "":
		case "init-race", "bug3":
			opts.InitRaceBug = true
		default:
			return core.Target{}, fmt.Errorf("redis patches: init-race (the paper's Bug 3)")
		}
		return redisTarget(opts, cfg), nil
	case "memcached":
		if patch != "" {
			return core.Target{}, fmt.Errorf("memcached has no seeded patches")
		}
		return memcachedTarget(cfg), nil
	}

	name, ok := shortNames[workload]
	if !ok {
		return core.Target{}, fmt.Errorf("unknown workload %q", workload)
	}
	m, _ := workloads.MakerFor(name)
	if patch != "" {
		fault, err := resolvePatch(name, patch)
		if err != nil {
			return core.Target{}, err
		}
		cfg.Fault = fault
		cfg.FaultInCreate = true
	}
	return workloads.DetectionTarget(m, cfg), nil
}

// resolvePatch accepts either a full fault name or an unambiguous suffix.
func resolvePatch(workload, patch string) (string, error) {
	var matches []string
	for _, fl := range workloads.FaultsFor(workload) {
		if fl.Name == patch {
			return fl.Name, nil
		}
		if strings.Contains(fl.Name, patch) {
			matches = append(matches, fl.Name)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return "", fmt.Errorf("no patch matching %q for %s (see -list)", patch, workload)
	default:
		return "", fmt.Errorf("ambiguous patch %q: %s", patch, strings.Join(matches, ", "))
	}
}

func listPatches() {
	fmt.Println("Synthetic bug patches (Table 5 of the paper):")
	for _, m := range workloads.Makers() {
		fmt.Printf("\n%s:\n", m.Name)
		for _, fl := range workloads.FaultsFor(m.Name) {
			fmt.Printf("  %-32s %-28s [%s] %s\n", fl.Name, fl.Class, fl.Suite, fl.Description)
		}
	}
	fmt.Printf("\nredis:\n  %-32s %-28s [%s] %s\n",
		"init-race", core.CrossFailureRace, "paper", "Bug 3: num_dict_entries initialized outside the transaction")
}

// shardProgressEvery paces the per-shard stderr progress lines.
const shardProgressEvery = 10

// programIdentity hashes the flags that determine a campaign's crash-state
// classes and reports into the verdict cache's identity key. Shard layout
// and worker count are deliberately excluded — every shard of every layout
// of the same program computes the same fingerprints and verdicts — while
// anything that changes the traced program (workload, patch, sizes,
// mode, the failure-point cap) must change the identity: fingerprints
// cover only the pre-failure state, so two programs differing solely in
// their post-failure stage collide on fingerprints and are told apart by
// identity alone.
func programIdentity(workload, patch, mode string, initSize, testSize, updates, updRounds, removes, poolMB, maxFP int) uint64 {
	return vcache.Identity(
		"workload="+workload,
		"patch="+patch,
		"mode="+mode,
		fmt.Sprintf("init=%d", initSize),
		fmt.Sprintf("test=%d", testSize),
		fmt.Sprintf("updates=%d", updates),
		fmt.Sprintf("update-rounds=%d", updRounds),
		fmt.Sprintf("removes=%d", removes),
		fmt.Sprintf("pool-mb=%d", poolMB),
		fmt.Sprintf("max-failure-points=%d", maxFP),
	)
}

// shardBaseArgs rebuilds the workload/engine flags -submit and -spawn
// send as a campaign's argument vector, shared by every shard: every flag
// the user set except the ones the daemon, the workers or this process
// own (shard layout, checkpoint paths, merge/keys output, fleet settings).
// The -name=value form keeps boolean flags parseable.
func shardBaseArgs(fs *flag.FlagSet) []string {
	owned := map[string]bool{
		"spawn": true, "merge": true, "shards": true, "shard-index": true,
		"checkpoint": true, "resume": true, "keys-out": true, "list": true,
		"pool-file": true, "workdir": true, "verdict-cache": true,
		"record": true, "from-record": true,
		"serve": true, "worker": true, "submit": true,
		"lease-ttl": true, "heartbeat": true, "kill-grace": true,
	}
	var args []string
	fs.Visit(func(f *flag.Flag) {
		if !owned[f.Name] {
			args = append(args, fmt.Sprintf("-%s=%s", f.Name, f.Value.String()))
		}
	})
	return args
}

func errorf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "xfdetector: "+format+"\n", args...)
	return 2
}
