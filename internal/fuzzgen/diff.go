package fuzzgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/pmem"
)

// The differential driver: one program, every engine configuration, one
// oracle verdict. Any disagreement is a Mismatch carrying a one-line
// reproducer.

// diffWorkers are the parallel widths every program is checked under.
var diffWorkers = []int{2, 4}

// Mismatch is a disagreement between the detector and the oracle (or
// between two engine configurations). It is the fuzzer's bug report.
type Mismatch struct {
	Program Program
	// Config names the engine configuration that disagreed.
	Config string
	// Field names the compared quantity (keys, failure-points, ...).
	Field string
	// Want is the oracle's prediction, Got the detector's output.
	Want, Got string
	// Repro is a one-line command reproducing the failure; empty for
	// corpus-file programs (the file itself is the reproducer).
	Repro string
}

// Error formats the mismatch with the full key sets, so a failing test log
// alone identifies the divergence.
func (m *Mismatch) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzzgen: %s: %s mismatch on %q\n  oracle: %s\n  engine: %s",
		m.Config, m.Field, m.Program.Name, m.Want, m.Got)
	if m.Repro != "" {
		fmt.Fprintf(&b, "\n  reproduce: %s", m.Repro)
	}
	return b.String()
}

// CheckSeed generates the program for (seed, knob) and differentially
// checks it. The returned error, if any, embeds the `xfdfuzz` reproducer
// line for exactly this failure.
func CheckSeed(seed int64, knob Knob) error {
	p := Generate(seed, knob)
	err := CheckProgram(p)
	var m *Mismatch
	if errors.As(err, &m) {
		m.Repro = fmt.Sprintf("go run ./cmd/xfdfuzz -seed=%d -n=1 -knob=%s", seed, knob)
	}
	return err
}

// CheckProgram runs p through every engine configuration and compares each
// against the oracle:
//
//   - ModeDetect sequential: full comparison (keys, failure points, post
//     runs, benign bytes, trace-entry counts, post-read byte digests);
//   - ModeDetect with Workers ∈ diffWorkers: same full comparison — the
//     parallel engine promises the identical report set. Every full
//     comparison runs on the delta snapshots, copy-on-write post-failure
//     pools and sparse paged shadow, so the oracle, which shares no logic
//     with the shadow or the snapshot code, holds those optimizations to
//     the exact verdicts and the exact bytes every post-failure load
//     observes;
//   - ModeDetect on a file-backed pool (linux only): same full comparison,
//     plus the backing file must hold the byte-identical final image of
//     the setup+pre stores — msync-granularity persistence must be
//     invisible to detection and honest about what reached the medium;
//   - ModeDetect with failure-point elision disabled: full comparison
//     against a second oracle evaluation with elision disabled;
//   - ModeDetect with crash-state pruning enabled (the default; the
//     configurations above pin DisablePruning because the oracle predicts
//     every post-run): identical deduplicated key set, exact
//     PostRuns + PrunedFailurePoints == FailurePoints accounting, every
//     observed post-read byte digest predicted by the oracle, and
//     identical pruning decisions across sequential, parallel and
//     file-backed (cold-page-compacted) runs;
//   - ModeDetect as a three-shard fleet sharing a core.ClassRegistry
//     (cross-shard verdict attribution): identical merged key set, exact
//     per-shard bucket accounting, and exactly one post-run per global
//     crash-state class across the fleet;
//   - ModeDetect as a cold+warm campaign pair sharing an on-disk verdict
//     cache (internal/vcache): both runs reproduce the oracle's key set,
//     the warm run's cache hits equal the entries the cold run persisted
//     and its post-runs shrink by exactly that count;
//   - ModeDetect replayed from a recorded pre-failure artifact
//     (internal/record): sequential, three-shard and deep-jump-resume
//     replays must reproduce the oracle's key set (or the full-trace
//     replay's, for the resume) with exact bucket accounting and
//     oracle-predicted post-read byte digests;
//   - ModeTraceOnly: no failure points, no reports, exactly the op entries;
//   - ModeOriginal: no tracing at all.
//
// A non-Mismatch error means the program (or harness) is broken, not the
// detector; Minimize relies on that distinction.
func CheckProgram(p Program) error {
	want, err := Evaluate(p, EvalOpts{})
	if err != nil {
		return err
	}
	run := func(cfg core.Config) (*core.Result, *PostReadLog, error) {
		cfg.PoolSize = p.PoolSize
		log := &PostReadLog{}
		res, err := core.Run(cfg, BuildTargetRecording(p, log))
		if err != nil {
			return nil, nil, fmt.Errorf("fuzzgen: %q: harness error: %w", p.Name, err)
		}
		return res, log, nil
	}
	checkFull := func(config string, want *OracleResult, cfg core.Config) error {
		res, log, err := run(cfg)
		if err != nil {
			return err
		}
		if err := compareFull(p, config, want, res); err != nil {
			return err
		}
		return compare(p, config, "post-read-bytes",
			strings.Join(want.PostReads, " ; "), strings.Join(log.Canonical(), " ; "))
	}

	if err := checkFull("sequential", want, core.Config{DisablePruning: true}); err != nil {
		return err
	}
	for _, w := range diffWorkers {
		if err := checkFull(fmt.Sprintf("workers=%d", w), want,
			core.Config{Workers: w, DisablePruning: true}); err != nil {
			return err
		}
	}
	if fileBackedDiff {
		if err := checkFileBacked(p, want); err != nil {
			return err
		}
	}

	wantNoElide, err := Evaluate(p, EvalOpts{DisableElision: true})
	if err != nil {
		return err
	}
	if err := checkFull("no-elision", wantNoElide,
		core.Config{DisableFailurePointElision: true, DisablePruning: true}); err != nil {
		return err
	}
	if len(wantNoElide.Keys) != len(want.Keys) {
		// Elision must never change the verdicts, only skip redundant
		// failure points — a property of the oracle itself worth pinning.
		return &Mismatch{Program: p, Config: "oracle", Field: "elision-invariance",
			Want: strings.Join(want.Keys, " ; "), Got: strings.Join(wantNoElide.Keys, " ; ")}
	}

	// Crash-state pruning (the default) skips failure points whose crash
	// state a clean class representative already covered. Its soundness
	// contract is the identical deduplicated key set; its determinism
	// contract is that sequential, parallel and file-backed runs make the
	// identical pruning decisions.
	prunedCfgs := []struct {
		name string
		file bool // back the pool with a file (enables cold-page compaction)
		cfg  core.Config
	}{
		{"pruned", false, core.Config{}},
		{"pruned-workers=2", false, core.Config{Workers: 2}},
		{"pruned-file", true, core.Config{}},
	}
	var prunedResults []*core.Result
	for _, pc := range prunedCfgs {
		cfg := pc.cfg
		if pc.file {
			if !fileBackedDiff {
				continue
			}
			// The file-backed detect-mode run enables the shadow's cold-page
			// compaction, so this configuration doubles as the fuzzer's proof
			// that compaction leaves the crash-state fingerprints — and hence
			// every pruning decision — untouched.
			dir, err := os.MkdirTemp("", "xfdfuzz-pool-")
			if err != nil {
				return fmt.Errorf("fuzzgen: %q: temp pool dir: %w", p.Name, err)
			}
			defer os.RemoveAll(dir)
			cfg.Backend = pmem.FileBackend{Path: filepath.Join(dir, "pool.img")}
		}
		res, err := checkPruned(p, pc.name, want, cfg)
		if err != nil {
			return err
		}
		prunedResults = append(prunedResults, res)
	}
	base := prunedResults[0]
	for i, res := range prunedResults[1:] {
		name := prunedCfgs[i+1].name
		if err := compare(p, name, "pruned-post-runs",
			fmt.Sprint(base.PostRuns), fmt.Sprint(res.PostRuns)); err != nil {
			return err
		}
		if err := compare(p, name, "pruned-failure-points",
			fmt.Sprint(base.PrunedFailurePoints), fmt.Sprint(res.PrunedFailurePoints)); err != nil {
			return err
		}
		if err := compare(p, name, "crash-state-classes",
			fmt.Sprint(base.CrashStateClasses), fmt.Sprint(res.CrashStateClasses)); err != nil {
			return err
		}
	}

	// Verdict sharing (verdicts.go): the same program as a three-shard
	// fleet sharing a class registry, and as a cold+warm campaign pair
	// sharing an on-disk verdict cache. Both must reproduce the oracle's
	// exact key set while redistributing (cross-shard) or skipping
	// (warm-cache) the post-runs.
	if err := checkCrossShard(p, want, base); err != nil {
		return err
	}
	if err := checkWarmCache(p, want, base); err != nil {
		return err
	}

	// Recorded-campaign fast-forward (recorded.go): record the pre-failure
	// pass once, then hold sequential, sharded and checkpoint-jumping
	// replays of the artifact to the oracle and to the live pruned run.
	if err := checkRecorded(p, want, base); err != nil {
		return err
	}

	traceOnly, _, err := run(core.Config{Mode: core.ModeTraceOnly})
	if err != nil {
		return err
	}
	if err := compare(p, "trace-only", "reports", "", joinKeys(traceOnly)); err != nil {
		return err
	}
	if err := compare(p, "trace-only", "failure-points", "0", fmt.Sprint(traceOnly.FailurePoints)); err != nil {
		return err
	}
	if err := compare(p, "trace-only", "pre-entries", fmt.Sprint(want.OpEntries), fmt.Sprint(traceOnly.PreEntries)); err != nil {
		return err
	}

	orig, _, err := run(core.Config{Mode: core.ModeOriginal})
	if err != nil {
		return err
	}
	if err := compare(p, "original", "reports", "", joinKeys(orig)); err != nil {
		return err
	}
	if err := compare(p, "original", "pre-entries", "0", fmt.Sprint(orig.PreEntries)); err != nil {
		return err
	}
	return nil
}

// checkPruned runs p with crash-state pruning enabled (the default
// configuration) and verifies its soundness against the brute-force
// oracle: the identical deduplicated report-key set, the identical
// failure-point count and pre-entries, exact accounting
// (PostRuns + PrunedFailurePoints == FailurePoints), and every observed
// post-failure read byte digest predicted by the oracle for exactly that
// failure point and load — pruned members simply observe nothing. It
// returns the result so CheckProgram can pin cross-configuration
// determinism of the pruning decisions themselves.
func checkPruned(p Program, config string, want *OracleResult, cfg core.Config) (*core.Result, error) {
	cfg.PoolSize = p.PoolSize
	log := &PostReadLog{}
	res, err := core.Run(cfg, BuildTargetRecording(p, log))
	if err != nil {
		return nil, fmt.Errorf("fuzzgen: %q: harness error: %w", p.Name, err)
	}
	if err := compare(p, config, "keys", strings.Join(want.Keys, " ; "), joinKeys(res)); err != nil {
		return nil, err
	}
	if err := compare(p, config, "failure-points",
		fmt.Sprint(want.FailurePoints), fmt.Sprint(res.FailurePoints)); err != nil {
		return nil, err
	}
	if err := compare(p, config, "pre-entries",
		fmt.Sprint(want.PreEntries), fmt.Sprint(res.PreEntries)); err != nil {
		return nil, err
	}
	if err := compare(p, config, "post-run-accounting",
		fmt.Sprint(res.FailurePoints),
		fmt.Sprint(res.PostRuns+res.PrunedFailurePoints)); err != nil {
		return nil, err
	}
	predicted := make(map[string]bool, len(want.PostReads))
	for _, d := range want.PostReads {
		predicted[d] = true
	}
	for _, d := range log.Canonical() {
		if !predicted[d] {
			return nil, &Mismatch{Program: p, Config: config, Field: "post-read-bytes",
				Want: strings.Join(want.PostReads, " ; "), Got: d}
		}
	}
	return res, nil
}

// fileBackedDiff gates the file-backed engine configurations; the mmap'd
// pool file (pmem.FileBackend) is linux-only.
var fileBackedDiff = runtime.GOOS == "linux"

// checkFileBacked runs p on a file-backed pool and holds it to the same
// full comparison as every in-memory configuration — msync-granularity
// persistence must be invisible to detection — plus one check no other
// configuration has: after the run, the backing file must hold the
// byte-identical final image of the setup+pre stores. The durable image is
// what a -resume campaign replays against, and a silently short or torn
// writeback (the seeded short-msync mutant) corrupts exactly those bytes
// while every verdict stays right.
func checkFileBacked(p Program, want *OracleResult) error {
	dir, err := os.MkdirTemp("", "xfdfuzz-pool-")
	if err != nil {
		return fmt.Errorf("fuzzgen: %q: temp pool dir: %w", p.Name, err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "pool.img")

	cfg := core.Config{DisablePruning: true, Backend: pmem.FileBackend{Path: path}}
	cfg.PoolSize = p.PoolSize
	log := &PostReadLog{}
	res, err := core.Run(cfg, BuildTargetRecording(p, log))
	if err != nil {
		return fmt.Errorf("fuzzgen: %q: harness error: %w", p.Name, err)
	}
	if err := compareFull(p, "file-backed", want, res); err != nil {
		return err
	}
	if err := compare(p, "file-backed", "post-read-bytes",
		strings.Join(want.PostReads, " ; "), strings.Join(log.Canonical(), " ; ")); err != nil {
		return err
	}

	got, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("fuzzgen: %q: reading durable image: %w", p.Name, err)
	}
	if wantImg := finalImage(p); !bytes.Equal(got, wantImg) {
		return &Mismatch{Program: p, Config: "file-backed", Field: "durable-image",
			Want: imageDigest(wantImg), Got: imageDigest(got)}
	}
	return nil
}

// finalImage replays the setup+pre Store/NTStore ops over a zeroed pool:
// the image the backing file must hold after the campaign's final persist
// (Close flushes every page still dirty). Post-failure stages never touch
// it — their pools are COW views with no file state.
func finalImage(p Program) []byte {
	img := make([]byte, pmem.LineUp(uint64(p.PoolSize)))
	setupVals, preVals := storeValues(p)
	apply := func(ops []Op, vals map[int]byte) {
		for i, op := range ops {
			if (op.Kind == OpStore || op.Kind == OpNTStore) && op.Size > 0 {
				for j := op.Addr; j < op.Addr+op.Size; j++ {
					img[j] = vals[i]
				}
			}
		}
	}
	apply(p.Setup, setupVals)
	apply(p.Pre, preVals)
	return img
}

// imageDigest renders an image as a short comparable string: length, FNV
// hash, and the first nonzero byte (images diverge in content, and a full
// hex dump of the pool would drown the mismatch report).
func imageDigest(img []byte) string {
	h := fnv.New64a()
	h.Write(img)
	first := -1
	for i, b := range img {
		if b != 0 {
			first = i
			break
		}
	}
	return fmt.Sprintf("%d bytes, fnv %016x, first nonzero at %d", len(img), h.Sum64(), first)
}

// ResultKeys returns a result's sorted report deduplication keys.
func ResultKeys(res *core.Result) []string {
	keys := make([]string, 0, len(res.Reports))
	for _, r := range res.Reports {
		keys = append(keys, r.DedupKey())
	}
	sort.Strings(keys)
	return keys
}

func joinKeys(res *core.Result) string { return strings.Join(ResultKeys(res), " ; ") }

func compare(p Program, config, field, want, got string) error {
	if want == got {
		return nil
	}
	return &Mismatch{Program: p, Config: config, Field: field, Want: want, Got: got}
}

func compareFull(p Program, config string, want *OracleResult, res *core.Result) error {
	if err := compare(p, config, "keys", strings.Join(want.Keys, " ; "), joinKeys(res)); err != nil {
		return err
	}
	if err := compare(p, config, "failure-points", fmt.Sprint(want.FailurePoints), fmt.Sprint(res.FailurePoints)); err != nil {
		return err
	}
	if err := compare(p, config, "post-runs", fmt.Sprint(want.PostRuns), fmt.Sprint(res.PostRuns)); err != nil {
		return err
	}
	if err := compare(p, config, "benign-bytes", fmt.Sprint(want.Benign), fmt.Sprint(res.BenignReads)); err != nil {
		return err
	}
	if err := compare(p, config, "pre-entries", fmt.Sprint(want.PreEntries), fmt.Sprint(res.PreEntries)); err != nil {
		return err
	}
	return compare(p, config, "post-entries", fmt.Sprint(want.PostEntries), fmt.Sprint(res.PostEntries))
}

// Minimize greedily shrinks a mismatching program while CheckProgram still
// returns a Mismatch, deleting one op at a time to a fixpoint. Programs
// whose shrunken form is invalid or merely harness-broken are rejected, so
// minimization cannot wander away from genuine divergences.
func Minimize(p Program) Program {
	return MinimizeCtx(context.Background(), p)
}

// MinimizeCtx is Minimize with a cancellation point between candidate
// programs: on cancellation it stops deleting and returns the smallest
// still-mismatching program found so far, which remains a valid reproducer.
func MinimizeCtx(ctx context.Context, p Program) Program {
	failing := func(cand Program) bool {
		var m *Mismatch
		return errors.As(CheckProgram(cand), &m)
	}
	if !failing(p) {
		return p
	}
	for improved := true; improved; {
		improved = false
		for _, stage := range []*[]Op{&p.Post, &p.Pre, &p.Setup} {
			for i := len(*stage) - 1; i >= 0; i-- {
				if ctx.Err() != nil {
					p.Name += "-min"
					return p
				}
				saved := *stage
				cand := make([]Op, 0, len(saved)-1)
				cand = append(cand, saved[:i]...)
				cand = append(cand, saved[i+1:]...)
				*stage = cand
				if failing(p) {
					improved = true
					continue
				}
				*stage = saved
			}
		}
	}
	p.Name += "-min"
	return p
}
