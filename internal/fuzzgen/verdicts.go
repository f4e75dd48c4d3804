package fuzzgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/vcache"
)

// Differential configurations for class sharding and cross-campaign
// verdict reuse (the VerdictSource cache). Both are held to the
// brute-force oracle like every other engine configuration: they may only
// redistribute or skip post-runs, never change the merged key set or the
// bytes any surviving post-run observes.

// verdictShards is the shard width of the cross-shard configuration.
const verdictShards = 3

// programIdentity is the verdict-cache identity of a generated program: a
// hash of its full JSON form, so any change to any stage — including a
// post-only change invisible to the pre-failure fingerprints — is a
// different program that shares no cached verdicts.
func programIdentity(p Program) (uint64, error) {
	data, err := json.Marshal(p)
	if err != nil {
		return 0, fmt.Errorf("fuzzgen: %q: encoding for identity: %w", p.Name, err)
	}
	return vcache.Identity("fuzzgen-program", string(data)), nil
}

// unionKeys merges the deduplicated report keys of several shard results.
func unionKeys(results ...*core.Result) string {
	seen := map[string]bool{}
	for _, res := range results {
		for _, k := range ResultKeys(res) {
			seen[k] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ; ")
}

// checkDigestsPredicted verifies every observed post-read digest was
// predicted by the oracle (attributed failure points simply observe
// nothing, so the observed set is a subset).
func checkDigestsPredicted(p Program, config string, want *OracleResult, log *PostReadLog) error {
	predicted := make(map[string]bool, len(want.PostReads))
	for _, d := range want.PostReads {
		predicted[d] = true
	}
	for _, d := range log.Canonical() {
		if !predicted[d] {
			return &Mismatch{Program: p, Config: config, Field: "post-read-bytes",
				Want: strings.Join(want.PostReads, " ; "), Got: d}
		}
	}
	return nil
}

// checkCrossShard runs p as verdictShards shards of one campaign, each
// owning the crash-state classes its fingerprints map to, and verifies the
// split is invisible: the union of the shards' report keys equals the
// oracle's key set, every shard's failure points land in exactly one
// Result bucket, and the fleet's total post-runs and tested classes equal
// the single-process pruned run's (base) — no class is split across
// shards, so the counts are exact, not bounds.
func checkCrossShard(p Program, want *OracleResult, base *core.Result) error {
	log := &PostReadLog{}
	results := make([]*core.Result, 0, verdictShards)
	totalPost, totalClasses := 0, 0
	for idx := 0; idx < verdictShards; idx++ {
		cfg := core.Config{
			PoolSize:   p.PoolSize,
			ShardCount: verdictShards,
			ShardIndex: idx,
		}
		res, err := core.Run(cfg, BuildTargetRecording(p, log))
		if err != nil {
			return fmt.Errorf("fuzzgen: %q: harness error: %w", p.Name, err)
		}
		if err := compare(p, "cross-shard", fmt.Sprintf("shard%d-bucket-accounting", idx),
			res.FailurePoints, res.BucketedFailurePoints()); err != nil {
			return err
		}
		totalPost += res.PostRuns
		totalClasses += res.CrashStateClasses
		results = append(results, res)
	}
	if err := compare(p, "cross-shard",
		"keys", strings.Join(want.Keys, " ; "), unionKeys(results...),
		"total-post-runs", base.PostRuns, totalPost,
		"total-classes", base.CrashStateClasses, totalClasses); err != nil {
		return err
	}
	return checkDigestsPredicted(p, "cross-shard", want, log)
}

// checkWarmCache runs p against on-disk verdict caches and verifies that
// cross-campaign reuse is invisible. A cold campaign fills one cache and a
// warm one reuses it: both report the oracle's exact key set (the warm run
// re-seeds cached reports rather than losing them), the warm run's buckets
// account for every failure point, its cache hits equal the entries the
// cold run persisted, and its post-runs are exactly the cold run's minus
// the cached classes. Then a second cold campaign fills a fresh cache
// while resuming from the first half of the cold run's lines, which its
// binding sees first, as the CLI's -resume feeds them: it must cache
// exactly as many classes as the cold run, and a warm run over its cache
// must report the oracle's keys.
func checkWarmCache(p Program, want *OracleResult, base *core.Result) error {
	dir, err := os.MkdirTemp("", "xfdfuzz-vcache-")
	if err != nil {
		return fmt.Errorf("fuzzgen: %q: temp cache dir: %w", p.Name, err)
	}
	defer os.RemoveAll(dir)
	id, err := programIdentity(p)
	if err != nil {
		return err
	}
	wantKeys := strings.Join(want.Keys, " ; ")

	// campaign runs p bound to the cache file name, resuming from resume,
	// whose lines the binding admits before the run's own. It returns the
	// run's result, post-read log, cache size and checkpoint lines.
	campaign := func(config, name string, resume []ckpt.Line) (*core.Result, *PostReadLog, int, []ckpt.Line, error) {
		cache, err := vcache.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, 0, nil, fmt.Errorf("fuzzgen: %q: opening verdict cache: %w", p.Name, err)
		}
		defer cache.Close()
		verdicts := cache.Bind(id)
		cp, err := ckpt.Fold(resume, config)
		if err != nil {
			return nil, nil, 0, nil, err
		}
		var lines []ckpt.Line
		var storeErr error
		add := func(l ckpt.Line) { storeErr = errors.Join(storeErr, verdicts.Add(l)) }
		for _, l := range resume {
			add(l)
		}
		log := &PostReadLog{}
		cfg := core.Config{PoolSize: p.PoolSize, Verdicts: verdicts,
			CompletedFailurePoints: cp.Done, SeedReports: cp.Seed,
			OnPostRunComplete: func(fp int, fpr uint64, fresh []core.Report) {
				l := ckpt.Line{FP: fp, FPrint: fpr, Reports: fresh}
				lines = append(lines, l)
				add(l)
			}}
		res, err := core.Run(cfg, BuildTargetRecording(p, log))
		if err = errors.Join(err, storeErr); err != nil {
			return nil, nil, 0, nil, fmt.Errorf("fuzzgen: %q: %s: harness error: %w", p.Name, config, err)
		}
		return res, log, cache.Len(), lines, nil
	}

	cold, coldLog, cached, lines, err := campaign("cold", "cold.cache", nil)
	if err != nil {
		return err
	}
	if err := compare(p, "warm-cache", "cold-keys", wantKeys, joinKeys(cold)); err != nil {
		return err
	}
	if err := checkDigestsPredicted(p, "warm-cache(cold)", want, coldLog); err != nil {
		return err
	}

	warm, warmLog, _, _, err := campaign("warm", "cold.cache", nil)
	if err != nil {
		return err
	}
	if err := compare(p, "warm-cache",
		"keys", wantKeys, joinKeys(warm),
		"bucket-accounting", warm.FailurePoints, warm.BucketedFailurePoints(),
		"cache-hits", cached, warm.CacheHitFailurePoints,
		"post-runs", base.PostRuns-cached, warm.PostRuns); err != nil {
		return err
	}
	if err := checkDigestsPredicted(p, "warm-cache", want, warmLog); err != nil {
		return err
	}

	resumed, _, resumedCached, _, err := campaign("resumed", "resumed.cache", lines[:len(lines)/2])
	if err != nil {
		return err
	}
	if err := compare(p, "warm-cache-resumed",
		"cold-keys", wantKeys, joinKeys(resumed),
		"cached-classes", cached, resumedCached); err != nil {
		return err
	}
	rewarm, _, _, _, err := campaign("resumed-warm", "resumed.cache", nil)
	if err != nil {
		return err
	}
	return compare(p, "warm-cache-resumed",
		"keys", wantKeys, joinKeys(rewarm),
		"bucket-accounting", rewarm.FailurePoints, rewarm.BucketedFailurePoints())
}
