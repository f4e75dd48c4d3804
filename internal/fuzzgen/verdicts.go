package fuzzgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/vcache"
)

// Differential configurations for cross-shard and cross-campaign verdict
// sharing (the VerdictSource protocol). Both are held to the brute-force
// oracle like every other engine configuration: sharing verdicts may only
// redistribute post-runs, never change the merged key set or the bytes any
// surviving post-run observes.

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

// checkCrossShard runs p as verdictShards sequential shards of one campaign
// sharing a core.ClassRegistry — the in-process form of the -serve daemon's
// class registry, settled by direct Resolve calls where the daemon reads
// the representative's checkpoint line — and verifies the sharing is
// invisible: the union of the shards' report keys equals the oracle's key
// set, every shard's failure points land in exactly one Result bucket, and
// the total post-runs across the fleet equal the single-process pruned
// run's (base) — one representative per global crash-state class, however
// the members are distributed. Sequential shard execution makes ownership
// deterministic, so the post-run count is exact, not a bound.
func checkCrossShard(p Program, want *OracleResult, base *core.Result) error {
	reg := core.NewClassRegistry()
	log := &PostReadLog{}
	results := make([]*core.Result, 0, verdictShards)
	totalPost, totalCross := 0, 0
	for idx := 0; idx < verdictShards; idx++ {
		cfg := core.Config{
			PoolSize:   p.PoolSize,
			ShardCount: verdictShards,
			ShardIndex: idx,
			Verdicts:   reg.Bind(fmt.Sprintf("shard%d", idx)),
		}
		res, err := core.Run(cfg, BuildTargetRecording(p, log))
		if err != nil {
			return fmt.Errorf("fuzzgen: %q: harness error: %w", p.Name, err)
		}
		if err := compare(p, "cross-shard", fmt.Sprintf("shard%d-bucket-accounting", idx),
			fmt.Sprint(res.FailurePoints), fmt.Sprint(res.BucketedFailurePoints())); err != nil {
			return err
		}
		totalPost += res.PostRuns
		totalCross += res.CrossShardPrunedFailurePoints
		results = append(results, res)
	}
	if err := compare(p, "cross-shard", "keys",
		strings.Join(want.Keys, " ; "), unionKeys(results...)); err != nil {
		return err
	}
	if err := compare(p, "cross-shard", "total-post-runs",
		fmt.Sprint(base.PostRuns), fmt.Sprint(totalPost)); err != nil {
		return err
	}
	// Shards of an update-heavy program share classes; attribution must
	// actually fire whenever the single-process run found duplicates spread
	// across the shard partition (a registry that silently answers
	// VerdictRun forever would pass every soundness check while delivering
	// zero speedup).
	if totalCross == 0 && base.PrunedFailurePoints > 0 {
		sharded := 0
		for _, res := range results {
			sharded += res.PrunedFailurePoints
		}
		if sharded < base.PrunedFailurePoints {
			return &Mismatch{Program: p, Config: "cross-shard", Field: "attribution-liveness",
				Want: fmt.Sprintf("cross-shard attributions for %d duplicate crash states", base.PrunedFailurePoints),
				Got:  fmt.Sprintf("0 attributions, %d locally pruned", sharded)}
		}
	}
	return checkDigestsPredicted(p, "cross-shard", want, log)
}

// checkWarmCache runs p twice against one on-disk verdict cache — a cold
// campaign that fills it and a warm one that reuses it — and verifies the
// cross-campaign reuse is invisible: both runs report the oracle's exact
// key set (the warm run re-seeds cached reports rather than losing them),
// the warm run's buckets account for every failure point, its cache hits
// equal the entries the cold run persisted, and its post-runs are exactly
// the cold run's minus the cached classes.
func checkWarmCache(p Program, want *OracleResult, base *core.Result) error {
	dir, err := os.MkdirTemp("", "xfdfuzz-vcache-")
	if err != nil {
		return fmt.Errorf("fuzzgen: %q: temp cache dir: %w", p.Name, err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "verdicts.cache")
	id, err := programIdentity(p)
	if err != nil {
		return err
	}

	runWith := func(config string) (*core.Result, *PostReadLog, int, error) {
		cache, err := vcache.Open(path)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("fuzzgen: %q: opening verdict cache: %w", p.Name, err)
		}
		defer cache.Close()
		log := &PostReadLog{}
		cfg := core.Config{PoolSize: p.PoolSize, Verdicts: cache.Bind(id)}
		res, err := core.Run(cfg, BuildTargetRecording(p, log))
		if err != nil {
			return nil, nil, 0, fmt.Errorf("fuzzgen: %q: %s: harness error: %w", p.Name, config, err)
		}
		return res, log, cache.Len(), nil
	}

	cold, coldLog, cached, err := runWith("cold")
	if err != nil {
		return err
	}
	if err := compare(p, "warm-cache", "cold-keys",
		strings.Join(want.Keys, " ; "), joinKeys(cold)); err != nil {
		return err
	}
	if err := checkDigestsPredicted(p, "warm-cache(cold)", want, coldLog); err != nil {
		return err
	}

	warm, warmLog, _, err := runWith("warm")
	if err != nil {
		return err
	}
	if err := compare(p, "warm-cache", "keys",
		strings.Join(want.Keys, " ; "), joinKeys(warm)); err != nil {
		return err
	}
	if err := compare(p, "warm-cache", "bucket-accounting",
		fmt.Sprint(warm.FailurePoints), fmt.Sprint(warm.BucketedFailurePoints())); err != nil {
		return err
	}
	if err := compare(p, "warm-cache", "cache-hits",
		fmt.Sprint(cached), fmt.Sprint(warm.CacheHitFailurePoints)); err != nil {
		return err
	}
	if err := compare(p, "warm-cache", "post-runs",
		fmt.Sprint(base.PostRuns-cached), fmt.Sprint(warm.PostRuns)); err != nil {
		return err
	}
	return checkDigestsPredicted(p, "warm-cache", want, warmLog)
}
