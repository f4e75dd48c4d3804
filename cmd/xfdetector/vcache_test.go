package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/pmemgo/xfdetector/internal/vcache"
)

func TestVerdictCacheFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-verdict-cache", "v.cache", "-no-prune"},
		{"-serve", "127.0.0.1:0", "-verdict-cache", "v.cache"},
		{"-submit", "http://127.0.0.1:1", "-verdict-cache", "v.cache"},
	} {
		if code := realMain(args); code != 2 {
			t.Errorf("realMain(%v) = %d, want 2", args, code)
		}
	}
}

var postRunsRe = regexp.MustCompile(`post-failure runs: (\d+)`)
var cacheHitsRe = regexp.MustCompile(`verdict cache: (\d+) failure point`)

// cleanCampaign seeds a write-after-commit race: it reports real bugs but
// never corrupts the structure, so no post-run faults. That matters here —
// a faulting post-run poisons its class (PR 6's value-bearing rule) and
// dirty verdicts are never cached, so only a fault-free campaign can prove
// the warm run post-runs exactly zero. The default campaign's
// btree-skip-add-leaf patch trips the consistency checker and would
// legitimately re-run its poisoned classes every time.
const cleanCampaign = "-workload btree -init 3 -test 80 -patch btree-write-after-commit"

func extract(t *testing.T, re *regexp.Regexp, out string) int {
	t.Helper()
	m := re.FindStringSubmatch(out)
	if m == nil {
		return 0
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWarmVerdictCacheSecondRun is the cross-campaign acceptance test: a
// repeat campaign against the cache the first one filled post-runs nothing,
// attributes every class from the cache, and reports the byte-identical
// key set. A third run of a different program must share none of it.
func TestWarmVerdictCacheSecondRun(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs full detection campaigns")
	}
	dir := t.TempDir()
	cache := filepath.Join(dir, "verdicts.cache")
	coldKeys := filepath.Join(dir, "cold.txt")
	warmKeys := filepath.Join(dir, "warm.txt")
	run := cleanCampaign + " -verdict-cache " + cache

	code, out := runCLI(t, run+" -keys-out "+coldKeys)
	if code != 0 && code != 1 {
		t.Fatalf("cold run exited %d:\n%s", code, out)
	}
	if hits := extract(t, cacheHitsRe, out); hits != 0 {
		t.Errorf("cold run claims %d cache hits:\n%s", hits, out)
	}
	coldPost := extract(t, postRunsRe, out)
	if coldPost == 0 {
		t.Fatalf("cold run reports no post-runs:\n%s", out)
	}

	code, out = runCLI(t, run+" -keys-out "+warmKeys)
	if code != 0 && code != 1 {
		t.Fatalf("warm run exited %d:\n%s", code, out)
	}
	if post := extract(t, postRunsRe, out); post != 0 {
		t.Errorf("warm run still post-ran %d failure points, want 0:\n%s", post, out)
	}
	if hits := extract(t, cacheHitsRe, out); hits == 0 {
		t.Errorf("warm run reports no cache hits:\n%s", out)
	}
	cold, err := os.ReadFile(coldKeys)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(warmKeys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm key set diverges from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	// -no-verdict-cache must ignore the warm cache entirely.
	code, out = runCLI(t, run+" -no-verdict-cache")
	if code != 0 && code != 1 {
		t.Fatalf("opted-out run exited %d:\n%s", code, out)
	}
	if hits := extract(t, cacheHitsRe, out); hits != 0 {
		t.Errorf("-no-verdict-cache run still hit the cache %d times:\n%s", hits, out)
	}

	// A different program (an extra update round changes the traced
	// execution) shares nothing despite the same cache file.
	code, out = runCLI(t, run+" -update-rounds 3")
	if code != 0 && code != 1 {
		t.Fatalf("different-program run exited %d:\n%s", code, out)
	}
	if hits := extract(t, cacheHitsRe, out); hits != 0 {
		t.Errorf("a different program reused %d cached verdicts:\n%s", hits, out)
	}
}

// TestVerdictCacheKeysPostTimeout: a post-run deadline changes verdicts —
// a run it abandons becomes a PostFailureFault — so a warm run under a
// deadline must not reuse the verdicts a run without one cached, while a
// warm run under its cold run's deadline still reuses them all.
func TestVerdictCacheKeysPostTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs detection campaigns")
	}
	dir := t.TempDir()
	const small = "-workload btree -init 3 -test 10 -patch btree-write-after-commit"
	run := func(label, args string) string {
		t.Helper()
		code, out := runCLI(t, small+" "+args)
		if code != 0 && code != 1 {
			t.Fatalf("%s run exited %d:\n%s", label, code, out)
		}
		return out
	}

	plain := "-verdict-cache " + filepath.Join(dir, "plain.cache")
	if post := extract(t, postRunsRe, run("cold", plain)); post == 0 {
		t.Fatal("cold run post-ran nothing; the cache stays empty")
	}
	out := run("deadline-warm", plain+" -post-timeout 1ns")
	if hits := extract(t, cacheHitsRe, out); hits != 0 {
		t.Errorf("a -post-timeout 1ns run reused %d verdicts cached without a deadline:\n%s", hits, out)
	}

	timed := "-post-timeout 10s -verdict-cache " + filepath.Join(dir, "timed.cache")
	coldPost := extract(t, postRunsRe, run("timed-cold", timed))
	out = run("timed-warm", timed)
	if hits := extract(t, cacheHitsRe, out); hits != coldPost {
		t.Errorf("warm run under the cold run's deadline reused %d verdicts, want %d:\n%s", hits, coldPost, out)
	}
	if post := extract(t, postRunsRe, out); post != 0 {
		t.Errorf("warm run under the cold run's deadline still post-ran %d failure points:\n%s", post, out)
	}
}

// TestProgramIdentityPostTimeout: without a post-run deadline the verdict
// identity is the one computed before deadlines joined it, so cache files
// filled by such runs keep their hits; each positive deadline gets its own
// identity, and the -record artifact identity (which passes 0) ignores it.
func TestProgramIdentityPostTimeout(t *testing.T) {
	id := func(timeout time.Duration) uint64 {
		return programIdentity("btree", "btree-write-after-commit", "detect", 3, 10, 0, 1, 0, 8, 0, timeout)
	}
	legacy := vcache.Identity("workload=btree", "patch=btree-write-after-commit", "mode=detect",
		"init=3", "test=10", "updates=0", "update-rounds=1", "removes=0", "pool-mb=8", "max-failure-points=0")
	if got := id(0); got != legacy {
		t.Errorf("identity without a deadline = %016x, want the deadline-free identity %016x", got, legacy)
	}
	seen := map[uint64]time.Duration{legacy: 0}
	for _, d := range []time.Duration{time.Nanosecond, time.Second, 10 * time.Second} {
		got := id(d)
		if prev, dup := seen[got]; dup {
			t.Errorf("-post-timeout %v shares identity %016x with -post-timeout %v", d, got, prev)
		}
		seen[got] = d
		if id(d) != got {
			t.Errorf("-post-timeout %v: identity is not deterministic", d)
		}
	}
}

// TestSpawnShardVerdictCaches: a -spawn fleet fills the one verdict cache
// its daemon holds for every shard, and a repeat fleet over the same
// workdir reuses it — the merged key set stays identical and the summed
// summaries land in the cache_hits bucket.
func TestSpawnShardVerdictCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs shard fleets")
	}
	dir := t.TempDir()
	workdir := filepath.Join(dir, "fleet")
	cache := filepath.Join(dir, "verdicts.cache")
	coldKeys := filepath.Join(dir, "cold.txt")
	warmKeys := filepath.Join(dir, "warm.txt")
	base := cleanCampaign + " -spawn 2 " + spawnFleet + " -workdir " + workdir + " -verdict-cache " + cache

	code, out := runCLI(t, base+" -keys-out "+coldKeys)
	if code != 0 && code != 1 {
		t.Fatalf("cold fleet exited %d:\n%s", code, out)
	}
	if _, err := os.Stat(cache); err != nil {
		t.Errorf("fleet cache file missing: %v", err)
	}

	// A new daemon over the same workdir: fresh campaign directory, warm
	// cache.
	code, out = runCLI(t, base+" -keys-out "+warmKeys)
	if code != 0 && code != 1 {
		t.Fatalf("warm fleet exited %d:\n%s", code, out)
	}
	if hits := extract(t, cacheHitsRe, out); hits == 0 {
		t.Errorf("warm fleet reports no cache hits in the merged result:\n%s", out)
	}
	if post := extract(t, postRunsRe, out); post != 0 {
		t.Errorf("warm fleet still post-ran %d failure points, want 0:\n%s", post, out)
	}

	cold, err := os.ReadFile(coldKeys)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(warmKeys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm fleet key set diverges:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if strings.TrimSpace(string(cold)) == "" {
		t.Error("campaign found no bugs; the equivalence proves nothing")
	}
}

// mergedPostRunsRe reads the post-run count of the campaign's own result
// line; under -spawn the shards' result lines reach the output first,
// prefixed by their worker.
var mergedPostRunsRe = regexp.MustCompile(`(?m)^failure points: \d+, post-failure runs: (\d+)`)

// TestSpawnVerdictCacheMatchesStandalone: the daemon learns each class
// verdict from the representative's checkpoint line, so a -spawn fleet
// caches exactly the classes a standalone campaign of the same program
// caches, and its warm rerun re-tests exactly what the standalone warm
// run re-tests. The seeded btree-skip-add-leaf bug makes many
// representatives fault with a message an earlier failure point already
// reported; were those lines empty, the fleet would cache the faulted
// classes as clean and its warm rerun would skip them.
func TestSpawnVerdictCacheMatchesStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs full detection campaigns and shard fleets")
	}
	dir := t.TempDir()
	standalone := campaign + " -verdict-cache " + filepath.Join(dir, "standalone.cache")
	fleetCache := filepath.Join(dir, "fleet.cache")
	fleet := campaign + " -spawn 2 " + spawnFleet + " -workdir " + filepath.Join(dir, "fleet") + " -verdict-cache " + fleetCache
	postRuns := func(args, keys string) int {
		t.Helper()
		code, out := runCLI(t, args+" -keys-out "+filepath.Join(dir, keys))
		if code != 1 {
			t.Fatalf("%q exited %d, want 1 (seeded bug):\n%s", args, code, out)
		}
		return extract(t, mergedPostRunsRe, out)
	}
	entries := func(path string) int {
		t.Helper()
		c, err := vcache.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return c.Len()
	}

	postRuns(standalone, "standalone-cold.txt")
	postRuns(fleet, "fleet-cold.txt")
	want := entries(filepath.Join(dir, "standalone.cache"))
	if got := entries(fleetCache); got != want || want == 0 {
		t.Errorf("cold fleet cached %d class verdict(s), the standalone campaign %d", got, want)
	}
	wantWarm := postRuns(standalone, "standalone-warm.txt")
	if got := postRuns(fleet, "fleet-warm.txt"); got != wantWarm || wantWarm == 0 {
		t.Errorf("warm fleet post-ran %d failure point(s), the standalone warm run %d", got, wantWarm)
	}
	ref, err := os.ReadFile(filepath.Join(dir, "standalone-cold.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, keys := range []string{"fleet-cold.txt", "standalone-warm.txt", "fleet-warm.txt"} {
		got, err := os.ReadFile(filepath.Join(dir, keys))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("%s diverges from the standalone cold run's keys", keys)
		}
	}
}

// TestResumedCampaignCachesSeededReports: a campaign resumed under
// -verdict-cache feeds the cache its checkpoint's lines first, so a class
// the checkpoint covered keeps the reports of the representative that
// first ran it. Storing the resumed run's second representative instead —
// whose reports omit what the checkpoint seeded — made a warm rerun of U′
// report one key of two.
func TestResumedCampaignCachesSeededReports(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs detection campaigns")
	}
	dir := t.TempDir()
	cold, prefix := checkpointPrefix(t, dir, 40, 0)
	path, cache := filepath.Join(dir, "resumed.ckpt"), filepath.Join(dir, "verdicts.cache")
	if err := os.WriteFile(path, prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := runCLI(t, updateCampaign+" -checkpoint "+path+" -resume -verdict-cache "+cache); code != 1 {
		t.Fatalf("resumed run exited %d, want 1 (seeded bug):\n%s", code, out)
	}
	warm := filepath.Join(dir, "warm.txt")
	code, out := runCLI(t, updateCampaign+" -verdict-cache "+cache+" -keys-out "+warm)
	if code != 1 {
		t.Fatalf("warm run exited %d, want 1 (seeded bug):\n%s", code, out)
	}
	if hits := extract(t, cacheHitsRe, out); hits == 0 {
		t.Errorf("warm run reports no cache hits:\n%s", out)
	}
	sameKeysFile(t, "warm run", cold, warm)
	if keys, _ := os.ReadFile(cold); bytes.Count(keys, []byte("\n")) != 2 {
		t.Errorf("U′ reports %q, want two keys", keys)
	}
}
