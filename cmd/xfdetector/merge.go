package main

import (
	"fmt"
	"os"
	"strings"

	"github.com/pmemgo/xfdetector/internal/ckpt"
	"github.com/pmemgo/xfdetector/internal/core"
)

// Merge mode: union shard checkpoints into one deduplicated report.
//
//	xfdetector -merge shard0.ckpt shard1.ckpt shard2.ckpt [-keys-out keys.txt]
//
// The mechanics live in ckpt.Merger, which the -serve daemon also drives
// incrementally as workers stream their lines in; this path just feeds it
// whole files. The merged result reuses the CLI exit-code contract —
// 0 clean, 1 bugs, 2 unreadable or inconsistent checkpoints, 3 union
// incomplete — and its buckets are summed from the shard summaries, so
// the merged Result satisfies the same PostRuns + Pruned + OtherShard +
// Resumed + Skipped == FailurePoints invariant as any single run.

// mergeCheckpoints unions the named checkpoints into a single Result with
// reports deduplicated by DedupKey. Missing files are an error when
// strict — a typo'd -merge operand must not read as an empty shard — and
// tolerated for an interrupted -spawn fleet, whose shards may never have
// streamed a line (the coverage check still reports the hole).
func mergeCheckpoints(paths []string, strict bool) (*core.Result, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no checkpoint files to merge")
	}
	m := ckpt.NewMerger()
	for _, path := range paths {
		if strict {
			if _, err := os.Stat(path); err != nil {
				return nil, err
			}
		}
		lines, err := ckpt.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := m.AddAll(path, lines); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
	}
	return m.Result(fmt.Sprintf("merge of %d checkpoint(s)", len(paths))), nil
}

// runMerge is the -merge entry point, and the report of a -spawn fleet
// interrupted by ^C: union, print, optionally write the key fingerprint,
// and exit by the shared contract.
func runMerge(paths []string, strict bool, keysOut string) int {
	res, err := mergeCheckpoints(paths, strict)
	if err != nil {
		return errorf("merging checkpoints: %v", err)
	}
	fmt.Print(res)
	fmt.Printf("merged checkpoints: %s\n", strings.Join(paths, ", "))
	if keysOut != "" {
		if err := writeKeys(keysOut, res.Reports); err != nil {
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
