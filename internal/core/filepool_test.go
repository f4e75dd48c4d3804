//go:build linux

package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pmemgo/xfdetector/internal/pmem"
)

// File-backed campaigns (pmem.FileBackend): report-set identity with the
// in-memory backend, resume over a surviving pool file, and the disk fault
// classes degrading into quarantine instead of false reports.

func filePoolPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "pool.img")
}

// TestFileBackedRunMatchesMemory: the same campaign on a file-backed pool
// yields the byte-identical deduplicated report set as in-memory and the
// same shadow footprint, and the Result carries honest msync accounting.
func TestFileBackedRunMatchesMemory(t *testing.T) {
	mem, err := Run(Config{}, figure11Target("backend-parity"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			file, err := Run(Config{
				Workers: workers,
				Backend: pmem.FileBackend{Path: filePoolPath(t)},
			}, figure11Target("backend-parity"))
			if err != nil {
				t.Fatal(err)
			}
			if !equalKeys(sortedKeys(mem), sortedKeys(file)) {
				t.Errorf("file-backed report set diverges:\nmem:  %v\nfile: %v",
					sortedKeys(mem), sortedKeys(file))
			}
			if mem.PoolBackend != "memory" || file.PoolBackend != "file" {
				t.Errorf("backends = %q / %q, want memory / file", mem.PoolBackend, file.PoolBackend)
			}
			if file.MsyncRanges == 0 || file.MsyncPages == 0 {
				t.Errorf("file-backed run recorded no msync activity: %d ranges, %d pages",
					file.MsyncRanges, file.MsyncPages)
			}
			if file.Incomplete {
				t.Errorf("clean file-backed run marked incomplete:\n%s", file)
			}
			// Both backends run one shadow path, so the shadow footprint
			// cannot depend on the backend. The workers=4 arm sums four
			// siblings' shadows, which the one-runner memory run cannot
			// match.
			if workers == 1 && (file.ShadowPeakBytes != mem.ShadowPeakBytes || file.ShadowPages != mem.ShadowPages) {
				t.Errorf("shadow footprint depends on the backend: file %d B peak, %d pages; memory %d B, %d pages",
					file.ShadowPeakBytes, file.ShadowPages, mem.ShadowPeakBytes, mem.ShadowPages)
			}
			checkBuckets(t, file)
		})
	}
}

// fileResumeTarget writes each page once and persists it — the bulk-load
// shape the compare-skip optimization targets — plus one never-persisted
// store that every post-run reads (a stable race report).
func fileResumeTarget() Target {
	return Target{
		Name: "file-resume",
		Pre: func(c *Ctx) error {
			c.Pool().Store64(7*4096+8, 0xdead) // never persisted
			for i := uint64(0); i < 6; i++ {
				c.Pool().Store64(i*4096, i+1)
				c.Pool().Persist(i*4096, 8)
			}
			return nil
		},
		Post: func(c *Ctx) error { c.Pool().Load64(7*4096 + 8); return nil },
	}
}

// TestFileBackedResumeSkipsPersistedMsync is the core half of satellite 3:
// resuming a completed file-backed campaign over its surviving pool file
// replays deterministically, so every dirty page whose content the file
// already holds compare-skips — zero pages re-msynced for a write-once
// workload — and the deduplicated key set is byte-identical.
func TestFileBackedResumeSkipsPersistedMsync(t *testing.T) {
	path := filePoolPath(t)
	mk := fileResumeTarget

	done := make(map[int]bool)
	var seed []Report
	first, err := Run(Config{
		Backend: pmem.FileBackend{Path: path},
		OnPostRunComplete: func(fp int, _ uint64, fresh []Report) {
			done[fp] = true
			seed = append(seed, fresh...)
		},
	}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if first.MsyncPages == 0 {
		t.Fatalf("first campaign wrote no pages: %+v", first)
	}

	resumed, err := Run(Config{
		Backend:                pmem.FileBackend{Path: path, Resume: true},
		CompletedFailurePoints: done,
		SeedReports:            seed,
	}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !equalKeys(sortedKeys(first), sortedKeys(resumed)) {
		t.Errorf("resumed report set diverges:\nfirst:   %v\nresumed: %v",
			sortedKeys(first), sortedKeys(resumed))
	}
	if resumed.MsyncPages != 0 {
		t.Errorf("resume re-msynced %d pages; the deterministic replay over the surviving file must compare-skip all of them", resumed.MsyncPages)
	}
	if resumed.MsyncSkipped == 0 {
		t.Error("resume skipped no pages — the dirty tracking never consulted the surviving image")
	}
	if resumed.ResumedFailurePoints != len(done) {
		t.Errorf("resumed failure points = %d, want %d", resumed.ResumedFailurePoints, len(done))
	}
	checkBuckets(t, resumed)
}

// TestFileBackedPoolCollision: a fresh campaign refuses an existing pool
// file with an error naming the resume path out.
func TestFileBackedPoolCollision(t *testing.T) {
	path := filePoolPath(t)
	if _, err := Run(Config{Backend: pmem.FileBackend{Path: path}}, figure11Target("collision")); err != nil {
		t.Fatal(err)
	}
	_, err := Run(Config{Backend: pmem.FileBackend{Path: path}}, figure11Target("collision"))
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("reusing a pool file without resume must fail with a collision error, got: %v", err)
	}
}

// TestFileBackedExtendFaultFailsRun: a disk-full fault while extending the
// backing file fails the run as a harness error before any tracing starts —
// there is no failure point to quarantine yet.
func TestFileBackedExtendFaultFailsRun(t *testing.T) {
	hooks := &pmem.FaultHooks{Extend: func(size uint64) error { return errors.New("no space") }}
	_, err := Run(Config{
		Backend:    pmem.FileBackend{Path: filePoolPath(t), Hooks: hooks},
		FaultHooks: hooks,
	}, figure11Target("extend-fault"))
	if err == nil || !strings.Contains(err.Error(), "pool-extend") {
		t.Fatalf("want a pool-extend harness error, got: %v", err)
	}
}

// TestFileBackedDiskFaultClasses: each injected disk fault class — disk-full
// ENOSPC, short msync, torn mmap page — survives its retry, quarantines
// exactly the affected failure point, never fabricates a bug report, and the
// campaign continues to the identical report set. Sequential and parallel:
// under workers=4 only sibling 0's pool is file-backed and it snapshots
// only for its own post-runs, so the persist failure its first fence
// stashes may surface at pool close instead of at a failure point — the
// run is still Incomplete and names the fault, with nothing quarantined.
func TestFileBackedDiskFaultClasses(t *testing.T) {
	clean, err := Run(Config{DisablePerfBugs: true}, spinMultiFPTarget("disk-fault-clean"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec string
		op   string
	}{
		{"disk-full:0", "msync"},
		{"short-msync:0", "short-msync"},
		{"torn-mmap:0", "torn-mmap"},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.spec, workers), func(t *testing.T) {
				hooks, err := pmem.DiskFaultHooksFromSpec(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(Config{
					Workers:         workers,
					DisablePerfBugs: true,
					Backend:         pmem.FileBackend{Path: filePoolPath(t), Hooks: hooks},
					FaultHooks:      hooks,
				}, spinMultiFPTarget("disk-fault"))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Incomplete {
					t.Fatalf("disk fault did not degrade the run:\n%s", res)
				}
				if workers == 1 && res.SkippedFailurePoints == 0 {
					t.Fatalf("disk fault did not quarantine any failure point:\n%s", res)
				}
				found := false
				for _, f := range res.HarnessFaults {
					if strings.Contains(f, tc.op) {
						found = true
					}
				}
				if !found {
					t.Errorf("harness faults %v name no %q fault", res.HarnessFaults, tc.op)
				}
				// The quarantine must degrade coverage, never fabricate: the
				// surviving failure points converge to the clean key set.
				if !equalKeys(sortedKeys(res), sortedKeys(clean)) {
					t.Errorf("faulted report set diverges from clean:\nclean:   %v\nfaulted: %v",
						sortedKeys(clean), sortedKeys(res))
				}
				checkBuckets(t, res)
			})
		}
	}
}
