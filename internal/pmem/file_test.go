//go:build linux

package pmem

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func tmpPoolPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.pool")
}

func mustFileBacked(t *testing.T, path string, size int, resume bool, hooks *FaultHooks) *Pool {
	t.Helper()
	p, err := NewFileBacked("file-pool", path, size, resume, hooks)
	if err != nil {
		t.Fatalf("NewFileBacked: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// The file-backed pool must be indistinguishable from the in-memory one
// to everything above it: same image bytes, same snapshots, same
// incremental-snapshot behavior.
func TestFileBackedImageParity(t *testing.T) {
	const size = 3 * PageSize
	mem := New("mem-pool", size)
	fb := mustFileBacked(t, tmpPoolPath(t), size, false, nil)

	ops := func(p *Pool) *Snapshot {
		p.Store64(16, 0xdeadbeef)
		p.Memset(PageSize+5, 0xAA, 300)
		p.CLWB(16, 8)
		p.SFence()
		s1 := p.TakeSnapshot()
		p.Store(2*PageSize, []byte("cross-failure"))
		p.Copy(64, 2*PageSize, 13)
		p.SFence()
		_ = s1
		return p.TakeSnapshot()
	}
	sm, sf := ops(mem), ops(fb)
	if !bytes.Equal(mem.Bytes(), fb.Bytes()) {
		t.Fatal("file-backed image diverged from in-memory image")
	}
	if !bytes.Equal(sm.Bytes(), sf.Bytes()) {
		t.Fatal("file-backed snapshot diverged from in-memory snapshot")
	}
}

// Every SFence is a persist boundary: after it, the pool file holds the
// full image including not-flushed stores (footnote-3 semantics for the
// durable image), and only dirtied pages were written.
func TestFileBackedPersistAtFence(t *testing.T) {
	path := tmpPoolPath(t)
	const size = 4 * PageSize
	p := mustFileBacked(t, path, size, false, nil)

	p.Store64(8, 77)                 // page 0, never flushed
	p.Store(2*PageSize+9, []byte{1}) // page 2
	p.SFence()

	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, p.Bytes()) {
		t.Fatal("pool file does not hold the image at the fence boundary")
	}
	ranges, written, skipped := p.FileStats()
	if ranges != 2 || written != 2 || skipped != 0 {
		t.Fatalf("FileStats = (%d, %d, %d), want 2 ranges, 2 written, 0 skipped", ranges, written, skipped)
	}

	// Re-dirtying a page with identical content must compare-skip.
	p.Store64(8, 77)
	p.SFence()
	_, written, skipped = p.FileStats()
	if written != 2 || skipped != 1 {
		t.Fatalf("after identical rewrite: written %d skipped %d, want 2 and 1", written, skipped)
	}

	// A clean fence persists nothing.
	ranges0, _, _ := p.FileStats()
	p.SFence()
	ranges1, _, _ := p.FileStats()
	if ranges1 != ranges0 {
		t.Fatalf("clean fence msync'd %d ranges", ranges1-ranges0)
	}
}

// Consecutive dirty pages coalesce into one msync range.
func TestFileBackedRangeCoalescing(t *testing.T) {
	p := mustFileBacked(t, tmpPoolPath(t), 8*PageSize, false, nil)
	p.Memset(0, 0x11, 3*PageSize) // pages 0-2: one range
	p.Store8(5*PageSize, 0x22)    // page 5: second range
	p.SFence()
	ranges, written, _ := p.FileStats()
	if ranges != 2 || written != 4 {
		t.Fatalf("FileStats ranges %d written %d, want 2 and 4", ranges, written)
	}
}

// Close performs the final persist: stores after the last fence still
// reach the file.
func TestFileBackedCloseFlushesTail(t *testing.T) {
	path := tmpPoolPath(t)
	p := mustFileBacked(t, path, 2*PageSize, false, nil)
	p.Store(100, []byte("tail past the last fence"))
	want := append([]byte(nil), p.Bytes()...)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatal("pool file missing the tail written after the last fence")
	}
}

// A fresh campaign must refuse an existing pool file; -resume reopens it,
// and the deterministic replay writes back nothing the file already holds.
func TestFileBackedResumeSkipsPersistedPages(t *testing.T) {
	path := tmpPoolPath(t)
	const size = 4 * PageSize
	run := func(resume bool) *Pool {
		p := mustFileBacked(t, path, size, resume, nil)
		p.Store64(8, 1234)
		p.Memset(PageSize, 0x7F, PageSize/2)
		p.SFence()
		return p
	}
	p1 := run(false)
	if _, w, _ := p1.FileStats(); w == 0 {
		t.Fatal("first campaign wrote no pages")
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := NewFileBacked("dup", path, size, false, nil); err == nil ||
		!strings.Contains(err.Error(), "-resume") {
		t.Fatalf("fresh campaign over existing pool file: err = %v, want a -resume hint", err)
	}

	p2 := run(true)
	ranges, written, skipped := p2.FileStats()
	if written != 0 {
		t.Fatalf("resumed replay re-msync'd %d already-persisted pages (ranges %d, skipped %d)", written, ranges, skipped)
	}
	if skipped == 0 {
		t.Fatal("resumed replay skipped no pages; compare-skip is not firing")
	}
}

// Resume with a missing file starts fresh, and a size mismatch is a
// campaign-identity error.
func TestFileBackedResumeEdgeCases(t *testing.T) {
	path := tmpPoolPath(t)
	p := mustFileBacked(t, path, 2*PageSize, true, nil) // resume-with-missing: create
	p.Close()
	if _, err := NewFileBacked("wrong-size", path, 4*PageSize, true, nil); err == nil ||
		!strings.Contains(err.Error(), "size") {
		t.Fatalf("size mismatch: err = %v, want size error", err)
	}
}

// Two live pools must not share one pool file: the flock turns the race
// into a clear error.
func TestFileBackedLockCollision(t *testing.T) {
	path := tmpPoolPath(t)
	p := mustFileBacked(t, path, PageSize, false, nil)
	defer p.Close()
	if _, err := NewFileBacked("intruder", path, PageSize, true, nil); err == nil ||
		!strings.Contains(err.Error(), "locked") {
		t.Fatalf("second open of a live pool file: err = %v, want lock error", err)
	}
}

// An extend-time disk-full fault fails pool creation with a pool-extend
// HarnessFault and leaves no half-made file behind.
func TestFileBackedExtendFault(t *testing.T) {
	path := tmpPoolPath(t)
	hooks := &FaultHooks{Extend: func(size uint64) error { return syscall.ENOSPC }}
	_, err := NewFileBacked("nospace", path, PageSize, false, hooks)
	var hf *HarnessFault
	if !errors.As(err, &hf) || hf.Op != "pool-extend" || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want pool-extend HarnessFault wrapping ENOSPC", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed creation left %s behind (stat err %v)", path, err)
	}
}

// The three msync-time fault classes: each fails the persist with its
// HarnessFault op, leaves the unpersisted pages dirty, and a retry (the
// next SnapshotErr) completes the writeback so no data is lost.
func TestFileBackedDiskFaultClasses(t *testing.T) {
	cases := []struct {
		spec, op string
	}{
		{"disk-full:0", "msync"},
		{"short-msync:0", "short-msync"},
		{"torn-mmap:0", "torn-mmap"},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			path := tmpPoolPath(t)
			hooks, err := DiskFaultHooksFromSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			p := mustFileBacked(t, path, 2*PageSize, false, hooks)
			p.Store(10, []byte("must survive the fault"))
			p.SFence() // consult 0 faults; error stashed as pending

			// Attempt 1 surfaces the stashed fault; attempt 2 re-runs the
			// writeback, whose consult 1 also faults (the spec arms N and
			// N+1); attempt 3 succeeds — mirroring the frontend's
			// retry-once-then-quarantine, which would quarantine after 2.
			for attempt := 0; attempt < 2; attempt++ {
				_, err := p.SnapshotErr(0)
				var hf *HarnessFault
				if !errors.As(err, &hf) || hf.Op != tc.op {
					t.Fatalf("attempt %d: err = %v, want HarnessFault op %q", attempt, err, tc.op)
				}
			}
			if _, err := p.SnapshotErr(0); err != nil {
				t.Fatalf("post-fault snapshot still failing: %v", err)
			}
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, p.Bytes()) {
				t.Fatal("retried persist lost data")
			}
		})
	}
}

// A short msync persists exactly the prefix the hook allowed: the file
// must hold the prefix and the stale tail until the retry.
func TestFileBackedShortMsyncPrefix(t *testing.T) {
	path := tmpPoolPath(t)
	fail := true
	hooks := &FaultHooks{ShortMsync: func(addr, size uint64) (uint64, error) {
		if fail {
			fail = false
			return PageSize + 16, errors.New("short write")
		}
		return 0, nil
	}}
	p := mustFileBacked(t, path, 4*PageSize, false, hooks)
	p.Memset(0, 0xBB, 2*PageSize) // pages 0-1, one range
	p.SFence()                    // persists page 0 fully, 16 bytes of page 1

	onDisk, _ := os.ReadFile(path)
	want := make([]byte, 4*PageSize)
	for i := 0; i < PageSize+16; i++ {
		want[i] = 0xBB
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatal("short msync did not persist exactly the allowed prefix")
	}

	// The tail page is still dirty: the stashed fault surfaces, then the
	// retry completes it.
	if _, err := p.SnapshotErr(0); err == nil {
		t.Fatal("stashed short-msync fault never surfaced")
	}
	if _, err := p.SnapshotErr(0); err != nil {
		t.Fatal(err)
	}
	onDisk, _ = os.ReadFile(path)
	if !bytes.Equal(onDisk, p.Bytes()) {
		t.Fatal("retry did not persist the lost tail")
	}
}

// The seeded mutant loses range tails silently: no error, bits cleared,
// file missing data. This is what the fuzzer's file-backed digest check
// must catch (internal/fuzzgen disk mutation test).
func TestShortMsyncMutantLosesTailSilently(t *testing.T) {
	SetShortMsyncForTest(true)
	defer SetShortMsyncForTest(false)
	path := tmpPoolPath(t)
	p := mustFileBacked(t, path, PageSize, false, nil)
	p.Memset(0, 0xCD, 512)
	p.SFence()
	if _, err := p.SnapshotErr(0); err != nil {
		t.Fatalf("the mutant must be silent, got %v", err)
	}
	onDisk, _ := os.ReadFile(path)
	if !bytes.Equal(onDisk[:shortMsyncKeep], p.Bytes()[:shortMsyncKeep]) {
		t.Fatal("mutant lost even the prefix")
	}
	if bytes.Equal(onDisk, p.Bytes()) {
		t.Fatal("mutant persisted everything; it has no teeth")
	}
	// And the bits are gone: a later fence does not heal the tail.
	p.SFence()
	onDisk2, _ := os.ReadFile(path)
	if !bytes.Equal(onDisk, onDisk2) {
		t.Fatal("mutant left the tail dirty; silent loss requires cleared bits")
	}
}

// DiskFaultHooksFromSpec rejects malformed specs.
func TestDiskFaultSpecParsing(t *testing.T) {
	for _, bad := range []string{"", "short-msync", "short-msync:x", "meteor-strike:0"} {
		if _, err := DiskFaultHooksFromSpec(bad); err == nil {
			t.Errorf("spec %q: expected parse error", bad)
		}
	}
	if h, err := DiskFaultHooksFromSpec("disk-full:3"); err != nil || h.Msync == nil {
		t.Fatalf("disk-full:3: hooks %+v err %v", h, err)
	}
}

// In-memory pools are unaffected by the file API: Close is a no-op and
// FileStats are zero.
func TestMemPoolFileAPINoops(t *testing.T) {
	p := New("plain", PageSize)
	p.Store8(0, 1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if r, w, s := p.FileStats(); r|w|s != 0 {
		t.Fatal("in-memory pool has file stats")
	}
	if p.FileBacked() {
		t.Fatal("in-memory pool claims to be file-backed")
	}
}
