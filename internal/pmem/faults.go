package pmem

import (
	"fmt"

	"github.com/pmemgo/xfdetector/internal/trace"
)

// Harness-fault injection.
//
// The detection loop copies PM images and streams trace entries through
// sinks; in a production campaign either can fail (an exhausted allocator, a
// broken trace spool). Those are *harness-internal* faults — the tested
// program did nothing wrong — and the detector must degrade gracefully:
// retry, quarantine the failure point, and keep the campaign running. The
// hooks here let tests inject such faults deterministically so every
// degradation path is exercised rather than trusted.

// HarnessFault marks a failure of the detection harness itself, as opposed
// to a bug in the tested program. The detection frontend retries and then
// quarantines the affected failure point instead of reporting a bug.
type HarnessFault struct {
	// Op names the harness operation that failed: "image-copy" or
	// "trace-sink" for the in-memory faults, "msync", "short-msync",
	// "torn-mmap" or "pool-extend" for the disk fault classes of a
	// file-backed pool (file.go).
	Op  string
	Err error
}

func (f *HarnessFault) Error() string {
	return fmt.Sprintf("pmem: harness fault during %s: %v", f.Op, f.Err)
}

func (f *HarnessFault) Unwrap() error { return f.Err }

// FaultHooks injects deterministic harness-internal faults. Each hook is
// consulted before the operation it guards; returning a non-nil error fails
// that operation with a *HarnessFault. The zero value injects nothing.
// Hooks must be safe for concurrent use (under core.Config.Workers > 1
// every sibling runner consults them from its own goroutine).
type FaultHooks struct {
	// Snapshot is consulted before each PM image copy (SnapshotErr) with
	// the failure point the image is taken at; a non-nil error fails the
	// copy. The failure point lets a fault target one point's attempts
	// however the siblings of a parallel campaign interleave.
	Snapshot func(fp int) error
	// Sink is consulted before each trace-sink delivery with the entry
	// about to be recorded; a non-nil error aborts the recording operation
	// by panicking with a *HarnessFault, which unwinds the stage being
	// traced into the detection frontend's recovery.
	Sink func(e trace.Entry) error
	// Msync is consulted before each coalesced dirty-range writeback of a
	// file-backed pool; a non-nil error fails the persist with Op "msync"
	// and leaves every page of the range dirty. Returning ENOSPC models
	// the disk-full class.
	Msync func(addr, size uint64) error
	// ShortMsync is consulted before each dirty-range writeback; a
	// non-nil error persists only the first keep bytes of the range and
	// fails with Op "short-msync", leaving the unpersisted pages dirty
	// for the retry. keep is ignored when err is nil.
	ShortMsync func(addr, size uint64) (keep uint64, err error)
	// TornMmap is consulted after each page of a file-backed pool is
	// written back, just before its read-back verification; a non-nil
	// error fails the persist with Op "torn-mmap" and leaves the page
	// dirty, modeling a page that reads back torn through the mapping.
	TornMmap func(page uint64) error
	// Extend is consulted before the backing file of a file-backed pool
	// is extended to the pool size at creation; a non-nil error fails
	// pool creation with Op "pool-extend" (the disk-full class at extend
	// time). It fires before the detection frontend can install hooks on
	// the pool, so it is consulted from FileBackend.Hooks.
	Extend func(size uint64) error
}

// SetFaultHooks installs h on the pool (nil disables fault injection).
//
// Propagation contract: the detection frontend installs the pre-failure
// pool's hooks on every post-failure pool it builds (the COW views over
// failure-point snapshots), and under core.Config.Workers > 1 every
// sibling installs the same hooks on its own root and post-failure pools —
// so a fault class armed for a campaign keeps firing across every
// post-failure attempt and every sibling, with no un-instrumented copies.
// TestFaultHooksPropagation in internal/core pins this contract.
func (p *Pool) SetFaultHooks(h *FaultHooks) {
	p.mu.Lock()
	p.faults = h
	p.mu.Unlock()
}

// SnapshotErr is TakeSnapshot at failure point fp with the harness fault
// paths applied: on a file-backed pool it first persists the dirty pages
// (a failure-point snapshot is a persist boundary), then consults the
// image-copy fault hook with fp; it returns a *HarnessFault instead of an
// image when either step fails. A persist failure stashed by SFence (which
// has no error path) surfaces here, riding the frontend's
// retry-once-then-quarantine handling exactly like an image-copy fault.
func (p *Pool) SnapshotErr(fp int) (*Snapshot, error) {
	p.mu.Lock()
	h := p.faults
	if p.file != nil {
		if err := p.persistLocked(); err != nil {
			p.mu.Unlock()
			return nil, err
		}
	}
	p.mu.Unlock()
	if h != nil && h.Snapshot != nil {
		if err := h.Snapshot(fp); err != nil {
			return nil, &HarnessFault{Op: "image-copy", Err: err}
		}
	}
	return p.TakeSnapshot(), nil
}
