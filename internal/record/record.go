// Package record implements recorded-campaign artifacts: one pre-failure
// pass serialized as its trace, so that shards, resumed campaigns, and
// -serve workers run the detector backend over the recorded frontend trace
// instead of re-executing the identical deterministic pre-failure stage —
// the frontend/backend decoupling of §5.5.
//
// The container ("XFDR") holds, in order:
//
//   - a header with a version and the campaign's program-identity hash
//     (the vcache identity of the CLI flags that shape the execution), so
//     a stale artifact recorded for a different program is rejected before
//     it can skew detection;
//   - the complete pre-failure trace in the XFDT wire format
//     (internal/trace);
//   - one record per failure point: its crash-state fingerprint (the
//     pruning identity, doubling as a replay-integrity tripwire) and the
//     page-granular pool delta the execution dirtied since the previous
//     failure point (the pool's dirty bitmap) — consecutive deltas compose
//     into the pool image at any failure point over a zeroed pool.
//
// Every replay applies the trace from its head, so it re-detects the
// pre-failure performance reports itself and needs no serialized engine
// state. Artifacts of versions 1 and 2, which carried engine checkpoints
// and a pre-failure report section, are refused at the header: the
// campaign daemon records afresh for every campaign, so re-recording is
// the whole migration.
package record

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/pmemgo/xfdetector/internal/pmem"
	"github.com/pmemgo/xfdetector/internal/shadow"
	"github.com/pmemgo/xfdetector/internal/trace"
)

const (
	// Magic is the artifact container magic ("XFDR"), distinguishing
	// recorded campaigns from bare XFDT traces.
	Magic   = 0x52444658
	version = 3
)

// ErrBadMagic is returned when the stream is not an XFDR artifact.
var ErrBadMagic = errors.New("record: not a recorded-campaign artifact (bad magic)")

// FPRecord is the per-failure-point record.
type FPRecord struct {
	// Fingerprint is the crash-state fingerprint of the shadow at this
	// failure point (shadow.CrashFingerprint).
	Fingerprint uint64
	// Delta holds the pool pages dirtied since the previous failure point.
	Delta []pmem.DeltaPage
}

// Writer accumulates one recording pass and serializes the container to
// dst on Finish. Methods are called from the pre-failure thread only.
type Writer struct {
	dst      io.Writer
	identity uint64
	poolSize uint64
	fps      []FPRecord
}

// NewWriter returns a Writer that will serialize a campaign with the given
// program identity and pool size to dst. The last parameter, once the
// engine-checkpoint interval, is ignored; it stays until the benchmark
// module (perfbench) stops passing it.
func NewWriter(dst io.Writer, identity, poolSize uint64, _ int) *Writer {
	return &Writer{dst: dst, identity: identity, poolSize: poolSize}
}

// OnFailurePoint records failure point fpID: its fingerprint and pool
// delta. Must be called once per failure point, in order.
func (w *Writer) OnFailurePoint(fpID int, fingerprint uint64, delta []pmem.DeltaPage) error {
	if fpID != len(w.fps) {
		return fmt.Errorf("record: failure point %d recorded out of order (have %d)", fpID, len(w.fps))
	}
	w.fps = append(w.fps, FPRecord{Fingerprint: fingerprint, Delta: delta})
	return nil
}

// Finish writes the complete container to the Writer's destination.
func (w *Writer) Finish(target string, tr *trace.Trace) error {
	bw := bufio.NewWriterSize(w.dst, 1<<16)
	var b [8]byte
	wu32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(b[:4], v)
		_, err := bw.Write(b[:4])
		return err
	}
	wu64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(b[:8], v)
		_, err := bw.Write(b[:8])
		return err
	}
	fail := func(err error) error { return fmt.Errorf("record: writing artifact: %w", err) }

	for _, v := range []uint32{Magic, version} {
		if err := wu32(v); err != nil {
			return fail(err)
		}
	}
	for _, v := range []uint64{w.identity, w.poolSize} {
		if err := wu64(v); err != nil {
			return fail(err)
		}
	}
	if err := wu32(uint32(len(target))); err != nil {
		return fail(err)
	}
	if _, err := bw.WriteString(target); err != nil {
		return fail(err)
	}
	if _, err := tr.WriteTo(bw); err != nil {
		return fail(err)
	}

	if err := wu32(uint32(len(w.fps))); err != nil {
		return fail(err)
	}
	for _, fp := range w.fps {
		if err := wu64(fp.Fingerprint); err != nil {
			return fail(err)
		}
		if err := wu32(uint32(len(fp.Delta))); err != nil {
			return fail(err)
		}
		for _, d := range fp.Delta {
			if err := wu32(uint32(d.Index)); err != nil {
				return fail(err)
			}
			if err := wu32(uint32(len(d.Data))); err != nil {
				return fail(err)
			}
			if _, err := bw.Write(d.Data); err != nil {
				return fail(err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	return nil
}

// Artifact is a decoded recorded campaign.
type Artifact struct {
	Identity uint64
	PoolSize uint64
	Target   string
	Trace    *trace.Trace
	FPs      []FPRecord
}

// Load reads an artifact from a file.
func Load(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	defer f.Close()
	a, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("record: reading %s: %w", path, err)
	}
	return a, nil
}

// Read decodes an artifact from r.
func Read(r io.Reader) (*Artifact, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var b [8]byte
	ru32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, b[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:4]), nil
	}
	ru64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, b[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:8]), nil
	}

	m, err := ru32()
	if err != nil {
		return nil, err
	}
	if m != Magic {
		return nil, ErrBadMagic
	}
	v, err := ru32()
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("record: unsupported artifact version %d (this build reads version %d); re-record it", v, version)
	}
	a := &Artifact{Trace: trace.New()}
	if a.Identity, err = ru64(); err != nil {
		return nil, err
	}
	if a.PoolSize, err = ru64(); err != nil {
		return nil, err
	}
	n, err := ru32()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("record: target name of %d bytes", n)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	a.Target = string(name)
	if _, err := a.Trace.ReadFrom(br); err != nil {
		return nil, err
	}

	nFP, err := ru32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nFP; i++ {
		var fp FPRecord
		if fp.Fingerprint, err = ru64(); err != nil {
			return nil, err
		}
		var nDelta uint32
		if nDelta, err = ru32(); err != nil {
			return nil, err
		}
		for j := uint32(0); j < nDelta; j++ {
			var d pmem.DeltaPage
			var idx, ln uint32
			if idx, err = ru32(); err != nil {
				return nil, err
			}
			if ln, err = ru32(); err != nil {
				return nil, err
			}
			if ln > pmem.PageSize {
				return nil, fmt.Errorf("record: delta page of %d bytes", ln)
			}
			d.Index = int(idx)
			d.Data = make([]byte, ln)
			if _, err = io.ReadFull(br, d.Data); err != nil {
				return nil, err
			}
			fp.Delta = append(fp.Delta, d)
		}
		a.FPs = append(a.FPs, fp)
	}
	return a, nil
}

// PoolAt composes the pool image at failure point fp: the last version of
// every page dirtied by deltas 0..fp, to be applied over a zeroed pool.
func (a *Artifact) PoolAt(fp int) []pmem.DeltaPage {
	last := map[int]pmem.DeltaPage{}
	for i := 0; i <= fp && i < len(a.FPs); i++ {
		for _, d := range a.FPs[i].Delta {
			last[d.Index] = d
		}
	}
	out := make([]pmem.DeltaPage, 0, len(last))
	for _, d := range last {
		out = append(out, d)
	}
	return out
}

// Checkpoint, BestCheckpoint and OpenShadow remain only so the benchmark
// module (perfbench), which times a checkpoint restore, still compiles.
// No artifact carries an engine checkpoint any more.

// Checkpoint names the failure point an engine checkpoint was taken at.
type Checkpoint struct {
	FP int
}

// BestCheckpoint returns nil: every replay starts at the trace head.
func (a *Artifact) BestCheckpoint(startFP int) *Checkpoint { return nil }

// OpenShadow fails: there is no engine state to restore.
func (a *Artifact) OpenShadow(ck *Checkpoint) (*shadow.PM, error) {
	return nil, errors.New("record: artifacts carry no engine checkpoints")
}
